(* Cross-cutting protocol invariants as property tests: value
   conservation, step decomposition, delta consistency, chain supply,
   commitment completeness. *)

open Zen_crypto
open Zen_latus
open Zendoo

let amount n = Amount.of_int_exn n
let params = Params.default

let prop ?(count = 15) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

(* Generator: a random but well-formed workload over two wallets,
   described abstractly and interpreted against a state. *)
type action =
  | Do_ft of int * int (* user, amount *)
  | Do_pay of int * int * int (* from, to, amount *)
  | Do_bt of int (* user spends their first coin *)

let gen_action =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun u a -> Do_ft (u, 1 + a)) (int_bound 1) (int_bound 10_000);
        map3
          (fun f t a -> Do_pay (f, t, 1 + a))
          (int_bound 1) (int_bound 1) (int_bound 5_000);
        map (fun u -> Do_bt u) (int_bound 1);
      ])

let gen_workload = QCheck2.Gen.(list_size (int_range 1 12) gen_action)

let show_action = function
  | Do_ft (u, a) -> Printf.sprintf "FT(%d,%d)" u a
  | Do_pay (f, t, a) -> Printf.sprintf "PAY(%d,%d,%d)" f t a
  | Do_bt u -> Printf.sprintf "BT(%d)" u

let show_workload ws = String.concat " " (List.map show_action ws)

type interp = {
  state : Sc_state.t;
  ft_in : int;
      (* total forward-transfer value entering the system — including
         rejected FTs, whose coins were destroyed on the MC and leave
         again through bounce backward transfers *)
  bt_out : int; (* total value moved into backward transfers *)
  touched : int list; (* MST slots the applied steps wrote *)
}

(* Applies [tx] if it is valid: the new state, the slots its steps
   wrote and the value its steps moved into backward transfers. *)
let apply acc tx =
  match Sc_tx.transition acc.state tx with
  | Error _ -> None
  | Ok (state, traced) ->
    let depth = Mst.depth state.Sc_state.mst in
    Some
      (List.fold_left
         (fun (acc, bts) (t : Sc_tx.traced) ->
           match t.step with
           | Sc_tx.Insert u | Sc_tx.Remove u ->
             let pos = Utxo.position ~mst_depth:depth u in
             ({ acc with touched = pos :: acc.touched }, bts)
           | Sc_tx.Append_bt bt ->
             (acc, bts + Amount.to_int bt.Backward_transfer.amount))
         ({ acc with state }, 0) traced)

let interpret wallets actions =
  let addrs = Array.map (fun w -> List.hd (Sc_wallet.addresses w)) wallets in
  let counter = ref 0 in
  List.fold_left
    (fun acc action ->
      incr counter;
      match action with
      | Do_ft (u, a) -> (
        let ft =
          Forward_transfer.make ~ledger_id:Hash.zero
            ~receiver_metadata:
              (Sc_tx.ft_metadata ~receiver:addrs.(u) ~payback:addrs.(u))
            ~amount:(amount a)
        in
        match
          apply acc (Sc_tx.Forward_transfers_tx { mcid = Hash.zero; fts = [ ft ] })
        with
        | Some (acc, bounced) ->
          { acc with ft_in = acc.ft_in + a; bt_out = acc.bt_out + bounced }
        | None -> acc)
      | Do_pay (f, t, a) -> (
        match
          Sc_wallet.build_payment wallets.(f) acc.state ~to_:addrs.(t)
            ~amount:(amount a)
        with
        | Error _ -> acc
        | Ok tx -> (
          match apply acc tx with Some (acc, _) -> acc | None -> acc))
      | Do_bt u -> (
        match Sc_wallet.utxos wallets.(u) acc.state with
        | [] -> acc
        | coin :: _ -> (
          match
            Sc_wallet.build_backward_transfer wallets.(u) acc.state ~utxo:coin
              ~mc_receiver:addrs.(u)
          with
          | Error _ -> acc
          | Ok tx -> (
            match apply acc tx with
            | Some (acc, _) ->
              { acc with bt_out = acc.bt_out + Amount.to_int coin.Utxo.amount }
            | None -> acc))))
    {
      state = Sc_state.create params;
      ft_in = 0;
      bt_out = 0;
      touched = [];
    }
    actions

let fresh_wallets seed =
  Array.init 2 (fun i ->
      let w = Sc_wallet.create ~seed:(Printf.sprintf "%s.%d" seed i) in
      let (_ : Hash.t) = Sc_wallet.fresh_address w in
      w)

let seed_counter = ref 0

let props =
  [
    prop "value conservation: mst = ft_in - bt_out" ~print:show_workload
      gen_workload
      (fun actions ->
        incr seed_counter;
        let wallets = fresh_wallets (Printf.sprintf "cons%d" !seed_counter) in
        let r = interpret wallets actions in
        (* The MST holds exactly what came in minus what left as
           backward transfers (bounce-BTs of rejected FTs included),
           and the recorded BT list accounts for every departed coin. *)
        let bt_list_total =
          List.fold_left
            (fun acc (bt : Backward_transfer.t) -> acc + Amount.to_int bt.amount)
            0 (Sc_state.backward_transfers r.state)
        in
        Fixtures.total_value r.state.Sc_state.mst
        = r.ft_in - r.bt_out
        && bt_list_total = r.bt_out);
    prop "bt accumulator replays the bt list" gen_workload (fun actions ->
        incr seed_counter;
        let wallets = fresh_wallets (Printf.sprintf "acc%d" !seed_counter) in
        let r = interpret wallets actions in
        let replayed =
          List.fold_left Fixtures.bt_acc_step Fp.zero
            (Sc_state.backward_transfers r.state)
        in
        Fp.equal replayed r.state.Sc_state.bt_acc);
    prop "apply equals folding its own steps" gen_workload (fun actions ->
        incr seed_counter;
        let wallets = fresh_wallets (Printf.sprintf "steps%d" !seed_counter) in
        (* Interpret while checking each applied tx both ways. *)
        let addrs = Array.map (fun w -> List.hd (Sc_wallet.addresses w)) wallets in
        let check_tx state tx =
          match Sc_tx.transition state tx with
          | Error _ -> true
          | Ok (_, traced) ->
            (* Each traced pre-state is the fold's state before that
               step, and each post-state the fold's state after it. *)
            let same a b = Fp.equal (Sc_state.hash a) (Sc_state.hash b) in
            let via_steps =
              List.fold_left
                (fun acc { Sc_tx.pre; step; post } ->
                  Result.bind acc (fun st ->
                      if not (same st pre) then Error "pre-state mismatch"
                      else
                        Result.bind (Sc_tx.apply_step st step) (fun st' ->
                            if same st' post then Ok st'
                            else Error "post-state mismatch")))
                (Ok state) traced
            in
            (match (Sc_tx.apply state tx, via_steps) with
            | Ok a, Ok b -> Fp.equal (Sc_state.hash a) (Sc_state.hash b)
            | _ -> false)
        in
        let state = ref (Sc_state.create params) in
        List.for_all
          (fun action ->
            match action with
            | Do_ft (u, a) ->
              let ft =
                Forward_transfer.make ~ledger_id:Hash.zero
                  ~receiver_metadata:
                    (Sc_tx.ft_metadata ~receiver:addrs.(u) ~payback:addrs.(u))
                  ~amount:(amount a)
              in
              let tx = Sc_tx.Forward_transfers_tx { mcid = Hash.zero; fts = [ ft ] } in
              let okay = check_tx !state tx in
              (match Sc_tx.apply !state tx with
              | Ok st -> state := st
              | Error _ -> ());
              okay
            | Do_pay (f, t, a) -> (
              match
                Sc_wallet.build_payment wallets.(f) !state ~to_:addrs.(t)
                  ~amount:(amount a)
              with
              | Error _ -> true
              | Ok tx ->
                let okay = check_tx !state tx in
                (match Sc_tx.apply !state tx with
                | Ok st -> state := st
                | Error _ -> ());
                okay)
            | Do_bt u -> (
              match Sc_wallet.utxos wallets.(u) !state with
              | [] -> true
              | coin :: _ -> (
                match
                  Sc_wallet.build_backward_transfer wallets.(u) !state
                    ~utxo:coin ~mc_receiver:addrs.(u)
                with
                | Error _ -> true
                | Ok tx ->
                  let okay = check_tx !state tx in
                  (match Sc_tx.apply !state tx with
                  | Ok st -> state := st
                  | Error _ -> ());
                  okay)))
          actions);
    prop "mst delta marks exactly the touched slots" gen_workload
      (fun actions ->
        incr seed_counter;
        let wallets = fresh_wallets (Printf.sprintf "delta%d" !seed_counter) in
        let r = interpret wallets actions in
        let delta = Mst.delta_bits r.state.Sc_state.mst in
        let touched = List.sort_uniq Int.compare r.touched in
        List.for_all (Mst.delta_bit delta) touched
        &&
        (* and no other bit is set *)
        let set_bits = ref 0 in
        Bytes.iter
          (fun c ->
            let rec popcount n = if n = 0 then 0 else (n land 1) + popcount (n lsr 1) in
            set_bits := !set_bits + popcount (Char.code c))
          delta;
        !set_bits = List.length touched);
    prop "interpretation is deterministic" gen_workload (fun actions ->
        incr seed_counter;
        let seed = Printf.sprintf "det%d" !seed_counter in
        let r1 = interpret (fresh_wallets seed) actions in
        let r2 = interpret (fresh_wallets seed) actions in
        Fp.equal (Sc_state.hash r1.state) (Sc_state.hash r2.state));
    (* A depth-5 MST has 32 slots, so payee and change often derive to
       one slot, or onto a coin the payment does not spend. *)
    prop "wallet payments validate" ~count:25
      QCheck2.Gen.(
        triple
          (list_size (int_range 0 12) (int_bound 1_000_000))
          (list_size (int_range 1 3) (int_range 2 10_000))
          (list_size (int_range 1 3) (int_range 1 5_000)))
      (fun (others, coins, pays) ->
        incr seed_counter;
        let params = { params with mst_depth = 5 } in
        let wallets = fresh_wallets (Printf.sprintf "slots%d" !seed_counter) in
        let addrs = Array.map (fun w -> List.hd (Sc_wallet.addresses w)) wallets in
        let coin addr i a =
          Utxo.make ~addr ~amount:(amount a)
            ~nonce:(Hash.of_string (Printf.sprintf "slots%d.%d" !seed_counter i))
        in
        let insert st u =
          Result.value ~default:st (Sc_tx.apply_step st (Sc_tx.Insert u))
        in
        let st =
          List.fold_left insert (Sc_state.create params)
            (List.mapi (fun i n -> coin (Hash.of_string "other") (-1 - i) (1 + n)) others
            @ List.mapi (fun i a -> coin addrs.(0) i a) coins)
        in
        let rec go st = function
          | [] -> true
          | a :: rest -> (
            match
              Sc_wallet.build_payment wallets.(0) st ~to_:addrs.(1)
                ~amount:(amount a)
            with
            | Error _ -> go st rest
            | Ok tx ->
              Result.is_ok (Sc_tx.validate st tx)
              && go (Result.get_ok (Sc_tx.apply st tx)) rest)
        in
        go st pays);
  ]

let suite = ("protocol-props", props)
