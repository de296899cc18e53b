(* History scans: the mainchain's per-block work must not grow with the
   length of the run. The bounded scans are checked against the
   whole-history forms they replaced (test oracles here), and a world
   run checks that the scan counters stay flat from its first ticks to
   its last. *)

open Zen_crypto
open Zendoo
open Zen_mainchain

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let prop ?(count = 40) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

let params = { Chain_state.default_params with pow = Pow.trivial }

(* ---- Tx.outpoint_encode ≡ its Printf form ---- *)

let printf_encode (o : Tx.outpoint) =
  Hash.to_raw o.txid ^ Printf.sprintf "%08x" o.vout

let gen_vout =
  QCheck2.Gen.(
    oneof
      [
        int_bound 300;
        int_range 0 0xffff_ffff;
        (* the Printf fallbacks: 2^32 and above, and negative *)
        int_range 0x1_0000_0000 max_int;
        int_range min_int (-1);
        oneofl [ 0xffff_ffff; 0x1_0000_0000; -1; max_int; min_int ];
      ])

let outpoint_encode_equiv =
  prop ~count:300 ~print:string_of_int "outpoint_encode ≡ Printf %08x" gen_vout
    (fun vout ->
      let o = { Tx.txid = Hash.of_int (vout land 7); vout } in
      String.equal (Tx.outpoint_encode o) (printf_encode o))

(* ---- Wallet.build_transfer ≡ the sort-based selection ---- *)

(* The selection the wallet made before its coins came in value order:
   every spendable coin of every address, sorted by outpoint key
   descending, then stably by amount descending, picked greedily. *)
let oracle_pick wallet (st : Chain_state.t) ~need =
  let coins =
    List.concat_map
      (fun addr ->
        List.filter
          (fun (_, (c : Utxo_set.coin)) -> st.height + 1 > c.spendable_after)
          (Utxo_set.coins_of_addr st.utxos addr))
      (Wallet.addresses wallet)
    |> List.sort (fun (a, _) (b, _) ->
           String.compare (Tx.outpoint_encode b) (Tx.outpoint_encode a))
    |> List.stable_sort (fun (_, (a : Utxo_set.coin)) (_, (b : Utxo_set.coin)) ->
           Amount.compare b.amount a.amount)
  in
  let rec pick acc total = function
    | _ when Amount.( <= ) need total -> Ok acc
    | [] -> Error "wallet: insufficient funds"
    | (o, (c : Utxo_set.coin)) :: rest ->
      pick (o :: acc) (amount (Amount.to_int total + Amount.to_int c.amount)) rest
  in
  pick [] Amount.zero coins

(* coins: (owner, amount, maturity offset, txid seed, vout). Owners
   0-2 are wallet addresses, 3 a stranger's; few amounts force ties. *)
let gen_wallet_case =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 25)
         (tup5 (int_bound 3) (int_range 1 4) (int_range (-2) 2) (int_bound 9)
            (oneof [ int_bound 3; int_range 0x1_0000_0000 0x1_0000_0003 ])))
      (pair (int_range 0 12) (int_bound 2)))

let show_wallet_case (coins, (target, fee)) =
  Printf.sprintf "target %d fee %d coins [%s]" target fee
    (String.concat ";"
       (List.map
          (fun (a, v, m, t, o) -> Printf.sprintf "a%d v%d m%+d t%d o%d" a v m t o)
          coins))

let wallet_selection_equiv =
  prop ~count:150 ~print:show_wallet_case
    "build_transfer ≡ sort-based selection" gen_wallet_case
    (fun (coins, (target, fee)) ->
      let wallet = Wallet.create ~seed:"scans.wallet" in
      let addrs = Array.init 3 (fun _ -> Wallet.fresh_address wallet) in
      let stranger = Hash.of_string "scans.stranger" in
      let height = 10 in
      let utxos =
        List.fold_left
          (fun u (a, v, m, t, vout) ->
            Utxo_set.add u
              { Tx.txid = Hash.of_int t; vout }
              {
                Utxo_set.addr = (if a = 3 then stranger else addrs.(a));
                amount = amount v;
                spendable_after = height + m;
              })
          Utxo_set.empty coins
      in
      let st =
        {
          (Chain_state.of_genesis params (Block.genesis ~time:0)) with
          height;
          utxos;
        }
      in
      let outputs = [ Tx.Coin { Tx.addr = stranger; amount = amount target } ] in
      let expected = oracle_pick wallet st ~need:(amount (target + fee)) in
      match (Wallet.build_transfer wallet st ~outputs ~fee:(amount fee), expected) with
      | Ok (Tx.Transfer { inputs; _ }), Ok picked ->
        List.map (fun (i : Tx.input) -> Tx.outpoint_encode i.outpoint) inputs
        = List.map Tx.outpoint_encode picked
      | Error e, Error e' -> String.equal e e'
      | _ -> false)

(* ---- Chain's reorg diff ≡ the two walks, depth ≡ the ancestor-set
   count ---- *)

(* Depth as the historical scan computed it: the old branch's blocks
   that are not in the set of all the new tip's ancestors. *)
let oracle_depth chain ~old_tip ~new_tip =
  let rec ancestors h acc =
    match Chain.block chain h with
    | None -> acc
    | Some b ->
      if b.header.height = 0 then Hash.Set.add h acc
      else ancestors b.header.prev (Hash.Set.add h acc)
  in
  let anc = ancestors new_tip Hash.Set.empty in
  let rec count h n =
    if Hash.Set.mem h anc then n
    else
      match Chain.block chain h with
      | None -> n
      | Some b -> count b.header.prev (n + 1)
  in
  count old_tip 0

(* The diff in the two walks the chain made before [Chain.add_block]
   returned it, once the tip had moved: back from [old_tip] until a
   block on the best chain (the abandoned blocks), then down from the
   tip to the common ancestor's height (the blocks that replaced them),
   both oldest first. *)
let oracle_diff chain ~old_tip =
  let rec abandoned h acc =
    match Chain.block chain h with
    | None -> acc
    | Some b ->
      if Chain.on_best_chain chain h then acc
      else abandoned b.header.prev (b :: acc)
  in
  let disconnected = abandoned old_tip [] in
  let fork_height =
    match disconnected with
    | [] -> Chain.height chain
    | b :: _ -> b.header.height - 1
  in
  let rec connected h acc =
    match Chain.block chain h with
    | None -> acc
    | Some b ->
      if b.header.height <= fork_height then acc
      else connected b.header.prev (b :: acc)
  in
  (disconnected, connected (Chain.tip_hash chain) [])

let show_blocks bs =
  String.concat "," (List.map (fun b -> Hash.to_hex (Block.hash b)) bs)

(* Grows a block tree, each block on one of the [6] most recent, and
   checks every Reorg's lists against the two-walk oracle and its depth
   against the ancestor-set count. Returns the depths. *)
let reorg_tree choices =
  let chain = ref (Chain.create ~params ~time:0 ()) in
  let blocks = ref [ Chain.tip_hash !chain ] in
  let addr = Hash.of_string "scans.miner" in
  List.fold_left
    (fun depths (i, c) ->
      let recent = List.filteri (fun j _ -> j < 6) !blocks in
      let prev = List.nth recent (c mod List.length recent) in
      let height =
        (Option.get (Chain.block !chain prev)).header.height + 1
      in
      let b =
        ok
          (Block.assemble ~prev ~height ~time:(i + 1)
             ~txs:
               [
                 Tx.Coinbase
                   { height; reward = { Tx.addr; amount = params.subsidy } };
               ]
             ~pow:params.pow ())
      in
      let c', outcome = ok (Chain.add_block !chain b) in
      chain := c';
      blocks := Block.hash b :: !blocks;
      match outcome with
      | Chain.Reorg { old_tip; disconnected; connected } ->
        let od, oc = oracle_diff c' ~old_tip in
        List.iter
          (fun (what, got, want) ->
            let got = show_blocks got and want = show_blocks want in
            if not (String.equal got want) then
              Alcotest.failf "reorg %s [%s], two-walk oracle [%s]" what got
                want)
          [ ("disconnected", disconnected, od); ("connected", connected, oc) ];
        let depth = List.length disconnected in
        let expected =
          oracle_depth c' ~old_tip ~new_tip:(Chain.tip_hash c')
        in
        if depth <> expected then
          Alcotest.failf "reorg depth %d, ancestor-set count %d" depth expected;
        depth :: depths
      | Chain.Extended_tip | Chain.Side_branch -> depths)
    []
    (List.mapi (fun i c -> (i, c)) choices)

let reorg_depth_equiv =
  prop ~count:40 "reorg depth ≡ ancestor-set count"
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound 5))
    (fun choices ->
      ignore (reorg_tree choices : int list);
      true)

(* The generator above does reach deep reorgs: a fixed tree where a
   side branch overtakes a 3-block suffix. *)
let test_reorg_depth_deep () =
  let depths = reorg_tree [ 0; 0; 0; 0; 3; 0; 0; 0 ] in
  checki "one reorg" 1 (List.length depths);
  checki "three blocks abandoned" 3 (List.hd depths)

(* ---- Sc_ledger's certificate list ≡ List.find_opt / List.filter ---- *)

(* A vk and one real proof of a 5-input circuit, shared by every
   certificate below; [accept_settled] tells [accept_cert] that proof
   is settled, so no SNARK runs and only the ledger rules decide. *)
let cert_fixture =
  lazy
    (let ctx = Zen_snark.Gadget.create () in
     let _ = List.init 5 (fun _ -> Zen_snark.Gadget.input ctx Fp.zero) in
     let w = Zen_snark.Gadget.witness ctx Fp.zero in
     Zen_snark.Gadget.assert_eq ctx w w;
     let c, public, witness = Zen_snark.Gadget.finalize ~name:"scans5" ctx in
     let pk, vk = Zen_snark.Backend.setup c in
     (vk, ok (Zen_snark.Backend.prove pk ~public ~witness)))

let epoch_of (r : Sc_ledger.cert_record) = r.cert.epoch_id

let show_record (r : Sc_ledger.cert_record) =
  Printf.sprintf "e%d/q%d@%d" (epoch_of r) r.cert.quality r.at_height

let same_record a b = String.equal (show_record a) (show_record b)

(* A ledger with one sidechain, registered at height 0 and active from
   height 5. *)
let cert_ledger ~name ~epoch_len ~submit_len =
  let vk, _ = Lazy.force cert_fixture in
  let ledger_id = Hash.of_string name in
  let config =
    ok
      (Sidechain_config.make ~ledger_id ~start_block:5 ~epoch_len ~submit_len
         ~wcert_vk:vk ())
  in
  (ledger_id, config, ok (Sc_ledger.register Sc_ledger.empty config ~created_at:0))

let accept_settled l ~ledger_id ~epoch_id ~quality ~height =
  let _, proof = Lazy.force cert_fixture in
  let cert =
    Withdrawal_certificate.make ~ledger_id ~epoch_id ~quality ~bt_list:[]
      ~proofdata:[] ~proof
  in
  let settled =
    Hash.Map.singleton
      (Withdrawal_certificate.hash cert)
      (Zen_snark.Backend.proof_encode proof)
  in
  Sc_ledger.accept_cert ~settled l ~cert ~block_hash:(Hash.of_int height)
    ~height ~block_hash_at:(fun _ -> Some Hash.zero)

(* (epoch_len, submit_len) and ops (epoch offset, quality, height
   offset): epochs around the next due one, heights around its
   window, overlapping windows when submit_len > epoch_len. *)
let gen_cert_case =
  QCheck2.Gen.(
    pair
      (pair (int_range 2 3) (int_range 1 5))
      (list_size (int_range 1 40)
         (triple (int_bound 3) (int_bound 4) (int_bound 6))))

let show_cert_case ((el, sl), ops) =
  Printf.sprintf "epoch_len %d submit_len %d ops [%s]" el sl
    (String.concat ";"
       (List.map (fun (e, q, h) -> Printf.sprintf "%d,%d,%d" e q h) ops))

(* Each accepted certificate's list is the List.filter form, re-sorted
   newest first (the List.filter form as is when the record is for the
   newest epoch), the replaced record is List.find_opt's, and
   [cert_for_epoch] agrees with List.find_opt for every epoch. *)
let cert_list_equiv =
  prop ~count:150 ~print:show_cert_case
    "cert_for_epoch/replacement ≡ find_opt/filter" gen_cert_case
    (fun ((epoch_len, submit_len), ops) ->
      let ledger_id, config, l =
        cert_ledger ~name:"scans.sc" ~epoch_len ~submit_len
      in
      let schedule = Epoch.of_config config in
      let certs l = (Option.get (Sc_ledger.find l ledger_id)).certs in
      let find_opt epoch = List.find_opt (fun r -> epoch_of r = epoch) in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> epoch_of a > epoch_of b && decreasing rest
        | _ -> true
      in
      let lookups_agree l =
        let sc = Option.get (Sc_ledger.find l ledger_id) in
        List.for_all
          (fun epoch ->
            Option.equal same_record
              (Sc_ledger.cert_for_epoch sc ~epoch)
              (find_opt epoch sc.certs))
          (List.init (List.length sc.certs + 3) (fun e -> e - 1))
      in
      let step l (de, quality, dh) =
        let next_due =
          match certs l with [] -> 0 | r :: _ -> epoch_of r + 1
        in
        let epoch_id = max 0 (next_due - 2 + de) in
        let lo, _ = Epoch.submission_window schedule ~epoch:epoch_id in
        let before = certs l in
        match
          accept_settled l ~ledger_id ~epoch_id ~quality ~height:(lo - 1 + dh)
        with
        | Error _ -> Some l
        | Ok (l', replaced) ->
          let after = certs l' in
          let filtered =
            Option.get (find_opt epoch_id after)
            :: List.filter (fun r -> epoch_of r <> epoch_id) before
          in
          let sorted =
            List.stable_sort
              (fun a b -> Int.compare (epoch_of b) (epoch_of a))
              filtered
          in
          let newest = List.for_all (fun r -> epoch_of r <= epoch_id) before in
          if
            List.equal same_record after sorted
            && ((not newest) || List.equal same_record after filtered)
            && Option.equal same_record replaced (find_opt epoch_id before)
          then Some l'
          else None
      in
      let rec run l = function
        | [] -> true
        | op :: rest -> (
          match step l op with
          | Some l' -> decreasing (certs l') && lookups_agree l' && run l' rest
          | None -> false)
      in
      run l ops)

(* With overlapping windows, a replacement for an epoch older than the
   newest certified one keeps its place: the newest record stays first,
   so [last_cert] and the ceasing rule still see the newest epoch. *)
let test_replacement_keeps_order () =
  let ledger_id, _, l =
    cert_ledger ~name:"scans.overlap" ~epoch_len:2 ~submit_len:5
  in
  let accept l ~epoch_id ~quality ~height =
    fst (ok (accept_settled l ~ledger_id ~epoch_id ~quality ~height))
  in
  (* epoch 0's window is heights 7-11, epoch 1's 9-13, epoch 2's 11-15 *)
  let l = accept l ~epoch_id:0 ~quality:1 ~height:7 in
  let l = accept l ~epoch_id:1 ~quality:1 ~height:9 in
  let l = accept l ~epoch_id:0 ~quality:2 ~height:10 in
  let sc = Option.get (Sc_ledger.find l ledger_id) in
  checks "newest first" "e1/q1@9;e0/q2@10"
    (String.concat ";" (List.map show_record sc.certs));
  checki "last certified epoch" 1 (epoch_of (Option.get (Sc_ledger.last_cert sc)));
  Alcotest.(check bool)
    "not ceased before epoch 2's window closes" false
    (Sc_ledger.is_ceased l ledger_id ~height:15)

(* ---- Chain_state.apply_tx: transfer refusals, pinned ---- *)

let test_transfer_error_precedence () =
  let chain = ref (Chain.create ~params ~time:0 ()) in
  let wallet = Wallet.create ~seed:"scans.precedence" in
  let addr = Wallet.fresh_address wallet in
  for time = 1 to 4 do
    let b, _ =
      ok (Miner.build_block !chain ~time ~miner_addr:addr ~candidates:[])
    in
    chain := fst (ok (Chain.add_block !chain b))
  done;
  let st = Chain.tip_state !chain in
  let height = st.height + 1 in
  let mature, _ =
    List.find
      (fun (_, (c : Utxo_set.coin)) -> height > c.spendable_after)
      (Utxo_set.coins_of_addr st.utxos addr)
  in
  let missing = { Tx.txid = Hash.of_string "scans.missing"; vout = 0 } in
  let outputs = [ Tx.Coin { Tx.addr; amount = amount 1 } ] in
  let input ?(outpoints = [ mature ]) ?(outputs = outputs) outpoint =
    let sighash = Tx.sighash ~inputs:outpoints ~outputs in
    let pk, signature =
      Option.get (Wallet.sign_for wallet ~addr ~msg:(Hash.to_raw sighash))
    in
    { Tx.outpoint; pk; signature }
  in
  let stranger_pk, stranger_sig =
    let sk, pk = Schnorr.of_seed "scans.stranger" in
    (pk, Schnorr.sign sk "x")
  in
  let refuse name want inputs outs =
    match
      Chain_state.apply_tx st ~height ~block_hash:Hash.zero
        (Tx.Transfer { inputs; outputs = outs })
    with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e -> checks name want e
  in
  refuse "no inputs" "tx: transfer without inputs" [] outputs;
  (* distinct inputs come before any lookup *)
  refuse "duplicate" "tx: duplicate input"
    [ input missing; input missing ] outputs;
  refuse "missing" "tx: input missing, spent, or immature"
    [ input missing; input mature ] outputs;
  refuse "owner" "tx: key does not own the spent output"
    [ { Tx.outpoint = mature; pk = stranger_pk; signature = stranger_sig } ]
    outputs;
  (* input by input: the first input's signature before the second's
     lookup *)
  refuse "signature" "tx: invalid signature"
    [ input ~outpoints:[ missing ] mature; input missing ] outputs;
  let overspend = [ Tx.Coin { Tx.addr; amount = amount 6_000_000_000 } ] in
  refuse "overspend" "tx: outputs exceed inputs"
    [ input ~outputs:overspend mature ]
    overspend;
  (* The sighash is computed at the first signature check: a transfer
     whose first input is missing hashes nothing. *)
  let tx = Tx.Transfer { inputs = [ input missing ]; outputs } in
  Zen_obs.Registry.reset ();
  let bytes =
    Zen_obs.Registry.with_enabled (fun () ->
        ignore (Chain_state.apply_tx st ~height ~block_hash:Hash.zero tx);
        Zen_obs.Counter.value (Zen_obs.Counter.make "crypto.sha256.bytes"))
  in
  Zen_obs.Registry.reset ();
  checki "missing first input: nothing hashed" 0 bytes

(* ---- The world's scans stay flat ---- *)

(* The world [simulate --sidechains 3 --workload smoke] runs, with the
   CLI's defaults (seed "cli", epoch_len 4, submit_len 2, 2 FTs). *)
let smoke_world () =
  let seed = "cli" in
  let h = Zen_sim.Harness.create ~seed () in
  Zen_sim.Harness.fund h ~blocks:5;
  let family = Zen_latus.Circuits.make Zen_latus.Params.default in
  let scs =
    List.init 3 (fun i ->
        ok
          (Zen_sim.Harness.add_latus h
             ~name:(Printf.sprintf "sc%d" (i + 1))
             ~family ~epoch_len:4 ~submit_len:2 ~activation_delay:(3 - i) ()))
  in
  let user = Zen_latus.Sc_wallet.create ~seed:(seed ^ ".user") in
  let user_addr = Zen_latus.Sc_wallet.fresh_address user in
  for i = 1 to 2 do
    ok
      (Zen_sim.Harness.forward_transfer h (List.hd scs) ~receiver:user_addr
         ~payback:user_addr ~amount:(amount (i * 1_000_000)))
  done;
  let workload_seed =
    String.fold_left (fun a c -> ((a * 131) + Char.code c) land max_int) 7 seed
  in
  ok
    (Zen_sim.Harness.set_workload h ~profile:Zen_sim.Workload.smoke
       ~seed:workload_seed);
  h

(* Overtakes the last [depth] blocks of [chain] with [depth + 1]
   coinbase-only blocks, on a copy: chains are persistent values. *)
let reorg_copy chain ~depth =
  let st = Chain.tip_state chain in
  let fork = st.height - depth in
  let addr = Hash.of_string "scans.fork" in
  let reorged =
    List.fold_left
      (fun (c, prev, reorged) i ->
        let height = fork + i in
        let b =
          ok
            (Block.assemble ~prev ~height ~time:(1_000_000 + height)
               ~txs:
                 [
                   Tx.Coinbase
                     {
                       height;
                       reward = { Tx.addr; amount = (Chain.params c).subsidy };
                     };
                 ]
               ~pow:(Chain.params c).pow ())
        in
        let c, outcome = ok (Chain.add_block c b) in
        let reorged =
          match outcome with Chain.Reorg _ -> true | _ -> reorged
        in
        (c, Block.hash b, reorged))
      (chain, Option.get (Chain_state.block_hash_at st fork), false)
      (List.init (depth + 1) (fun i -> i + 1))
  in
  let _, _, reorged = reorged in
  if not reorged then Alcotest.fail "the copy did not reorg"

let scan_counters =
  [ "mc.scan.cert_records"; "mc.scan.wallet_coins"; "mc.scan.ancestors";
    "mc.scan.prewarm_jobs"; "mc.scan.candidates" ]

let window_ticks = 75

(* Slack on each bounded counter's per-block mean, last window against
   the first: a certificate record, a coin or a job more per block on
   average than at the start is noise of the epoch schedule and the
   workload's mix; a scan over history adds one per block per epoch
   certified, ~20 per block by the last window. *)
let slack = 1.0

let test_scans_flat () =
  let read () =
    List.map
      (fun n -> Zen_obs.Counter.value (Zen_obs.Counter.make n))
      scan_counters
  in
  Zen_obs.Registry.reset ();
  let first, last =
    Fun.protect ~finally:Zen_obs.Registry.reset @@ fun () ->
    Zen_obs.Registry.with_enabled @@ fun () ->
    let h = smoke_world () in
    (* The smoke world never reorgs by itself: each measured window
       ends with a depth-2 reorg of a copy of its chain, so the
       ancestor walk is measured early and late in the run while the
       world goes on undisturbed. *)
    let window () =
      Zen_sim.Harness.tick_n h window_ticks;
      reorg_copy h.chain ~depth:2
    in
    let at_0 = read () in
    window ();
    let at_n = read () in
    Zen_sim.Harness.tick_n h (2 * window_ticks);
    let at_3n = read () in
    window ();
    let at_4n = read () in
    let mean a b =
      List.map2 (fun x y -> float_of_int (y - x) /. float_of_int window_ticks) a b
    in
    (mean at_0 at_n, mean at_3n at_4n)
  in
  let grown =
    List.concat
      (List.map2
         (fun name (f, l) ->
           Printf.printf "%s per block: first %d ticks %.2f, last %d ticks %.2f\n"
             name window_ticks f window_ticks l;
           (* Candidates are recorded, not bounded: every pooled
              transaction is trial-applied in every block until it is
              included or evicted, and transactions the miner refuses
              are not evicted yet, so this one still grows with what
              lingers in the pool. *)
           if name <> "mc.scan.candidates" && l > f +. slack then
             [ Printf.sprintf "%s %.2f -> %.2f" name f l ]
           else [])
         scan_counters (List.combine first last))
  in
  if grown <> [] then
    Alcotest.failf "per-block scans grow (first %d ticks -> last): %s"
      window_ticks (String.concat ", " grown)

let suite =
  ( "scans",
    [
      outpoint_encode_equiv;
      wallet_selection_equiv;
      reorg_depth_equiv;
      Alcotest.test_case "reorg depth, deep" `Quick test_reorg_depth_deep;
      cert_list_equiv;
      Alcotest.test_case "replacement keeps order" `Quick
        test_replacement_keeps_order;
      Alcotest.test_case "transfer refusals pinned" `Quick
        test_transfer_error_precedence;
      Alcotest.test_case "world scans stay flat" `Quick test_scans_flat;
    ] )
