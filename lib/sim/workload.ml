open Zen_crypto
open Zen_latus
open Zendoo
module Int_map = Map.Make (Int)

let ( let* ) = Result.bind

(* ---- Profiles ---- *)

type mix = { payment : int; ft : int; bt : int; btr : int }

type profile = {
  name : string;
  users : int;
  zipf : int;
  txs_per_epoch : int;
  epochs : int;
  phases : int;
  burst : int;
  mix : mix;
  mst_depth : int;
  seed_coins : int;
  reorg_every : int;
}

let smoke =
  {
    name = "smoke";
    users = 5_000;
    zipf = 100;
    txs_per_epoch = 2_000;
    epochs = 2;
    phases = 8;
    burst = 50;
    mix = { payment = 50; ft = 20; bt = 15; btr = 15 };
    mst_depth = 12;
    seed_coins = 400;
    reorg_every = 3;
  }

let steady =
  {
    name = "steady";
    users = 100_000;
    zipf = 80;
    txs_per_epoch = 20_000;
    epochs = 2;
    phases = 8;
    burst = 0;
    mix = { payment = 60; ft = 15; bt = 15; btr = 10 };
    mst_depth = 15;
    seed_coins = 2_000;
    reorg_every = 0;
  }

let soak =
  {
    name = "soak";
    users = 1_000_000;
    zipf = 100;
    txs_per_epoch = 110_000;
    epochs = 2;
    phases = 16;
    burst = 40;
    mix = { payment = 50; ft = 15; bt = 20; btr = 15 };
    mst_depth = 18;
    seed_coins = 8_000;
    reorg_every = 7;
  }

let builtins = [ smoke; steady; soak ]

(* [run] allocates a [users]-long CDF (2^22 floats is 32 MiB),
   [phase_counts] multiplies [txs_per_epoch] by a phase weight of at
   most 300 (below 2^39 for 2^30 transactions), and [run] keeps one
   state root per epoch and walks every phase of every epoch (at most
   2^20 phases with [epochs] and [phases] both capped at 1024). *)
let max_users = 1 lsl 22
let max_txs_per_epoch = 1 lsl 30
let max_epochs = 1024

let validate p =
  let err fmt = Printf.ksprintf (fun s -> Error ("workload: " ^ s)) fmt in
  if p.users < 1 || p.users > max_users then
    err "users must be in [1, %d]" max_users
  else if p.zipf < 0 || p.zipf > 400 then err "zipf must be in [0, 400]"
  else if p.txs_per_epoch < 1 || p.txs_per_epoch > max_txs_per_epoch then
    err "txs-per-epoch must be in [1, %d]" max_txs_per_epoch
  else if p.epochs < 1 || p.epochs > max_epochs then
    err "epochs must be in [1, %d]" max_epochs
  else if p.phases < 1 || p.phases > 1024 then err "phases must be in [1, 1024]"
  else if p.burst < 0 || p.burst > 100 then err "burst must be in [0, 100]"
  else if
    (* each share is bounded first, so the sum cannot wrap to 100 *)
    List.exists
      (fun share -> share < 0 || share > 100)
      [ p.mix.payment; p.mix.ft; p.mix.bt; p.mix.btr ]
    || p.mix.payment + p.mix.ft + p.mix.bt + p.mix.btr <> 100
  then err "mix shares must be in [0, 100] and sum to 100"
  else if p.mst_depth < 4 || p.mst_depth > 28 then
    err "mst-depth must be in [4, 28]"
  else if p.seed_coins < 0 || p.seed_coins > 1 lsl (p.mst_depth - 2) then
    err "seed-coins must fit in a quarter of the MST"
  else if p.reorg_every < 0 then err "reorg-every must be >= 0"
  else Ok p

(* Compact plan syntax, [Faults]-style: a profile round-trips through
   its string form, so a run is replayable from (seed, profile string)
   alone. *)
let to_custom_string p =
  Printf.sprintf "u%d:z%d:t%d:e%d:p%d:b%d:m%d-%d-%d-%d:d%d:s%d:r%d" p.users
    p.zipf p.txs_per_epoch p.epochs p.phases p.burst p.mix.payment p.mix.ft
    p.mix.bt p.mix.btr p.mst_depth p.seed_coins p.reorg_every

let to_string p =
  match
    List.find_opt (fun b -> to_custom_string b = to_custom_string p) builtins
  with
  | Some b -> b.name
  | None -> to_custom_string p

let of_string s =
  let s = String.trim s in
  match List.find_opt (fun b -> b.name = s) builtins with
  | Some b -> Ok b
  | None -> (
    let attempt =
      try
        Scanf.sscanf s "u%d:z%d:t%d:e%d:p%d:b%d:m%d-%d-%d-%d:d%d:s%d:r%d%!"
          (fun users zipf txs_per_epoch epochs phases burst payment ft bt btr
               mst_depth seed_coins reorg_every ->
            Some
              {
                name = "custom";
                users;
                zipf;
                txs_per_epoch;
                epochs;
                phases;
                burst;
                mix = { payment; ft; bt; btr };
                mst_depth;
                seed_coins;
                reorg_every;
              })
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    in
    match attempt with
    | Some p -> validate p
    | None -> Error (Printf.sprintf "workload: cannot parse profile %S" s))

(* ---- Zipfian account sampling ----

   Accounts are ranked; account i is drawn with probability
   proportional to 1/(i+1)^s. The CDF is precomputed once per run and
   sampled by binary search, so a draw is O(log users). *)

let zipf_cdf ~users ~zipf =
  let s = float_of_int zipf /. 100. in
  let a = Array.make users 0. in
  let acc = ref 0. in
  for i = 0 to users - 1 do
    acc := !acc +. exp (-.s *. log (float_of_int (i + 1)));
    a.(i) <- !acc
  done;
  a

let zipf_draw cdf rng =
  let total = cdf.(Array.length cdf - 1) in
  let u =
    float_of_int (Rng.int rng 1_073_741_823) /. 1_073_741_823. *. total
  in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* ---- Diurnal phase shaping ----

   Per-phase tx counts follow a triangle wave peaking mid-epoch with
   amplitude [burst] percent around the mean; largest-remainder
   rounding makes the counts sum to exactly [txs_per_epoch]. *)

let phase_wave ~phases ~burst p =
  let tri =
    if phases = 1 then 50
    else begin
      let pos = 200 * p / (phases - 1) in
      if pos <= 100 then pos else 200 - pos
    end
  in
  200 - burst + (2 * burst * tri / 100)

let phase_counts p =
  let w = Array.init p.phases (phase_wave ~phases:p.phases ~burst:p.burst) in
  let total = Array.fold_left ( + ) 0 w in
  let counts = Array.map (fun wp -> p.txs_per_epoch * wp / total) w in
  let short = p.txs_per_epoch - Array.fold_left ( + ) 0 counts in
  for i = 0 to short - 1 do
    counts.(i mod p.phases) <- counts.(i mod p.phases) + 1
  done;
  counts

(* ---- The engine ---- *)

type tally = {
  t_payment : int;
  t_ft : int;
  t_bt : int;
  t_btr : int;
  t_skipped : int;
  t_applied : int;
}

let tally0 =
  { t_payment = 0; t_ft = 0; t_bt = 0; t_btr = 0; t_skipped = 0; t_applied = 0 }

(* The engine's whole state is this persistent record, so a phase
   checkpoint is the record itself — O(1) to retain, O(1) to restore —
   and rollback needs no replay bookkeeping. The tally lives here too:
   restoring a checkpoint rewinds the counters along with the state.

   - [sc]    the committed sidechain state (updated once per phase);
   - [occ]   staged slot occupancy, mirroring what the MST will hold
             once the phase commits (generation pre-validates against
             it, so committed batches never fail);
   - [coins] account -> live coins, newest first;
   - [mint]  monotone counter salting freshly minted FT nonces. *)
type world = {
  sc : Sc_state.t;
  occ : Utxo.t Int_map.t;
  coins : Utxo.t list Int_map.t;
  mint : int;
  tally : tally;
}

type stats = {
  profile : profile;
  applied : int;
  skipped : int;
  payments : int;
  fts : int;
  bts : int;
  btrs : int;
  rollbacks : int;
  rolled_back_txs : int;
  replayed_phases : int;
  epoch_roots : Fp.t list; (* oldest first *)
  digest : Hash.t;
  wall_s : float; (* wall clock: NOT deterministic, keep out of logs *)
  peak_words : int; (* Gc top_heap_words: NOT deterministic either *)
}

let account_addr p a = Hash.tagged "workload.addr" [ p.name; string_of_int a ]
let mc_receiver a = Hash.tagged "workload.mc" [ string_of_int a ]
let pos_of p u = Utxo.position ~mst_depth:p.mst_depth u

let push_coin coins a u =
  Int_map.update a
    (function None -> Some [ u ] | Some l -> Some (u :: l))
    coins

let pop_coin coins a =
  match Int_map.find_opt a coins with
  | None | Some [] -> None
  | Some [ u ] -> Some (u, Int_map.remove a coins)
  | Some (u :: rest) -> Some (u, Int_map.add a rest coins)

(* Find a free slot for a fresh UTXO by retrying the nonce derivation:
   positions hash the nonce, so salting the index re-rolls the slot.
   Returns None after [attempts] misses (the caller skips the tx —
   rare below ~50% occupancy). Salt ranges of distinct callers must
   not overlap, or two live UTXOs could share a nonce. *)
let place p occ ~taken ~source ~salt ~addr ~amount ~attempts =
  let rec go k =
    if k >= attempts then None
    else begin
      let nonce = Utxo.derive_nonce ~source ~index:(salt + k) in
      let u = Utxo.make ~addr ~amount ~nonce in
      let pos = pos_of p u in
      if Int_map.mem pos occ || List.mem pos taken then go (k + 1)
      else Some (u, pos)
    end
  in
  go 0

let mint_seed p seed = Hash.tagged "workload.mint" [ p.name; string_of_int seed ]

(* ---- run ---- *)

let run ?(batched = true) ?(snapshots = true) ?log ~seed profile =
  if not batched then
    invalid_arg "Workload.run: ~batched:false (per-key commits) is gone";
  if not snapshots then
    invalid_arg "Workload.run: ~snapshots:false (replay rollback) is gone";
  let* p = validate profile in
  let log s = match log with None -> () | Some f -> f s in
  let logf fmt = Printf.ksprintf log fmt in
  let t0 = Unix.gettimeofday () in
  let params = { Params.default with mst_depth = p.mst_depth } in
  let* () =
    Result.map_error (fun e -> "workload: " ^ e) (Params.validate params)
  in
  let cdf = zipf_cdf ~users:p.users ~zipf:p.zipf in
  let root_rng = Rng.create seed in
  let counts = phase_counts p in
  let rollbacks = ref 0 in
  let rolled_back_txs = ref 0 in
  let replayed_phases = ref 0 in
  let mseed = mint_seed p seed in
  (* Initial population, minted to the zipf-hottest accounts so drawn
     senders start funded. *)
  let seed_world () =
    let rec go i w =
      if i >= p.seed_coins then Ok w
      else begin
        let a = i mod p.users in
        let amount = Amount.of_int_exn (10_000 + (i mod 7 * 1_000)) in
        match
          place p w.occ ~taken:[] ~source:mseed ~salt:(w.mint * 8)
            ~addr:(account_addr p a) ~amount ~attempts:8
        with
        | None -> go (i + 1) { w with mint = w.mint + 1 }
        | Some (u, pos) ->
          go (i + 1)
            {
              w with
              occ = Int_map.add pos u w.occ;
              coins = push_coin w.coins a u;
              mint = w.mint + 1;
            }
      end
    in
    let* w0 =
      go 0
        {
          sc = Sc_state.create params;
          occ = Int_map.empty;
          coins = Int_map.empty;
          mint = 0;
          tally = tally0;
        }
    in
    let seeded =
      List.rev (Int_map.fold (fun _ u acc -> Sc_tx.Insert u :: acc) w0.occ [])
    in
    let* sc = Sc_tx.apply_steps w0.sc seeded in
    Ok { w0 with sc }
  in
  (* One generated transaction: new world plus the steps to append.
     Decisions read only [occ]/[coins]/[mint] — never the committed
     [sc]. *)
  let gen rng w =
    let attempts = 4 in
    let kind = Rng.int rng 100 in
    let payment_k = p.mix.payment
    and ft_k = p.mix.payment + p.mix.ft
    and bt_k = p.mix.payment + p.mix.ft + p.mix.bt in
    let a = zipf_draw cdf rng in
    let tl = w.tally in
    let skip w = ({ w with tally = { tl with t_skipped = tl.t_skipped + 1 } }, [])
    in
    let mint_ft w a =
      (* An FT from the mainchain mints a fresh coin for [a]; also the
         fallback when a drawn sender holds no coin. *)
      let amount = Amount.of_int_exn (1_000 + Rng.int rng 9_000) in
      match
        place p w.occ ~taken:[] ~source:mseed ~salt:(w.mint * 8)
          ~addr:(account_addr p a) ~amount ~attempts
      with
      | None -> skip { w with mint = w.mint + 1 }
      | Some (u, pos) ->
        ( {
            w with
            occ = Int_map.add pos u w.occ;
            coins = push_coin w.coins a u;
            mint = w.mint + 1;
            tally =
              { tl with t_ft = tl.t_ft + 1; t_applied = tl.t_applied + 1 };
          },
          [ Sc_tx.Insert u ] )
    in
    if kind < payment_k then begin
      match pop_coin w.coins a with
      | None -> mint_ft w a
      | Some (coin, coins) -> (
        let b = zipf_draw cdf rng in
        let occ1 = Int_map.remove (pos_of p coin) w.occ in
        let total = Amount.to_int coin.Utxo.amount in
        let full = total < 2 || Rng.int rng 100 < 30 in
        let amt = if full then total else max 1 (total / 2) in
        match
          place p occ1 ~taken:[] ~source:coin.Utxo.nonce ~salt:0
            ~addr:(account_addr p b) ~amount:(Amount.of_int_exn amt) ~attempts
        with
        | None -> skip w
        | Some (out, opos) ->
          if full then
            ( {
                w with
                occ = Int_map.add opos out occ1;
                coins = push_coin coins b out;
                tally =
                  {
                    tl with
                    t_payment = tl.t_payment + 1;
                    t_applied = tl.t_applied + 1;
                  };
              },
              [ Sc_tx.Remove coin; Sc_tx.Insert out ] )
          else begin
            match
              place p occ1 ~taken:[ opos ] ~source:coin.Utxo.nonce ~salt:16
                ~addr:(account_addr p a)
                ~amount:(Amount.of_int_exn (total - amt))
                ~attempts
            with
            | None -> skip w
            | Some (chg, cpos) ->
              ( {
                  w with
                  occ = Int_map.add cpos chg (Int_map.add opos out occ1);
                  coins = push_coin (push_coin coins b out) a chg;
                  tally =
                    {
                      tl with
                      t_payment = tl.t_payment + 1;
                      t_applied = tl.t_applied + 1;
                    };
                },
                [ Sc_tx.Remove coin; Sc_tx.Insert out; Sc_tx.Insert chg ] )
          end)
    end
    else if kind < ft_k then mint_ft w a
    else begin
      (* BT and BTR both withdraw one coin to the mainchain; a BTR is
         MC-initiated but identical at the state layer. *)
      match pop_coin w.coins a with
      | None -> mint_ft w a
      | Some (coin, coins) ->
        let bt =
          Backward_transfer.make ~receiver_addr:(mc_receiver a)
            ~amount:coin.Utxo.amount
        in
        let tally =
          if kind < bt_k then
            { tl with t_bt = tl.t_bt + 1; t_applied = tl.t_applied + 1 }
          else { tl with t_btr = tl.t_btr + 1; t_applied = tl.t_applied + 1 }
        in
        ( { w with occ = Int_map.remove (pos_of p coin) w.occ; coins; tally },
          [ Sc_tx.Remove coin; Sc_tx.Append_bt bt ] )
    end
  in
  (* One phase: generate its txs with the phase's own derived stream
     (replayable in isolation — a rollback re-mines the identical
     steps), then commit them as one batch. *)
  let run_phase ~epoch ~phase w =
    let n = counts.(phase) in
    let rng = Rng.derive root_rng ((epoch * 8192) + phase) in
    let rec go i w steps_rev =
      if i >= n then (w, List.rev steps_rev)
      else begin
        let w, steps = gen rng w in
        go (i + 1) w (List.rev_append steps steps_rev)
      end
    in
    let w1, steps = go 0 w [] in
    let* sc = Sc_tx.apply_steps w.sc steps in
    if Mst.occupied sc.Sc_state.mst <> Int_map.cardinal w1.occ then
      Error "workload: staged occupancy diverged from the MST"
    else Ok { w1 with sc }
  in
  let* w0 = seed_world () in
  let epoch_roots = ref [] in
  let rec epochs_loop epoch w =
    if epoch >= p.epochs then Ok w
    else begin
      (* cps.(q) = world at the start of phase q of this epoch. *)
      let cps = Array.make (p.phases + 1) w in
      let rec phases_loop phase w =
        if phase >= p.phases then Ok w
        else begin
          cps.(phase) <- w;
          let* w' = run_phase ~epoch ~phase w in
          logf "workload epoch %d phase %d: %d/%d txs applied" epoch phase
            (w'.tally.t_applied - w.tally.t_applied)
            counts.(phase);
          (* Deterministic reorg schedule: every [reorg_every]-th phase
             boundary rolls back [depth] phases and re-mines them. *)
          let g = (epoch * p.phases) + phase in
          if not (p.reorg_every > 0 && g > 0 && g mod p.reorg_every = 0) then
            phases_loop (phase + 1) w'
          else begin
            let rrng = Rng.derive root_rng (1_000_000 + g) in
            let depth = 1 + Rng.int rrng (min 3 (phase + 1)) in
            let q = phase + 1 - depth in
            let undone = ref 0 in
            for i = q to phase do
              undone := !undone + counts.(i)
            done;
            incr rollbacks;
            rolled_back_txs := !rolled_back_txs + !undone;
            (* Roll back to the start of phase [q] — its checkpoint is a
               pinned persistent version, O(1) — and re-mine the
               rolled-back phases: same per-phase streams, same
               pre-states, hence the same transactions. *)
            let rec remine i w =
              if i > phase then Ok w
              else begin
                incr replayed_phases;
                let* w = run_phase ~epoch ~phase:i w in
                remine (i + 1) w
              end
            in
            let* w'' = remine q cps.(q) in
            let restored =
              Fp.equal (Sc_state.hash w''.sc) (Sc_state.hash w'.sc)
            in
            logf
              "workload epoch %d phase %d: reorg depth %d rolled back %d \
               txs, re-mined, root restored %b"
              epoch phase depth !undone restored;
            if not restored then Error "workload: re-mined state diverged"
            else phases_loop (phase + 1) w''
          end
        end
      in
      let* w = phases_loop 0 w in
      let root = Sc_state.hash w.sc in
      epoch_roots := root :: !epoch_roots;
      logf "workload epoch %d done: %d coins live, %d bts, root %s" epoch
        (Mst.occupied w.sc.Sc_state.mst)
        (Sc_state.bt_count w.sc) (Fp.to_string root);
      (* Withdrawal-epoch boundary: the BT list resets and the MST
         delta snapshots — the engine's account coins carry over. *)
      epochs_loop (epoch + 1) { w with sc = Sc_state.reset_epoch w.sc }
    end
  in
  let* w = epochs_loop 0 w0 in
  let roots = List.rev !epoch_roots in
  let tl = w.tally in
  let digest =
    Hash.tagged "zen.workload"
      (to_custom_string p :: string_of_int seed :: string_of_int tl.t_applied
      :: string_of_int tl.t_skipped
      :: List.map Fp.to_string roots)
  in
  logf
    "workload %s: %d applied (%d pay, %d ft, %d bt, %d btr), %d skipped, %d \
     rollbacks (%d txs rolled back), digest %s"
    p.name tl.t_applied tl.t_payment tl.t_ft tl.t_bt tl.t_btr tl.t_skipped
    !rollbacks !rolled_back_txs (Hash.to_hex digest);
  Ok
    {
      profile = p;
      applied = tl.t_applied;
      skipped = tl.t_skipped;
      payments = tl.t_payment;
      fts = tl.t_ft;
      bts = tl.t_bt;
      btrs = tl.t_btr;
      rollbacks = !rollbacks;
      rolled_back_txs = !rolled_back_txs;
      replayed_phases = !replayed_phases;
      epoch_roots = roots;
      digest;
      wall_s = Unix.gettimeofday () -. t0;
      peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
    }
