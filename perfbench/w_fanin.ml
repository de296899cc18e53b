(* fanin: mainchain certificate fan-in at 64 sidechains (paper §4.1.2).

   64 sidechains registered with the Latus wcert_vk and
   [Node.wcert_schema], on a 1-domain pool. Every epoch each sidechain
   submits one certificate built with [Circuits.prove_wcert_binding];
   every 4th also submits one whose quality contradicts its proof and
   must be refused. The certificate block is mined with an aggregate
   (prewarm + [Miner.build_block ~aggregate:true] + [Chain.add_block])
   and then validated cold, as a follower would: clear the verifier
   cache and apply the block to its parent state, [validations] times.
   The operation is one cold validation; mining is the auxiliary
   metric. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo
module M = Measure

let sidechains = 64
let epoch_len = 4
let submit_len = 4
let start_block = 7
let validations = 8
let setup_reps = 3
(* The highest percentile leaving at least ten validations beyond it in
   a 20-second run (~150-180 validations). *)
let tail_pct = 90.

(* Blocks whose decisions are pinned for the default and held-out
   seeds; every run mines at least this many certificate blocks. *)
let pin_blocks = 3
let pool = Pool.sequential
let miner_addr = Hash.of_string "perfbench.fanin.miner"

type world = {
  family : Circuits.family;
  configs : Sidechain_config.t list;
  mutable chain : Chain.t;
  mutable time : int;
  mutable epoch : int;
}

let mine w candidates =
  w.time <- w.time + 1;
  match
    Miner.build_block ~pool ~aggregate:true w.chain ~time:w.time ~miner_addr
      ~candidates
  with
  | Error e -> failwith ("fanin mine: " ^ e)
  | Ok (b, _) -> (
    match Chain.add_block ~pool w.chain b with
    | Error e -> failwith ("fanin add_block: " ^ e)
    | Ok (c, _) -> w.chain <- c)

let setup () =
  Verifier.Cache.set_enabled true;
  Verifier.Cache.clear ();
  let family = Circuits.make Params.default in
  let wcert_vk = (Circuits.wcert_keys family).Circuits.vk in
  let mc_params = { Chain_state.default_params with pow = Pow.trivial } in
  let w =
    { family; configs = []; chain = Chain.create ~params:mc_params ~time:0 (); time = 0; epoch = 0 }
  in
  for _ = 1 to start_block - 2 do
    mine w []
  done;
  let configs =
    List.init sidechains (fun i ->
        let ledger_id =
          Sidechain_config.derive_ledger_id ~creator:miner_addr ~nonce:(i + 1)
        in
        match
          Sidechain_config.make ~ledger_id ~start_block ~epoch_len ~submit_len
            ~wcert_vk ~wcert_proofdata:Node.wcert_schema ()
        with
        | Ok c -> c
        | Error e -> failwith ("fanin config: " ^ e))
  in
  mine w (List.map (fun c -> Tx.Sc_create c) configs);
  ignore (Zen_snark.Aggregate.shared ());
  { w with configs }

(* The epoch's candidates: one valid certificate per sidechain with
   seeded proofdata (H(SB_last), MST root, mst_delta) and states, plus
   a quality-2 copy of every 4th that its proof contradicts. *)
let certificates w ~seed =
  let sched = Epoch.of_config (List.hd w.configs) in
  let st = Chain.tip_state w.chain in
  let resolve h =
    if h < 0 then Hash.zero else Option.get (Chain_state.block_hash_at st h)
  in
  let e = w.epoch in
  let end_prev_epoch = resolve (Epoch.last_height sched ~epoch:(e - 1)) in
  let end_epoch = resolve (Epoch.last_height sched ~epoch:e) in
  List.concat
    (List.mapi
       (fun i (c : Sidechain_config.t) ->
         let rng = Rng.derive (Rng.create seed) ((e * 1024) + i) in
         let proofdata =
           Proofdata.
             [
               Digest (Hash.of_string (Rng.bytes rng 32));
               Field (Fp.of_int (Rng.int rng 1_000_000_007));
               Blob (Rng.bytes rng 512);
             ]
         in
         let s_prev = Fp.of_int (Rng.int rng 1_000_000_007)
         and s_last = Fp.of_int (Rng.int rng 1_000_000_007) in
         let proof =
           match
             Circuits.prove_wcert_binding w.family ~quality:1
               ~bt_root:(Backward_transfer.list_root []) ~end_prev_epoch
               ~end_epoch ~proofdata ~s_prev ~s_last
           with
           | Ok p -> p
           | Error err -> failwith ("fanin prove: " ^ err)
         in
         let cert quality =
           Tx.Certificate
             (Withdrawal_certificate.make ~ledger_id:c.ledger_id ~epoch_id:e
                ~quality ~bt_list:[] ~proofdata ~proof)
         in
         if i mod 4 = 0 then [ (cert 1, true); (cert 2, false) ]
         else [ (cert 1, true) ])
       w.configs)

type tally = {
  mutable blocks : int;
  mutable mine_s : float list;
  mutable validate_s : float list;
  mutable decisions : int;
  mutable mismatches : int;
  mutable verifies : int list;  (** cold SNARK verifies per validation *)
  val_counts : (string, int) Hashtbl.t;
      (** library counter increments inside validations (traced only) *)
  mutable digest : Hash.t;
  mutable pinned : bool;
  mutable heap_mw : float;  (** live heap after [pin_blocks] blocks *)
}

let val_counters =
  [ "snark.verify"; "crypto.poseidon.permutations"; "crypto.sha256.bytes" ]

(* Mines the next epoch's certificate block, then validates it cold. *)
let epoch_round w ~seed t =
  let sched = Epoch.of_config (List.hd w.configs) in
  while Chain.height w.chain < Epoch.last_height sched ~epoch:w.epoch do
    mine w []
  done;
  let cands = certificates w ~seed in
  let candidates = List.map fst cands in
  let parent = Chain.tip_state w.chain in
  w.time <- w.time + 1;
  let (b, skipped, chain), mine_s =
    M.timed_ref @@ fun () ->
    M.call "chain_state.prewarm" (fun () ->
        Chain_state.prewarm_verifier ~pool parent candidates);
    match
      M.call "miner.build_block" (fun () ->
          Miner.build_block ~pool ~aggregate:true w.chain ~time:w.time
            ~miner_addr ~candidates)
    with
    | Error e -> failwith ("fanin build_block: " ^ e)
    | Ok (b, skipped) -> (
      match M.call "chain.add_block" (fun () -> Chain.add_block ~pool w.chain b) with
      | Error e -> failwith ("fanin add_block: " ^ e)
      | Ok (c, _) -> (b, skipped, c))
  in
  w.chain <- chain;
  t.mine_s <- mine_s :: t.mine_s;
  (* Expected: every valid certificate included, every contradicting
     one refused. *)
  let skipped_ids = Hash.Set.of_list (List.map Tx.txid skipped) in
  List.iter
    (fun (tx, valid) ->
      t.decisions <- t.decisions + 1;
      if valid = Hash.Set.mem (Tx.txid tx) skipped_ids then
        t.mismatches <- t.mismatches + 1)
    cands;
  if Option.is_none b.Block.aggregate then t.mismatches <- t.mismatches + 1;
  let results =
    List.init validations (fun _ ->
        Verifier.Cache.clear ();
        let before = List.map M.counter val_counters in
        let r, dt =
          M.timed_ref (fun () ->
              M.op (fun () ->
                  M.call "chain_state.apply_block" (fun () ->
                      Chain_state.apply_block ~pool parent b)))
        in
        t.validate_s <- dt :: t.validate_s;
        t.verifies <- (Verifier.Cache.stats ()).misses :: t.verifies;
        List.iter2
          (fun name b0 ->
            let sum = Option.value (Hashtbl.find_opt t.val_counts name) ~default:0 in
            Hashtbl.replace t.val_counts name (sum + M.counter name - b0))
          val_counters before;
        t.decisions <- t.decisions + 1;
        match r with
        | Ok _ -> "ok"
        | Error e ->
          t.mismatches <- t.mismatches + 1;
          e)
  in
  t.digest <-
    Hash.tagged "perfbench.fanin"
      (Hash.to_raw t.digest
      :: Hash.to_raw b.header.tx_root
      :: List.sort String.compare (List.map (fun tx -> Hash.to_raw (Tx.txid tx)) skipped)
      @ results);
  t.blocks <- t.blocks + 1;
  w.epoch <- w.epoch + 1;
  if t.blocks = pin_blocks then begin
    t.pinned <- M.check_pin ~workload:"fanin" ~seed "decisions" (Hash.to_hex t.digest);
    t.heap_mw <- M.live_heap_mw ()
  end

let run ~seed ~seconds ~trace =
  let w, setup_s = M.set_up ~reps:setup_reps (fun () -> M.step setup) in
  let t =
    {
      blocks = 0;
      mine_s = [];
      validate_s = [];
      decisions = 0;
      mismatches = 0;
      verifies = [];
      val_counts = Hashtbl.create 3;
      digest = Hash.zero;
      pinned = true;
      heap_mw = 0.;
    }
  in
  let until deadline =
    while M.now () < deadline || t.blocks < pin_blocks do
      epoch_round w ~seed t
    done
  in
  (* SNARK verifies per cold validation stay constant (§4.1.2): the
     blocks carry no withdrawal proofs, so each validation verifies the
     one aggregate proof and nothing else, whatever the sidechain count. *)
  let one_verify () = t.verifies <> [] && List.for_all (Int.equal 1) t.verifies in
  let correct () = t.mismatches = 0 && t.pinned && one_verify () in
  let start = M.now () in
  if not trace then begin
    until (start +. seconds);
    let n = List.length t.validate_s in
    Printf.printf
      "fanin: %d certificate blocks, %d cold validations (%d SNARK verifies \
       each), %d decisions, %d mismatches; tail = p%.0f of %d validations (%d beyond)\n"
      t.blocks n
      (match t.verifies with v :: _ -> v | [] -> 0)
      t.decisions t.mismatches tail_pct n (M.beyond n tail_pct);
    {
      M.correct = correct ();
      attempted = t.decisions;
      failed = t.mismatches;
      values =
        [
          ("setup_s", setup_s);
          ("live_heap_mw", t.heap_mw);
          ("op_p50_ms", 1000. *. M.median t.validate_s);
          ("op_tail_ms", 1000. *. M.percentile t.validate_s tail_pct);
          ( "rate_per_s",
            float_of_int (sidechains * n) /. List.fold_left ( +. ) 0. t.validate_s );
          ("aux_p50_ms", 1000. *. M.median t.mine_s);
        ];
    }
  end
  else begin
    until (start +. (seconds /. 2.));
    let untraced_p50 = 1000. *. M.median t.validate_s in
    let b0 = t.blocks in
    t.validate_s <- [];
    M.traced_window (fun () -> until (M.now () +. (seconds /. 2.)));
    let blocks = t.blocks - b0 in
    let traced_p50 = 1000. *. M.median t.validate_s in
    let b = M.breakdown () in
    M.print_decomposition ~workload:"fanin" ~unit_name:"cold validation"
      ~ops_label:"validations" b ~untraced_p50 ~traced_p50;
    Printf.printf "  mining per block: prewarm %.3f ms, build_block %.3f ms, add_block %.3f ms\n"
      (M.call_ms "chain_state.prewarm" ~ops:blocks)
      (M.call_ms "miner.build_block" ~ops:blocks)
      (M.call_ms "chain.add_block" ~ops:blocks);
    (* Counters also see the mining; per-validation counts come from the
       increments recorded inside the validations. *)
    let ops = b.ops in
    let per_op name =
      M.ratio (Option.value (Hashtbl.find_opt t.val_counts name) ~default:0) ops
    in
    {
      M.correct = correct ();
      attempted = t.decisions;
      failed = t.mismatches;
      values =
        [
          ("residual_ms", M.residual_ms b);
          ("sc_commitment.build_self_ms", M.row_self_ms b "core.sc_commitment.build");
          ("merkle.of_leaves_self_ms", M.row_self_ms b "merkle.of_leaves");
          ("poseidon.perms", per_op "crypto.poseidon.permutations");
          ("sha256.kib", per_op "crypto.sha256.bytes" /. 1024.);
          ("backend.verifies", per_op "snark.verify");
          ("verifier.verify_ms", M.hist_mean_ms "mc.verify.seconds");
          ("chain_state.prewarm_ms", M.call_ms "chain_state.prewarm" ~ops:blocks);
          ("miner.build_block_ms", M.call_ms "miner.build_block" ~ops:blocks);
          ("chain.add_block_ms", M.call_ms "chain.add_block" ~ops:blocks);
          ("chain_state.apply_block_ms", M.call_ms "chain_state.apply_block" ~ops);
          ("aggregate.build_ms", M.hist_mean_ms "snark.aggregate.build.seconds");
          ("decision_mismatch", float_of_int t.mismatches);
          ( "trace.overhead_ratio",
            if untraced_p50 = 0. then 0. else traced_p50 /. untraced_p50 );
        ]
        @ M.crypto_probes ();
    }
  end
