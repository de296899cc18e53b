(* world: the closed-loop protocol round, mainchain and sidechain work
   interleaved as in the paper's Figs. 1 and 3.

   Three Latus sidechains share one circuit family (epoch_len 6,
   submit_len 5) on a 1-domain pool, with certificate aggregation, the
   verifier cache and pipelined proving on. One round: mine an MC
   block, inject 0-3 seeded transactions per sidechain, then forge,
   pump and certify each sidechain; every [reorg_every]-th round also
   forces a depth-2 reorg. The operation is one round. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo
module H = Zen_sim.Harness
module M = Measure

(* One domain: on a 2-vCPU box with steal time, 2-domain round p50s
   spread 0.31 across five seeds (0.04 on one domain), as a stolen vCPU
   stalled the background proofs a round then waits for. *)
let domains = 1
let sidechains = 3
let epoch_len = 6
let submit_len = 5
let reorg_every = 15
let wallets_per_sc = 3

(* The world's state is pinned after this round; every run reaches it. *)
let pin_round = 36
let setup_reps = 3

(* The highest percentile leaving at least ten rounds beyond it in a
   20-second run (~40-50 rounds). *)
let tail_pct = 75.

type world = { h : H.t; scs : (H.sidechain * Sc_wallet.t array) list }

let addr w = List.hd (Sc_wallet.addresses w)

(* The set-up is timed in steps (see [Measure.step]). *)
let setup ~seed =
  Verifier.Cache.set_enabled true;
  Verifier.Cache.clear ();
  let pool = Pool.get ~domains in
  let family = M.step (fun () -> Circuits.make Params.default) in
  let h =
    M.step (fun () ->
        let h =
          H.create ~pool ~aggregate:true ~pipeline:true ~seed:"perfbench.world" ()
        in
        H.fund h ~blocks:5;
        h)
  in
  let scs =
    List.init sidechains (fun i ->
        M.step @@ fun () ->
        let name = Printf.sprintf "sc%d" i in
        match
          H.add_latus h ~name ~family ~epoch_len ~submit_len
            ~activation_delay:1 ()
        with
        | Error e -> failwith ("world setup: " ^ e)
        | Ok sc ->
          let wallets =
            Array.init wallets_per_sc (fun j ->
                let w =
                  Sc_wallet.create
                    ~seed:(Printf.sprintf "perfbench.%d.%s.%d" seed name j)
                in
                ignore (Sc_wallet.fresh_address w);
                w)
          in
          (sc, wallets))
  in
  (* Seed the world: one FT per wallet, each followed by a harness tick
     so the nodes keep forging and certifying while funds arrive. *)
  List.iter
    (fun ((sc : H.sidechain), wallets) ->
      Array.iteri
        (fun j wallet ->
          M.step @@ fun () ->
          let a = addr wallet in
          match
            H.forward_transfer h sc ~receiver:a ~payback:a
              ~amount:(Amount.of_int_exn (500_000 + (100_000 * j)))
          with
          | Ok () -> H.tick h
          | Error e -> failwith ("world setup: " ^ e))
        wallets)
    scs;
  M.step (fun () -> H.tick h);
  { h; scs }

type tally = {
  mutable rounds : int;
  mutable round_s : float list;
  mutable tx_rate : float list;  (** transactions submitted per round second *)
  mutable mine_s : float list;
  mutable certify_s : float list;
  mutable txs : int;  (** transactions submitted *)
  mutable skipped : int;  (** slots left empty: no coin and the FT taken *)
  mutable refused : int;  (** refused by [Node.submit_tx] *)
  mutable build_errors : int;  (** FT the harness wallet could not fund *)
  mutable lingering : int;  (** never included: in a node's mempool at the end *)
  mutable certs : int;
  mutable errors : int;  (** forge or certificate errors *)
  mutable heap_mw : float;  (** live heap at [pin_round] *)
}

let failures t = t.refused + t.build_errors + t.lingering + t.errors

let tally () =
  {
    rounds = 0;
    round_s = [];
    tx_rate = [];
    mine_s = [];
    certify_s = [];
    txs = 0;
    skipped = 0;
    refused = 0;
    build_errors = 0;
    lingering = 0;
    heap_mw = 0.;
    certs = 0;
    errors = 0;
  }

(* A payment's output slots derive from its inputs, not its amount: one
   that lands on an occupied slot, or on a slot another transaction of
   this round claimed, would be refused, so the generator withdraws
   instead. *)
let claim_slots st claimed = function
  | Sc_tx.Payment p ->
    let depth = Mst.depth st.Sc_state.mst in
    let slots = List.map (Utxo.position ~mst_depth:depth) p.outputs in
    let free pos =
      Option.is_none (Mst.get st.Sc_state.mst pos) && not (Hashtbl.mem claimed pos)
    in
    List.for_all free slots
    && begin
         List.iter (fun pos -> Hashtbl.replace claimed pos ()) slots;
         true
       end
  | _ -> true

(* This sidechain's share of the round: [kinds] lists its transactions,
   one per wallet so no two spend the same coin. A payment goes to the
   next wallet; a BT withdraws the wallet's smallest coin; an FT comes
   from the harness wallet (one per round, so MC coin selection never
   conflicts). A payment that cannot be built becomes a BT, a BT without
   a coin becomes the round's FT if it is still free. *)
let inject w rng ~ft_used (sc : H.sidechain) wallets kinds t =
  let h = w.h in
  let st = Node.next_block_state sc.node in
  let claimed = Hashtbl.create 8 in
  let ft wallet =
    if !ft_used then t.skipped <- t.skipped + 1
    else begin
      ft_used := true;
      let amount = Amount.of_int_exn (100_000 + Rng.int rng 900_000) in
      match
        M.call "wallet.build" (fun () ->
            Wallet.build_forward_transfer h.mc_wallet (Chain.tip_state h.chain)
              ~ledger_id:sc.ledger_id
              ~receiver_metadata:
                (Sc_tx.ft_metadata ~receiver:(addr wallet)
                   ~payback:(addr wallet))
              ~amount ~fee:(Amount.of_int_exn 1000))
      with
      | Error _ -> t.build_errors <- t.build_errors + 1
      | Ok tx ->
        t.txs <- t.txs + 1;
        M.call "node.submit" (fun () -> H.submit h tx)
    end
  in
  let submit tx =
    t.txs <- t.txs + 1;
    match M.call "node.submit" (fun () -> Node.submit_tx sc.node tx) with
    | Ok () -> ()
    | Error _ -> t.refused <- t.refused + 1
  in
  let bt wallet =
    match List.rev (Sc_wallet.utxos wallet st) with
    | [] -> ft wallet
    | smallest :: _ -> (
      let receiver =
        Hash.tagged "perfbench.mc" [ string_of_int (Rng.int rng 1000) ]
      in
      match
        M.call "wallet.build" (fun () ->
            Sc_wallet.build_backward_transfer wallet st ~utxo:smallest
              ~mc_receiver:receiver)
      with
      | Ok tx -> submit tx
      | Error _ -> ft wallet)
  in
  let payment j wallet =
    let bal = Amount.to_int (Sc_wallet.balance wallet st) in
    if bal < 2 then bt wallet
    else begin
      let amount = 1 + Rng.int rng (min 50_000 (bal / 2)) in
      match
        M.call "wallet.build" (fun () ->
            Sc_wallet.build_payment wallet st
              ~to_:(addr wallets.((j + 1) mod Array.length wallets))
              ~amount:(Amount.of_int_exn amount))
      with
      | Ok tx when claim_slots st claimed tx -> submit tx
      | Ok _ | Error _ -> bt wallet
    end
  in
  List.iteri
    (fun j kind ->
      let wallet = wallets.(j) in
      match kind with
      | `Ft -> ft wallet
      | `Payment -> payment j wallet
      | `Bt -> bt wallet)
    kinds

(* Per-sidechain transaction counts of a round: a seeded permutation of
   a partition of 5 into parts of 0-3, so every round carries the same
   load, spread differently. *)
let partitions = [| [| 0; 2; 3 |]; [| 1; 1; 3 |]; [| 1; 2; 2 |] |]

let round w ~rng_root t =
  let h = w.h in
  let round_no = t.rounds + 1 in
  let txs0 = t.txs in
  let rng = Rng.derive rng_root round_no in
  let (), dt =
    M.timed_ref @@ fun () ->
    M.op @@ fun () ->
    let (), mine_s = M.timed (fun () -> M.call "harness.mine" (fun () -> H.mine h)) in
    t.mine_s <- (mine_s *. !M.speed) :: t.mine_s;
    let counts = Array.copy partitions.(Rng.int rng (Array.length partitions)) in
    Rng.shuffle rng counts;
    (* Every round carries the same mix in a seeded order: one FT, which
       mints a coin, one BT, which burns one, and three payments. *)
    let kinds = [| `Ft; `Bt; `Payment; `Payment; `Payment |] in
    Rng.shuffle rng kinds;
    let slot = ref 0 in
    let ft_used = ref false in
    (* Right after a reorg the nodes have not yet rolled back, so a wallet
       reading their state would double-spend what the rollback returns
       to the mempool: wallets sit that round out. *)
    let resyncing = round_no > reorg_every && round_no mod reorg_every = 1 in
    if not resyncing then
      List.iteri
        (fun i (sc, wallets) ->
          let kinds =
            List.init counts.(i) (fun _ ->
                incr slot;
                kinds.(!slot - 1))
          in
          inject w rng ~ft_used sc wallets kinds t)
        w.scs;
    List.iter
      (fun ((sc : H.sidechain), _) ->
        (match
           M.call "node.forge" (fun () -> Node.forge sc.node ~mc:h.chain ~slot:h.time ())
         with
        | Ok _ -> ()
        | Error _ -> t.errors <- t.errors + 1);
        M.call "node.pump" (fun () -> Node.pump sc.node);
        match
          M.timed (fun () ->
              M.call "node.certify" (fun () ->
                  Node.build_certificate sc.node ~mc:h.chain))
        with
        | Ok (Some tx), s ->
          t.certs <- t.certs + 1;
          t.certify_s <- (s *. !M.speed) :: t.certify_s;
          M.call "node.submit" (fun () -> H.submit h tx)
        | Ok None, _ -> ()
        | Error _, _ -> t.errors <- t.errors + 1)
      w.scs;
    if round_no mod reorg_every = 0 then
      M.call "harness.reorg" (fun () -> H.force_reorg h ~depth:2)
  in
  t.rounds <- round_no;
  t.round_s <- dt :: t.round_s;
  t.tx_rate <- (float_of_int (t.txs - txs0) /. dt) :: t.tx_rate

let digest w =
  Hash.to_hex
    (Hash.tagged "perfbench.world"
       (Hash.to_hex (Chain.tip_hash w.h.chain)
       :: List.map
            (fun ((sc : H.sidechain), _) ->
              Fp.to_string (Sc_state.hash (Node.tip_state sc.node)))
            w.scs))

(* Every epoch whose submission window has closed is certified, and no
   sidechain has ceased. *)
let all_certified w =
  let st = Chain.tip_state w.h.chain in
  List.for_all
    (fun ((sc : H.sidechain), _) ->
      let sched = Epoch.of_config sc.config in
      match Sc_ledger.find st.scs sc.ledger_id with
      | None -> false
      | Some s ->
        let rec ok e =
          let _, wend = Epoch.submission_window sched ~epoch:e in
          if wend >= st.height then true
          else Option.is_some (Sc_ledger.cert_for_epoch s ~epoch:e) && ok (e + 1)
        in
        (not (H.is_ceased w.h sc)) && ok 0)
    w.scs

let run ~seed ~seconds ~trace =
  let w, setup_s = M.set_up ~reps:setup_reps (fun () -> setup ~seed) in
  let rng_root = Rng.create seed in
  let t = tally () in
  let pinned = ref true in
  let until deadline =
    while M.now () < deadline || t.rounds < pin_round do
      round w ~rng_root t;
      if t.rounds = pin_round then begin
        pinned := M.check_pin ~workload:"world" ~seed "state" (digest w);
        t.heap_mw <- M.live_heap_mw ()
      end
    done
  in
  let start = M.now () in
  (* Two quiet rounds let every node forge what the last rounds left
     (a boundary-clipped block, a rollback's recovered transactions);
     whatever is still pooled after them was never included. *)
  let correct () =
    for _ = 1 to 2 do
      H.mine w.h;
      List.iter
        (fun ((sc : H.sidechain), _) ->
          ignore (Node.forge sc.node ~mc:w.h.chain ~slot:w.h.time ());
          Node.pump sc.node)
        w.scs
    done;
    t.lingering <-
      List.fold_left (fun a ((sc : H.sidechain), _) -> a + Node.mempool_size sc.node) 0 w.scs;
    !pinned && all_certified w
  in
  if not trace then begin
    until (start +. seconds);
    let ok = correct () in
    let certified = all_certified w in
    Printf.printf
      "world: %d rounds, %d txs, %d certificates; failed: %d refused, %d FT \
       unfunded, %d lingering, %d errors; %d slots skipped; all closed epochs \
       certified %b\n"
      t.rounds t.txs t.certs t.refused t.build_errors t.lingering t.errors
      t.skipped certified;
    let n = List.length t.round_s in
    let pct = tail_pct in
    Printf.printf "op = round; tail = p%.0f of %d rounds (%d beyond)\n" pct n
      (M.beyond n pct);
    {
      M.correct = ok;
      attempted = t.txs + t.certs;
      failed = failures t;
      values =
        [
          ("setup_s", setup_s);
          ("live_heap_mw", t.heap_mw);
          ("op_p50_ms", 1000. *. M.median t.round_s);
          ("op_tail_ms", 1000. *. M.percentile t.round_s pct);
          ("rate_per_s", M.median t.tx_rate);
          ("aux_p50_ms", 1000. *. M.median t.mine_s);
        ];
    }
  end
  else begin
    until (start +. (seconds /. 2.));
    let untraced_p50 = 1000. *. M.median t.round_s in
    let r0 = t.rounds and c0 = t.certs and tx0 = t.txs and f0 = failures t in
    t.round_s <- [];
    M.traced_window (fun () -> until (M.now () +. (seconds /. 2.)));
    let ok = correct () in
    let ops = t.rounds - r0 and certs = t.certs - c0 in
    let traced_p50 = 1000. *. M.median t.round_s in
    let b = M.breakdown () in
    M.print_decomposition ~workload:"world" ~unit_name:"round"
      ~ops_label:"rounds" b ~untraced_p50 ~traced_p50;
    let per_op name = M.ratio (M.counter name) ops in
    let probes = M.crypto_probes () in
    {
      M.correct = ok;
      attempted = t.txs + t.certs;
      failed = failures t;
      values =
        [
          ("harness.mine_ms", M.call_ms "harness.mine" ~ops);
          ("node.submit_ms", M.call_ms "node.submit" ~ops);
          ("wallet.build_ms", M.call_ms "wallet.build" ~ops);
          ("node.forge_ms", M.call_ms "node.forge" ~ops);
          ("node.pump_ms", M.call_ms "node.pump" ~ops);
          ("node.certify_ms", M.call_ms "node.certify" ~ops);
          ("node.certify_p50_ms", 1000. *. M.median t.certify_s);
          ("harness.reorg_ms", M.call_ms "harness.reorg" ~ops);
          ("residual_ms", M.residual_ms b);
          ("latus.forge_self_ms", M.row_self_ms b "latus.forge");
          ("latus.validate_self_ms", M.row_self_ms b "latus.validate");
          ( "latus.certify_self_ms",
            M.row_self_ms b "latus.certify" +. M.row_self_ms b "latus.fold" );
          ("snark.prove_self_ms", M.row_self_ms b "snark.prove");
          ("aggregate.build_self_ms", M.row_self_ms b "aggregate.build");
          ("sc_commitment.build_self_ms", M.row_self_ms b "core.sc_commitment.build");
          ("smt.update_batch_self_ms", M.row_self_ms b "smt.update_batch");
          ("merkle.of_leaves_self_ms", M.row_self_ms b "merkle.of_leaves");
          ("poseidon.perms", per_op "crypto.poseidon.permutations");
          ("sha256.kib", per_op "crypto.sha256.bytes" /. 1024.);
          ("backend.proves", per_op "snark.prove");
          ("backend.verifies", per_op "snark.verify");
          ("backend.constraints_proved", per_op "snark.constraints_proved");
          ("r1cs.constraint_evals", per_op "snark.r1cs.constraint_evals");
          ("recursive.merges", per_op "snark.merges");
          ("recursive.merge_ms", M.hist_mean_ms "snark.merge.seconds");
          ("verifier.cache_hit_ratio", M.cache_hit_ratio ());
          ("verifier.verify_ms", M.hist_mean_ms "mc.verify.seconds");
          ( "pipeline.carry_merges",
            M.ratio (M.counter "latus.pipeline.merges.carry") certs );
          ( "pipeline.queue_wait_p50_ms",
            M.hist_p50_ms "latus.pipeline.queue_wait.seconds" );
          ( "mempool.remove_included_p50_ms",
            M.hist_p50_ms "mempool.remove_included.seconds" );
          ( "tx_reject_ratio",
            M.ratio (failures t - f0) (t.txs - tx0) );
          ("aggregate.build_ms", M.hist_mean_ms "snark.aggregate.build.seconds");
          ( "trace.overhead_ratio",
            if untraced_p50 = 0. then 0. else traced_p50 /. untraced_p50 );
        ]
        @ probes;
    }
  end
