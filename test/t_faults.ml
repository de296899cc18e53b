(* Deterministic fault injection (Zen_sim.Faults) and the two bugs it
   shakes out: the certificate gap under overlapping submission windows
   (sequential certification) and the harness losing mempool
   transactions on reorg. Plus prover-pool crash retry and full-run
   replay determinism. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zen_sim
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error"
let amount n = Amount.of_int_exn n

let params = Params.default
let family = Circuits.make params

let pooled (h : Harness.t) id =
  List.exists (fun tx -> Hash.equal (Tx.txid tx) id) (Mempool.txs h.mempool)

(* ---- plan codec ---- *)

let test_plan_codec () =
  let plan =
    [
      Faults.Crash_worker { epoch = 2; worker = 1 };
      Faults.Slow_worker { epoch = 3; worker = 0; factor = 7 };
      Faults.Cert_fault { epoch = 0; fault = Faults.Drop };
      Faults.Cert_fault { epoch = 1; fault = Faults.Delay 2 };
      Faults.Cert_fault { epoch = 4; fault = Faults.Duplicate 3 };
      Faults.Cert_fault { epoch = 5; fault = Faults.Withhold };
      Faults.Reorg { tick = 17; depth = 2 };
      Faults.Clock_skew { tick = 5; millis = 120 };
    ]
  in
  let s = Faults.plan_to_string plan in
  checks "codec text"
    "crash@2:w1,slow@3:w0:x7,drop@0,delay@1:+2,dup@4:x3,withhold@5,reorg@17:d2,skew@5:+120ms"
    s;
  checkb "roundtrip" true (ok (Faults.plan_of_string s) = plan);
  checkb "empty to none" true (String.equal (Faults.plan_to_string []) "none");
  checkb "none to empty" true (ok (Faults.plan_of_string "none") = []);
  checkb "garbage rejected" true
    (Result.is_error (Faults.plan_of_string "explode@3"));
  checkb "bad depth rejected" true
    (Result.is_error (Faults.plan_of_string "reorg@4:d0"));
  checkb "trailing junk rejected" true
    (Result.is_error (Faults.plan_of_string "drop@3zzz"));
  checkb "16 duplicates accepted" true
    (Result.is_ok (Faults.plan_of_string "dup@0:x16"));
  checkb "17 duplicates rejected" true
    (Result.is_error (Faults.plan_of_string "dup@0:x17"));
  checkb "huge duplicate count rejected" true
    (Result.is_error (Faults.plan_of_string "dup@0:x100000"))

let test_storm_deterministic () =
  let a = Faults.storm ~seed:7 ~intensity:60 () in
  checkb "same args same plan" true (Faults.storm ~seed:7 ~intensity:60 () = a);
  checkb "nonempty at 60%" true (a <> []);
  checkb "seed changes plan" true (Faults.storm ~seed:8 ~intensity:60 () <> a);
  checkb "zero intensity empty" true (Faults.storm ~seed:7 ~intensity:0 () = []);
  checkb "storm roundtrips" true
    (ok (Faults.plan_of_string (Faults.plan_to_string a)) = a)

(* ---- a bare MC world with a registered (node-less) sidechain ---- *)

type world = {
  mutable chain : Chain.t;
  mutable mempool : Mempool.t;
  mc_wallet : Wallet.t;
  miner : Hash.t;
  ledger_id : Hash.t;
  config : Sidechain_config.t;
  mutable time : int;
}

let mine w =
  w.time <- w.time + 1;
  let b, _ =
    ok
      (Miner.build_block w.chain ~time:w.time ~miner_addr:w.miner
         ~candidates:(Mempool.txs w.mempool))
  in
  let c, _ = ok (Chain.add_block w.chain b) in
  w.chain <- c;
  w.mempool <- Mempool.remove_included w.mempool b

let mine_n w n =
  for _ = 1 to n do
    mine w
  done

let submit w tx = w.mempool <- Mempool.add w.mempool tx

let make_world seed ~epoch_len ~submit_len =
  let mc_params = { Chain_state.default_params with pow = Pow.trivial } in
  let chain = Chain.create ~params:mc_params ~time:0 () in
  let mc_wallet = Wallet.create ~seed in
  let miner = Wallet.fresh_address mc_wallet in
  let ledger_id = Sidechain_config.derive_ledger_id ~creator:miner ~nonce:1 in
  let w =
    { chain; mempool = Mempool.empty; mc_wallet; miner;
      ledger_id; config = Obj.magic 0; time = 0 }
  in
  mine_n w 5;
  let config =
    ok (Node.config_for ~ledger_id ~start_block:7 ~epoch_len ~submit_len family)
  in
  submit w (Tx.Sc_create config);
  mine w;
  { w with config }

let do_ft w ~receiver ~amt =
  let tx =
    ok
      (Wallet.build_forward_transfer w.mc_wallet (Chain.tip_state w.chain)
         ~ledger_id:w.ledger_id
         ~receiver_metadata:(Sc_tx.ft_metadata ~receiver ~payback:receiver)
         ~amount:amt ~fee:Amount.zero)
  in
  submit w tx

let sc_on_mc w =
  Option.get (Sc_ledger.find (Chain.tip_state w.chain).scs w.ledger_id)

(* A certifier whose binding proof is forged directly (the t_adversarial
   idiom): lets the ledger rules be probed epoch by epoch without
   running a node. *)
let forge_cert w ~epoch ~quality ~bt_list =
  let sched = Epoch.of_config w.config in
  let st = Chain.tip_state w.chain in
  let resolve h =
    if h < 0 then Hash.zero else Option.get (Chain_state.block_hash_at st h)
  in
  let end_prev_epoch = resolve (Epoch.last_height sched ~epoch:(epoch - 1)) in
  let end_epoch = resolve (Epoch.last_height sched ~epoch) in
  let proofdata =
    Proofdata.[ Digest Hash.zero; Field Fp.one; Blob (String.make 512 '\000') ]
  in
  let proof =
    ok
      (Circuits.prove_wcert_binding family ~quality
         ~bt_root:(Backward_transfer.list_root bt_list)
         ~end_prev_epoch ~end_epoch ~proofdata ~s_prev:Fp.zero ~s_last:Fp.one)
  in
  Tx.Certificate
    (Withdrawal_certificate.make ~ledger_id:w.ledger_id ~epoch_id:epoch
       ~quality ~bt_list ~proofdata ~proof)

let try_apply w tx =
  let st = Chain.tip_state w.chain in
  Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero tx

(* ---- the certificate-gap regression ---- *)

(* With epoch_len 2 / submit_len 5 the windows overlap: epoch 0 is
   submittable at heights 9..13, epoch 1 at 11..15. Pre-fix, the
   ledger accepted epoch 1 while epoch 0 was uncertified — after which
   [Epoch.ceased_at] keeps waiting for epoch 1 (= last_certified + 1)
   whose window had closed, stranding the sidechain: never ceased,
   never able to certify the gap. *)
let test_certificate_gap_rejected () =
  let w = make_world "gap" ~epoch_len:2 ~submit_len:5 in
  mine_n w 5 (* height 11: windows for epochs 0 and 1 both open *);
  let cert0 = forge_cert w ~epoch:0 ~quality:1 ~bt_list:[] in
  let cert1 = forge_cert w ~epoch:1 ~quality:1 ~bt_list:[] in
  (* epoch 1 before epoch 0: must be refused as out of order *)
  let e = err (try_apply w cert1) in
  checkb "out-of-order message" true
    (String.length e >= 4 && String.sub e 0 4 = "cert");
  (* in order: both accepted *)
  submit w cert0;
  mine w;
  checki "epoch 0 accepted" 1 (List.length (sc_on_mc w).certs);
  submit w cert1;
  mine w;
  let sc = sc_on_mc w in
  checki "epoch 1 accepted after 0" 2 (List.length sc.certs);
  checkb "not ceased" false
    (Sc_ledger.is_ceased (Chain.tip_state w.chain).scs w.ledger_id
       ~height:(Chain.tip_state w.chain).height)

(* A certificate landing exactly at window_end is accepted; one block
   later the sidechain has ceased and the same certificate is refused. *)
let test_cert_at_window_end () =
  let w = make_world "edge" ~epoch_len:4 ~submit_len:2 in
  (* epoch 0 covers heights 7..10, window 11..12 *)
  mine_n w 5 (* height 11 *);
  let cert0 = forge_cert w ~epoch:0 ~quality:1 ~bt_list:[] in
  (* applying at height 12 == window_end: accepted *)
  checkb "accepted at window end" true (Result.is_ok (try_apply w cert0));
  (* one more block: applying at height 13 — ceased *)
  mine w;
  let e = err (try_apply w cert0) in
  checks "ceased at window end + 1" "cert: sidechain has ceased" e;
  checkb "ledger agrees it ceased" true
    (Sc_ledger.is_ceased (Chain.tip_state w.chain).scs w.ledger_id
       ~height:((Chain.tip_state w.chain).height + 1))

(* Quality replacement must restore the replaced certificate's
   withdrawn amount before debiting the new one (the sc_ledger restore
   path): balance 50k, cert A withdraws 30k -> 20k, higher-quality
   cert B withdraws 10k -> back to 40k, not 20k - 10k. *)
let test_quality_replacement_restores_amount () =
  (* submit_len 3: window 11..13, room for the replacement at 13 *)
  let w = make_world "restore" ~epoch_len:4 ~submit_len:3 in
  let user = Hash.of_string "restore.user" in
  do_ft w ~receiver:user ~amt:(amount 50_000);
  mine_n w 5 (* FT at height 7; height 11: epoch 0 window open *);
  checki "funded" 50_000 (Amount.to_int (sc_on_mc w).balance);
  let bt amt = [ Backward_transfer.make ~receiver_addr:user ~amount:amt ] in
  let cert_a = forge_cert w ~epoch:0 ~quality:1 ~bt_list:(bt (amount 30_000)) in
  let cert_b = forge_cert w ~epoch:0 ~quality:2 ~bt_list:(bt (amount 10_000)) in
  submit w cert_a;
  mine w;
  checki "debited by A" 20_000 (Amount.to_int (sc_on_mc w).balance);
  submit w cert_b;
  mine w;
  let sc = sc_on_mc w in
  checki "one cert for epoch 0" 1 (List.length sc.certs);
  checki "B won" 2 (List.hd sc.certs).cert.quality;
  checki "A's amount restored before B's debit" 40_000
    (Amount.to_int sc.balance)

(* ---- the reorg-mempool regression ---- *)

let test_reorg_reinjects_mempool () =
  let h = Harness.create ~seed:"faults.reorg" () in
  Harness.fund h ~blocks:10;
  let receiver = Hash.of_string "faults.receiver" in
  let tx =
    ok
      (Wallet.build_transfer h.mc_wallet (Chain.tip_state h.chain)
         ~outputs:[ Tx.Coin { Tx.addr = receiver; amount = amount 1234 } ]
         ~fee:(amount 10))
  in
  let id = Tx.txid tx in
  Harness.submit h tx;
  Harness.mine h;
  let paid () =
    List.length
      (Utxo_set.coins_of_addr (Chain.tip_state h.chain).utxos receiver)
  in
  checkb "tx mined" false (pooled h id);
  checki "paid" 1 (paid ());
  (* an adversarial branch abandons the block carrying the transfer *)
  Harness.force_reorg h ~depth:1;
  checki "payment reorged away" 0 (paid ());
  checkb "tx back in mempool" true (pooled h id);
  (* the next block re-mines it *)
  Harness.mine h;
  checkb "re-mined" false (pooled h id);
  checki "paid again" 1 (paid ())

let test_reinject_skips_reincluded () =
  (* transactions the new branch already carries must not reappear *)
  let header =
    { Block.prev = Hash.zero; height = 1; time = 0; nonce = 0;
      tx_root = Hash.zero; sc_txs_commitment = Hash.zero;
      cert_aggregate = Hash.zero }
  in
  let b_with tx = { Block.header; txs = [ tx ]; aggregate = None } in
  let tx =
    Tx.Coinbase { height = 1; reward = { Tx.addr = Hash.zero; amount = amount 1 } }
  in
  (* coinbases never come back *)
  let m =
    Mempool.reinject_disconnected Mempool.empty ~disconnected:[ b_with tx ]
      ~connected:[]
  in
  checki "coinbase not reinjected" 0 (Mempool.size m)

(* ---- prover-pool worker faults ---- *)

let pool_steps n tag =
  List.init n (fun i ->
      Sc_tx.Insert
        (Utxo.make
           ~addr:(Hash.of_string ("t-faults." ^ tag))
           ~amount:(amount (i + 1))
           ~nonce:(Hash.of_string (Printf.sprintf "tf-%s-%d" tag i))))

let rsys =
  lazy
    (Zen_snark.Recursive.create ~name:"t-faults"
       ~base_vks:(Circuits.base_vks family))

let prove ?faults ?attempt_budget ~steps ~workers () =
  Prover_pool.prove_and_merge ?faults ?attempt_budget family (Lazy.force rsys)
    ~initial:(Sc_state.create params) ~steps ~workers ~seed:9

let same_proofs a b =
  List.for_all2
    (fun a b ->
      String.equal
        (Zen_snark.Backend.proof_encode
           (Zen_snark.Recursive.final_proof a.Prover_pool.transition))
        (Zen_snark.Backend.proof_encode
           (Zen_snark.Recursive.final_proof b.Prover_pool.transition)))
    a b

let test_prover_crash_retry () =
  let steps = pool_steps 12 "crash" in
  let clean, cstats, ctop = ok (prove ~steps ~workers:4 ()) in
  let faulted, fstats, ftop =
    ok (prove ~faults:[ (2, Prover_pool.Crash) ] ~steps ~workers:4 ())
  in
  checki "clean run no retries" 0 cstats.Prover_pool.retries;
  checkb "crash forces retries" true (fstats.Prover_pool.retries > 0);
  checki "crashed worker earns nothing" 0
    (List.assoc 2 fstats.Prover_pool.rewards);
  checkb "rewards credit survivors only" true
    (List.for_all
       (fun tp -> tp.Prover_pool.worker <> 2)
       faulted);
  (* proof bytes are unaffected by the crash — only scheduling moved *)
  checkb "task proofs byte-identical" true (same_proofs clean faulted);
  (* ... and so is the folded epoch proof the certificate would carry *)
  let final top =
    Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top)
  in
  checkb "epoch proof byte-identical" true
    (String.equal (final ctop) (final ftop));
  (* replay: the same (seed, faults) reproduces the same schedule *)
  let again, astats, _ =
    ok (prove ~faults:[ (2, Prover_pool.Crash) ] ~steps ~workers:4 ())
  in
  checki "same retries on replay" fstats.Prover_pool.retries
    astats.Prover_pool.retries;
  checkb "same workers on replay" true
    (List.for_all2
       (fun a b -> a.Prover_pool.worker = b.Prover_pool.worker)
       faulted again)

let test_prover_crash_exhaustion () =
  let steps = pool_steps 4 "dead" in
  checkb "all workers crashed" true
    (Result.is_error
       (prove
          ~faults:[ (0, Prover_pool.Crash); (1, Prover_pool.Crash) ]
          ~steps ~workers:2 ()));
  (* budget 1 leaves no room to re-dispatch away from a crash *)
  checkb "attempt budget exhausted" true
    (Result.is_error
       (prove ~faults:[ (0, Prover_pool.Crash) ] ~attempt_budget:1 ~steps
          ~workers:2 ()));
  (* a slow worker changes nothing but timing *)
  let slowed, sstats, _ =
    ok (prove ~faults:[ (1, Prover_pool.Slow 9) ] ~steps ~workers:2 ())
  in
  let clean, _, _ = ok (prove ~steps ~workers:2 ()) in
  checki "slow run no retries" 0 sstats.Prover_pool.retries;
  checkb "slow proofs identical" true (same_proofs clean slowed)

(* ---- a Duplicate fault queues its copies one tick apart ---- *)

let test_duplicate_queues_copies () =
  let faults = Faults.create (ok (Faults.plan_of_string "dup@0:x3")) in
  let h = Harness.create ~faults ~seed:"faults.dup" () in
  Harness.fund h ~blocks:5;
  let _sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:2 ~submit_len:5
         ~activation_delay:1 ())
  in
  let rec until_queued n =
    if n = 0 then Alcotest.fail "the duplicate fault never fired"
    else begin
      Harness.tick h;
      if h.pending_certs = [] then until_queued (n - 1)
    end
  in
  until_queued 12;
  let copies = h.pending_certs in
  checki "three copies queued" 3 (List.length copies);
  let tx = snd (List.hd copies) in
  checkb "copies of one certificate" true
    (List.for_all (fun (_, c) -> Hash.equal (Tx.txid c) (Tx.txid tx)) copies);
  let at = List.map fst copies in
  let first = List.hd at in
  checkb "one tick apart, in order" true (at = [ first; first + 1; first + 2 ]);
  Harness.tick_n h 3;
  checkb "all delivered" true (h.pending_certs = []);
  checki "three deliveries logged" 3
    (List.length
       (List.filter
          (String.equal "fault: postponed certificate submitted")
          (Harness.dump_log h)))

(* ---- every certificate the miner skips leaves the pool ---- *)

(* The world [chaos --plan dup@1:x4 --ticks 40] runs: seed chaos.42,
   one sidechain with 4-block epochs and 5-block windows, two FTs. Four
   extra copies of epoch 1's certificate arrive one tick apart, after
   the first was mined. *)
let dup_world () =
  let faults = Faults.create (ok (Faults.plan_of_string "dup@1:x4")) in
  let h = Harness.create ~faults ~seed:"chaos.42" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:4 ~submit_len:5
         ~activation_delay:1 ())
  in
  let user = Sc_wallet.fresh_address (Sc_wallet.create ~seed:"chaos.42.user") in
  for i = 1 to 2 do
    ok
      (Harness.forward_transfer h sc ~receiver:user ~payback:user
         ~amount:(amount (i * 1_000_000)))
  done;
  (h, sc)

let cert_ids txs =
  List.filter_map
    (function Tx.Certificate _ as tx -> Some (Tx.txid tx) | _ -> None)
    txs

let tip_block (h : Harness.t) =
  Option.get (Chain.block h.chain (Chain.tip_hash h.chain))

let purges h =
  List.length
    (List.filter
       (String.equal "purged stale certificate from mempool")
       (Harness.dump_log h))

(* Each tick's mine sees the pool the last tick left plus the copies
   due this tick; every certificate among them that the block did not
   include was skipped, and must be gone once the tick is over. A pool
   that kept a re-delivered copy skipped it in every later block. *)
let test_skipped_certificates_leave_pool () =
  let h, sc = dup_world () in
  for _ = 1 to 40 do
    let tick_no = h.time + 1 in
    let due =
      List.filter_map
        (fun (at, tx) -> if at <= tick_no then Some tx else None)
        h.pending_certs
    in
    let candidates = cert_ids (Mempool.txs h.mempool @ due) in
    Harness.tick h;
    let included = cert_ids (tip_block h).txs in
    let kept =
      List.filter
        (fun id -> (not (List.exists (Hash.equal id) included)) && pooled h id)
        candidates
    in
    if kept <> [] then
      Alcotest.failf "tick %d: %d skipped certificate(s) still pooled" tick_no
        (List.length kept)
  done;
  checki "three stale copies purged" 3 (purges h);
  let certified =
    List.length
      (Option.get (Sc_ledger.find (Chain.tip_state h.chain).scs sc.ledger_id))
        .certs
  in
  checki "epochs certified" 10 certified;
  checki "MC height" 48 (Chain.height h.chain);
  checkb "not ceased" false (Harness.is_ceased h sc)

(* A certificate that reaches the pool through [Harness.submit], not
   through a node's round in [Harness.tick]: epoch 0's certificate,
   built by its node while the harness withholds it, and submitted one
   block after its window closed. *)
let test_submitted_certificate_leaves_pool () =
  let h = Harness.create ~seed:"faults.submit" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:4 ~submit_len:2
         ~activation_delay:1 ())
  in
  sc.withhold_certs <- true;
  let rec build n =
    if n = 0 then Alcotest.fail "epoch 0's certificate was never built"
    else begin
      Harness.tick h;
      match ok (Node.build_certificate sc.node ~mc:h.chain) with
      | Some tx -> tx
      | None -> build (n - 1)
    end
  in
  let cert = build 12 in
  let _, window_end =
    Epoch.submission_window (Epoch.of_config sc.config) ~epoch:0
  in
  while Chain.height h.chain < window_end do
    Harness.tick h
  done;
  let id = Tx.txid cert in
  let before = purges h in
  Harness.submit h cert;
  checkb "pooled" true (pooled h id);
  Harness.mine h;
  checkb "skipped" false
    (List.exists (Hash.equal id) (cert_ids (tip_block h).txs));
  checkb "left the pool" false (pooled h id);
  checki "one purge logged" (before + 1) (purges h)

(* ---- a rebuilt certificate replaces the node's epoch archive ---- *)

(* Epoch 0 (MC heights 7..12) gets an FT at height 11 and is certified;
   a 3-block reorg then abandons both the FT block and the certificate,
   and the node rebuilds epoch 0's certificate without the FT. The
   archive that withdrawals prove against (the ownership proof's MST,
   the Appendix A deltas) must be the state of the certificate the
   mainchain now holds, not of the one it dropped. *)
let test_rebuilt_certificate_replaces_archive () =
  let h = Harness.create ~seed:"faults.archive" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:6 ~submit_len:5
         ~activation_delay:1 ())
  in
  while Chain.height h.chain < 10 do
    Harness.tick h
  done;
  ok
    (Harness.forward_transfer h sc ~receiver:(Hash.of_string "archive.rx")
       ~payback:(Hash.of_string "archive.payback") ~amount:(amount 5_000));
  checki "FT mined in epoch 0" 11 (Chain.height h.chain);
  let mc_root () =
    match Sc_ledger.find (Chain.tip_state h.chain).scs sc.ledger_id with
    | None -> None
    | Some s -> (
      match Sc_ledger.cert_for_epoch s ~epoch:0 with
      | Some { cert = { proofdata = [ _; Proofdata.Field root; _ ]; _ }; _ }
        ->
        Some root
      | _ -> None)
  in
  let rec until_certified n =
    if n = 0 then Alcotest.fail "epoch 0 was never certified"
    else if mc_root () = None then begin
      Harness.tick h;
      until_certified (n - 1)
    end
  in
  until_certified 6;
  let certified = Option.get (mc_root ()) in
  Harness.force_reorg h ~depth:3;
  Harness.tick_n h 8;
  let rebuilt =
    match mc_root () with
    | Some r -> r
    | None -> Alcotest.fail "epoch 0 was not certified again"
  in
  checkb "rebuilt without the reorged FT" false (Fp.equal certified rebuilt);
  let archived = Option.get (Node.state_at_epoch_end sc.node ~epoch:0) in
  checks "archive holds the certified state" (Fp.to_string rebuilt)
    (Fp.to_string (Mst.root archived.mst))

(* ---- full-run replay determinism ---- *)

let chaos_run () =
  let plan =
    Faults.storm ~seed:11 ~first_tick:8 ~ticks:12 ~epochs:4 ~workers:4
      ~intensity:40 ()
  in
  let faults = Faults.create plan in
  let h = Harness.create ~faults ~seed:"faults.chaos" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:2 ~submit_len:5
         ~activation_delay:1 ())
  in
  Harness.tick_n h 12;
  let certified =
    match Sc_ledger.find (Chain.tip_state h.chain).scs sc.ledger_id with
    | None -> 0
    | Some s -> List.length s.certs
  in
  Zen_obs.Clock.reset ();
  (Harness.dump_log h, certified, Faults.injected faults, Chain.height h.chain)

let test_chaos_replay_identical () =
  let log1, certified1, injected1, height1 = chaos_run () in
  let log2, certified2, injected2, height2 = chaos_run () in
  checkb "fault plan fired" true (injected1 > 0);
  checkb "liveness under faults" true (certified1 > 0);
  checki "same certified" certified1 certified2;
  checki "same injections" injected1 injected2;
  checki "same height" height1 height2;
  checki "same log length" (List.length log1) (List.length log2);
  List.iter2 (fun a b -> checks "log line" a b) log1 log2

let suite =
  ( "faults",
    [
      Alcotest.test_case "plan codec" `Quick test_plan_codec;
      Alcotest.test_case "storm deterministic" `Quick test_storm_deterministic;
      Alcotest.test_case "duplicate queues its copies" `Quick
        test_duplicate_queues_copies;
      Alcotest.test_case "skipped certificates leave the pool" `Quick
        test_skipped_certificates_leave_pool;
      Alcotest.test_case "submitted certificate leaves the pool" `Quick
        test_submitted_certificate_leaves_pool;
      Alcotest.test_case "certificate gap rejected" `Quick
        test_certificate_gap_rejected;
      Alcotest.test_case "cert at window end" `Quick test_cert_at_window_end;
      Alcotest.test_case "quality replacement restores amount" `Quick
        test_quality_replacement_restores_amount;
      Alcotest.test_case "reorg reinjects mempool" `Quick
        test_reorg_reinjects_mempool;
      Alcotest.test_case "reinject skips coinbase" `Quick
        test_reinject_skips_reincluded;
      Alcotest.test_case "prover crash retry" `Quick test_prover_crash_retry;
      Alcotest.test_case "prover crash exhaustion" `Quick
        test_prover_crash_exhaustion;
      Alcotest.test_case "rebuilt certificate replaces archive" `Quick
        test_rebuilt_certificate_replaces_archive;
      Alcotest.test_case "chaos replay identical" `Quick
        test_chaos_replay_identical;
    ] )
