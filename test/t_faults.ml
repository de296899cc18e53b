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
  checkb "tx mined" false (Mempool.mem h.mempool id);
  checki "paid" 1 (paid ());
  (* an adversarial branch abandons the block carrying the transfer *)
  Harness.force_reorg h ~depth:1;
  checki "payment reorged away" 0 (paid ());
  checkb "tx back in mempool" true (Mempool.mem h.mempool id);
  (* the next block re-mines it *)
  Harness.mine h;
  checkb "re-mined" false (Mempool.mem h.mempool id);
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
        (Zen_snark.Backend.proof_encode a.Prover_pool.proof)
        (Zen_snark.Backend.proof_encode b.Prover_pool.proof))
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
  let faults = Faults.create ~seed:1 (ok (Faults.plan_of_string "dup@0:x3")) in
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

(* ---- full-run replay determinism ---- *)

let chaos_run () =
  let plan =
    Faults.storm ~seed:11 ~first_tick:8 ~ticks:12 ~epochs:4 ~workers:4
      ~intensity:40 ()
  in
  let faults = Faults.create ~seed:11 plan in
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
      Alcotest.test_case "chaos replay identical" `Quick
        test_chaos_replay_identical;
    ] )
