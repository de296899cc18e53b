(* Adversarial scenarios: the quality rule with payout claw-back,
   tampered proofs, and the withdrawal safeguard as the last line of
   defence against a fully corrupted sidechain (§4.1.2.2). *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let params = Params.default
let family = Circuits.make params

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

(* A world with a registered sidechain but NO honest node attached —
   the adversarial tests drive nodes (or raw certificates) manually. *)
let make_world seed =
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
    ok (Node.config_for ~ledger_id ~start_block:7 ~epoch_len:4 ~submit_len:2 family)
  in
  submit w (Tx.Sc_create config);
  mine w;
  { w with config }

let make_node w seed =
  let forger = Sc_wallet.create ~seed in
  let (_ : Hash.t) = Sc_wallet.fresh_address forger in
  ok (Node.create ~config:w.config ~params ~family ~forger ())

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

(* ---- quality competition with payout claw-back ---- *)

(* Two competing sidechain views of the same epoch: LOW syncs the
   whole epoch in one block (completing height 0 → quality 0) and
   certifies an empty BT list; HIGH forges across the epoch in two
   blocks (quality 1) with a backward transfer inside. Submitting LOW
   then HIGH within the window must replace the certificate, claw back
   LOW's payouts and re-apply the safeguard accounting. *)
let test_quality_replacement_claws_back_payouts () =
  let w2 = make_world "claw2" in
  (* A dedicated receiver wallet: the harness wallet's newest key also
     collects transfer change, which would pollute the payout count. *)
  let recv_high = Wallet.fresh_address (Wallet.create ~seed:"claw2.recv") in
  let user2 = Sc_wallet.create ~seed:"claw2.user" in
  let user2_addr = Sc_wallet.fresh_address user2 in
  mine w2;
  do_ft w2 ~receiver:user2_addr ~amt:(amount 600_000);
  mine w2;
  (* MC at height 8: epoch 0 partially mined *)
  let node_high = make_node w2 "claw2.high" in
  let (_ : Sc_block.t option) = ok (Node.forge node_high ~mc:w2.chain ~slot:1 ()) in
  mine_n w2 2;
  (* complete epoch 0 on MC (heights 9,10) *)
  (* BT inside epoch 0's remaining blocks *)
  let state = Node.next_block_state node_high in
  let coin = List.hd (Sc_wallet.utxos user2 state) in
  let bt =
    ok (Sc_wallet.build_backward_transfer user2 state ~utxo:coin ~mc_receiver:recv_high)
  in
  ok (Node.submit_tx node_high bt);
  let (_ : Sc_block.t option) = ok (Node.forge node_high ~mc:w2.chain ~slot:2 ()) in
  let cert_high =
    match ok (Node.build_certificate node_high ~mc:w2.chain) with
    | Some tx -> tx
    | None -> Alcotest.fail "high cert not ready"
  in
  (* Also a LOW competitor in w2: a node that synced everything in one
     block (quality 0, no BTs). *)
  let node_low2 = make_node w2 "claw2.low" in
  let (_ : Sc_block.t option) = ok (Node.forge node_low2 ~mc:w2.chain ~slot:1 ()) in
  let cert_low2 =
    match ok (Node.build_certificate node_low2 ~mc:w2.chain) with
    | Some tx -> tx
    | None -> Alcotest.fail "low2 cert not ready"
  in
  (* Submit LOW first (lands at height 11), then HIGH replaces it at
     height 12 — both inside the window 11..12. *)
  submit w2 cert_low2;
  mine w2;
  let sc = sc_on_mc w2 in
  checki "low accepted" 1 (List.length sc.certs);
  checki "low quality" 0 (List.hd sc.certs).cert.quality;
  checki "balance intact (no BTs in low)" 600_000 (Amount.to_int sc.balance);
  submit w2 cert_high;
  mine w2;
  let sc = sc_on_mc w2 in
  checki "still one cert for epoch 0" 1 (List.length sc.certs);
  checki "high quality won" 1 (List.hd sc.certs).cert.quality;
  checki "balance debited by high's BT" 0 (Amount.to_int sc.balance);
  let payout = Utxo_set.coins_of_addr (Chain.tip_state w2.chain).utxos recv_high in
  checki "high payout present" 1 (List.length payout)

(* ---- tampered certificates ---- *)

let test_tampered_cert_rejected () =
  let w = make_world "tamper" in
  let node = make_node w "tamper.node" in
  let user = Sc_wallet.create ~seed:"tamper.user" in
  let user_addr = Sc_wallet.fresh_address user in
  mine w;
  do_ft w ~receiver:user_addr ~amt:(amount 100_000);
  mine_n w 3;
  let (_ : Sc_block.t option) = ok (Node.forge node ~mc:w.chain ~slot:1 ()) in
  let cert_tx =
    match ok (Node.build_certificate node ~mc:w.chain) with
    | Some tx -> tx
    | None -> Alcotest.fail "no cert"
  in
  let cert = match cert_tx with Tx.Certificate c -> c | _ -> assert false in
  let try_apply tx =
    let st = Chain.tip_state w.chain in
    Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero tx
  in
  (* Each forgery is a fresh [make], so its id covers its own fields.
     The genuine certificate is verified first, into the cache: a
     forgery that aliased its cache key would be accepted from there. *)
  let forge ?(bt_list = cert.bt_list) ?(quality = cert.quality)
      ?(proof = cert.proof) ?(epoch_id = cert.epoch_id) () =
    Tx.Certificate
      (Withdrawal_certificate.make ~ledger_id:cert.ledger_id ~epoch_id ~quality
         ~bt_list ~proofdata:cert.proofdata ~proof)
  in
  checkb "genuine accepted (cached)" true (Result.is_ok (try_apply cert_tx));
  let hits_before = (Verifier.Cache.stats ()).hits in
  (* 1. extra backward transfer injected after proving *)
  let forged_bts =
    forge
      ~bt_list:
        (cert.bt_list
        @ [ Backward_transfer.make ~receiver_addr:user_addr ~amount:(amount 1) ])
      ()
  in
  checkb "forged bt list rejected" true (Result.is_error (try_apply forged_bts));
  (* 2. inflated quality *)
  let forged_quality = forge ~quality:(cert.quality + 10) () in
  checkb "forged quality rejected" true (Result.is_error (try_apply forged_quality));
  (* 3. corrupted proof bytes *)
  let corrupt =
    let b = Bytes.of_string (Zen_snark.Backend.proof_encode cert.proof) in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Option.get (Zen_snark.Backend.proof_decode (Bytes.to_string b))
  in
  checkb "corrupted proof rejected" true
    (Result.is_error (try_apply (forge ~proof:corrupt ())));
  (* 4. wrong epoch id *)
  checkb "wrong epoch rejected" true
    (Result.is_error (try_apply (forge ~epoch_id:5 ())));
  checki "no forgery hit the genuine cache entry" hits_before
    (Verifier.Cache.stats ()).hits;
  (* and the genuine one still passes, now from the cache *)
  checkb "genuine accepted" true (Result.is_ok (try_apply cert_tx));
  checkb "genuine served from the cache" true
    ((Verifier.Cache.stats ()).hits > hits_before)

(* ---- the safeguard against a fully corrupt sidechain ---- *)

let test_safeguard_caps_corrupt_sidechain () =
  let w = make_world "corrupt" in
  let user_addr = Sc_wallet.fresh_address (Sc_wallet.create ~seed:"c.user") in
  mine w;
  do_ft w ~receiver:user_addr ~amt:(amount 50_000);
  mine_n w 3;
  (* A corrupt certifier forges a binding proof directly — in the
     simulation the binding circuit does not tie BTList to any real
     state, modelling a sidechain whose *stakeholders* are fully
     malicious (the paper's §4.1.2.2 threat). The safeguard must cap
     what they can steal at the sidechain balance. *)
  let thief = Hash.of_string "thief" in
  let forge_cert amt =
    let bt_list = [ Backward_transfer.make ~receiver_addr:thief ~amount:amt ] in
    let proofdata =
      Proofdata.
        [ Digest Hash.zero; Field Fp.one; Blob (String.make 512 '\000') ]
    in
    let sched = Epoch.of_config w.config in
    let st = Chain.tip_state w.chain in
    let end_prev =
      Option.get
        (Chain_state.block_hash_at st (Epoch.last_height sched ~epoch:(-1)))
    in
    let end_epoch =
      Option.get (Chain_state.block_hash_at st (Epoch.last_height sched ~epoch:0))
    in
    let proof =
      ok
        (Circuits.prove_wcert_binding family ~quality:3
           ~bt_root:(Backward_transfer.list_root bt_list)
           ~end_prev_epoch:end_prev ~end_epoch ~proofdata ~s_prev:Fp.zero
           ~s_last:Fp.one)
    in
    Tx.Certificate
      (Withdrawal_certificate.make ~ledger_id:w.ledger_id ~epoch_id:0
         ~quality:3 ~bt_list ~proofdata ~proof)
  in
  let st = Chain.tip_state w.chain in
  (* stealing more than the balance: blocked by the safeguard *)
  (match
     Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero
       (forge_cert (amount 50_001))
   with
  | Error e ->
    checkb "safeguard message" true
      (String.length e > 0 && String.sub e 0 4 = "cert")
  | Ok _ -> Alcotest.fail "over-balance withdrawal accepted");
  (* stealing exactly the balance: the simulation's corrupt prover can
     do it — which is precisely the residual risk the paper accepts:
     a corrupt sidechain can take its own deposits but can never mint
     mainchain coins. *)
  match
    Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero
      (forge_cert (amount 50_000))
  with
  | Ok (st', _) ->
    checki "balance drained but not negative" 0
      (Amount.to_int (Option.get (Chain_state.sc_balance st' w.ledger_id)))
  | Error e -> Alcotest.fail e

(* ---- withdrawal request forgeries ---- *)

let test_forged_withdrawal_requests () =
  let w = make_world "fw" in
  let node = make_node w "fw.node" in
  let user = Sc_wallet.create ~seed:"fw.user" in
  let user_addr = Sc_wallet.fresh_address user in
  mine w;
  do_ft w ~receiver:user_addr ~amt:(amount 70_000);
  mine_n w 3;
  let (_ : Sc_block.t option) = ok (Node.forge node ~mc:w.chain ~slot:1 ()) in
  let cert_tx =
    match ok (Node.build_certificate node ~mc:w.chain) with
    | Some tx -> tx
    | None -> Alcotest.fail "no cert"
  in
  submit w cert_tx;
  mine w;
  let sc = sc_on_mc w in
  let committed = Option.get (Node.state_at_epoch_end node ~epoch:0) in
  let coin = List.hd (Sc_wallet.utxos user committed) in
  let btr =
    ok
      (Node.create_withdrawal_request node ~kind:Mainchain_withdrawal.Btr
         ~utxo:coin ~receiver:user_addr
         ~reference_block:(Sc_ledger.reference_block_for sc)
         ())
  in
  let st = Chain.tip_state w.chain in
  let check_rejected what request =
    match Sc_ledger.check_withdrawal st.scs ~request ~height:(st.height + 1) with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (what ^ " accepted")
  in
  (* inflate the amount after proving *)
  check_rejected "inflated amount"
    { btr with Mainchain_withdrawal.amount = amount 999_999 };
  (* redirect the receiver *)
  check_rejected "redirected receiver"
    { btr with Mainchain_withdrawal.receiver = Hash.of_string "thief" };
  (* swap the nullifier to dodge double-spend tracking *)
  check_rejected "forged nullifier"
    { btr with Mainchain_withdrawal.nullifier = Hash.of_string "fresh" };
  (* and the genuine one passes *)
  checkb "genuine btr ok" true
    (Result.is_ok
       (Sc_ledger.check_withdrawal st.scs ~request:btr ~height:(st.height + 1)))

let suite =
  ( "adversarial",
    [
      Alcotest.test_case "quality replacement claw-back" `Quick
        test_quality_replacement_claws_back_payouts;
      Alcotest.test_case "tampered certificates" `Quick test_tampered_cert_rejected;
      Alcotest.test_case "safeguard caps corruption" `Quick
        test_safeguard_caps_corrupt_sidechain;
      Alcotest.test_case "forged withdrawal requests" `Quick
        test_forged_withdrawal_requests;
    ] )
