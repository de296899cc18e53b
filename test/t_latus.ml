(* Latus components: UTXOs, the MST and its delta (Appendix A), state
   transitions for all four transaction types, leader election, MC
   references, blocks and the Latus circuits. *)

open Zen_crypto
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let params = Params.default

let utxo ?(addr = "addr") ?(amt = 100) nonce_seed =
  Utxo.make ~addr:(Hash.of_string addr) ~amount:(amount amt)
    ~nonce:(Hash.of_string nonce_seed)

(* ---- utxo ---- *)

let test_utxo_identity () =
  let u = utxo "n1" in
  checkb "stable position" true
    (Utxo.position ~mst_depth:12 u = Utxo.position ~mst_depth:12 u);
  checkb "nullifier distinct per utxo" false
    (Hash.equal (Utxo.nullifier u) (Utxo.nullifier (utxo "n2")));
  match Utxo.decode (Utxo.encode u) with
  | Some u' -> checkb "encode roundtrip" true (Utxo.equal u u')
  | None -> Alcotest.fail "decode failed"

let test_utxo_commitment_binds_fields () =
  let u = utxo ~amt:100 "n1" in
  let u2 = utxo ~amt:101 "n1" in
  checkb "amount changes commitment" false
    (Fp.equal (Utxo.commitment u) (Utxo.commitment u2))

(* ---- mst + delta ---- *)

(* One-op writes through [Mst.apply_ops], returning the slot used. *)
let mst_write op m u =
  Result.map
    (fun m -> (m, Utxo.position ~mst_depth:(Mst.depth m) u))
    (Mst.apply_ops m [ op u ])

let mst_insert = mst_write (fun u -> Mst.Op_insert u)
let mst_remove = mst_write (fun u -> Mst.Op_remove u)

let test_mst_insert_remove () =
  let m = Mst.create params in
  let u = utxo "a" in
  let m1, pos = ok (mst_insert m u) in
  checkb "present" true (Mst.find_utxo m1 u = Some pos);
  checkb "collision rejected" true (Result.is_error (mst_insert m1 u));
  let m2, _ = ok (mst_remove m1 u) in
  checkb "gone" true (Mst.find_utxo m2 u = None);
  checkb "root restored" true (Fp.equal (Mst.root m) (Mst.root m2));
  checkb "remove absent fails" true (Result.is_error (mst_remove m2 u))

let test_mst_balance () =
  let m = Mst.create params in
  let m, _ = ok (mst_insert m (utxo ~addr:"alice" ~amt:5 "x")) in
  let m, _ = ok (mst_insert m (utxo ~addr:"alice" ~amt:7 "y")) in
  let m, _ = ok (mst_insert m (utxo ~addr:"bob" ~amt:11 "z")) in
  checki "alice" 12 (Fixtures.balance m (Hash.of_string "alice"));
  checki "bob" 11 (Fixtures.balance m (Hash.of_string "bob"));
  checki "total" 23 (Fixtures.total_value m)

let test_mst_delta () =
  let m = Mst.create params in
  let u1 = utxo "d1" and u2 = utxo "d2" in
  let m, p1 = ok (mst_insert m u1) in
  let m, p2 = ok (mst_insert m u2) in
  let delta = Mst.delta_bits m in
  checkb "bit p1" true (Mst.delta_bit delta p1);
  checkb "bit p2" true (Mst.delta_bit delta p2);
  checki "exactly two" 2
    (List.length (Fixtures.delta_positions (Mst.delta_bits m)));
  (* snapshot clears; removal after snapshot re-marks *)
  let m = Mst.snapshot m in
  checki "cleared" 0 (List.length (Fixtures.delta_positions (Mst.delta_bits m)));
  let m, _ = ok (mst_remove m u1) in
  let delta2 = Mst.delta_bits m in
  checkb "re-marked" true (Mst.delta_bit delta2 p1);
  checkb "untouched not marked" false (Mst.delta_bit delta2 p2)

let test_mst_delta_appendix_a_scenario () =
  (* Appendix A: prove a utxo survived epochs by unset delta bits. *)
  let m = Mst.create params in
  let survivor = utxo "appendix-survivor" in
  let m, pos = ok (mst_insert m survivor) in
  let m = Mst.snapshot m in
  (* epoch 2: unrelated activity *)
  let m, _ = ok (mst_insert m (utxo "other1")) in
  let delta_e2 = Mst.delta_bits m in
  checkb "survivor untouched in e2" false (Mst.delta_bit delta_e2 pos);
  let m = Mst.snapshot m in
  (* epoch 3: survivor is spent *)
  let m, _ = ok (mst_remove m survivor) in
  let delta_e3 = Mst.delta_bits m in
  checkb "survivor touched in e3" true (Mst.delta_bit delta_e3 pos)

(* ---- proofs over mst slots ---- *)

let test_mst_slot_proofs () =
  let m = Mst.create params in
  let u = utxo "slot" in
  let m, pos = ok (mst_insert m u) in
  let p = Mst.prove_slot m pos in
  checkb "member" true
    (Smt.verify ~root:(Mst.root m) ~pos ~leaf:(Some (Utxo.commitment u))
       ~depth:params.mst_depth p);
  checkb "wrong utxo" false
    (Smt.verify ~root:(Mst.root m) ~pos
       ~leaf:(Some (Utxo.commitment (utxo "imposter")))
       ~depth:params.mst_depth p)

(* ---- state / transactions ---- *)

let wallet seed =
  let w = Sc_wallet.create ~seed in
  let addr = Sc_wallet.fresh_address w in
  (w, addr)

(* A payment witness: the key behind [addr] signs [sighash]. *)
let sign w addr sighash =
  let sk = Option.get (Sc_wallet.secret_for w addr) in
  (Schnorr.public_of_secret sk, Schnorr.sign sk (Hash.to_raw sighash))

(* The steps [tx] applies to [st], in order. *)
let steps_of st tx =
  List.map (fun (t : Sc_tx.traced) -> t.step) (snd (ok (Sc_tx.transition st tx)))

let ft_steps st ft =
  steps_of st (Sc_tx.Forward_transfers_tx { mcid = Hash.zero; fts = [ ft ] })

let state_with utxos =
  let st = Sc_state.create params in
  let mst =
    List.fold_left (fun m u -> fst (ok (mst_insert m u))) st.Sc_state.mst utxos
  in
  Sc_state.with_mst st mst

let test_payment_roundtrip () =
  let w1, a1 = wallet "pay1" in
  let _w2, a2 = wallet "pay2" in
  let coin = Utxo.make ~addr:a1 ~amount:(amount 100) ~nonce:(Hash.of_string "c") in
  let st = state_with [ coin ] in
  let tx = ok (Sc_wallet.build_payment w1 st ~to_:a2 ~amount:(amount 30)) in
  let st' = ok (Sc_tx.apply st tx) in
  checki "receiver" 30 (Fixtures.balance st'.Sc_state.mst a2);
  checki "change" 70 (Fixtures.balance st'.Sc_state.mst a1);
  checki "value conserved" 100 (Fixtures.total_value st'.Sc_state.mst)

let test_payment_rejects_bad_sig () =
  let w1, a1 = wallet "sig1" in
  let _w2, a2 = wallet "sig2" in
  let coin = Utxo.make ~addr:a1 ~amount:(amount 100) ~nonce:(Hash.of_string "c") in
  let st = state_with [ coin ] in
  let tx = ok (Sc_wallet.build_payment w1 st ~to_:a2 ~amount:(amount 30)) in
  match tx with
  | Sc_tx.Payment p ->
    (* Swap outputs after signing: signature must fail. *)
    let tampered = Sc_tx.Payment { p with outputs = List.rev p.outputs } in
    checkb "tamper rejected" true (Result.is_error (Sc_tx.validate st tampered))
  | _ -> Alcotest.fail "expected payment"

let test_payment_rejects_overdraw_and_foreign_nonce () =
  let w1, a1 = wallet "over1" in
  let _w2, a2 = wallet "over2" in
  let coin = Utxo.make ~addr:a1 ~amount:(amount 10) ~nonce:(Hash.of_string "c") in
  let st = state_with [ coin ] in
  checkb "overdraw" true
    (Result.is_error (Sc_wallet.build_payment w1 st ~to_:a2 ~amount:(amount 30)));
  (* Forged output nonce breaks the nonce discipline. *)
  let inputs = [ coin ] in
  let outputs =
    [ Utxo.make ~addr:a2 ~amount:(amount 10) ~nonce:(Hash.of_string "forged") ]
  in
  let sighash = Sc_tx.payment_sighash ~inputs ~outputs in
  let witnesses =
    [ sign w1 a1 sighash ]
  in
  checkb "foreign nonce rejected" true
    (Result.is_error
       (Sc_tx.validate st (Sc_tx.Payment { inputs; witnesses; outputs })))

(* Output slots derive from the inputs alone, so some coins can only
   be spent into outputs that collide. Grind such coins at a small MST
   depth: the wallet must refuse to build what the node would refuse. *)
let test_payment_output_slots () =
  let params = { params with mst_depth = 4 } in
  let depth = params.mst_depth in
  let w1, a1 = wallet "slots1" in
  let _w2, a2 = wallet "slots2" in
  let coin i =
    Utxo.make ~addr:a1 ~amount:(amount 100)
      ~nonce:(Hash.of_string (Printf.sprintf "grind%d" i))
  in
  let out_slots c =
    let seed = Sc_tx.payment_seed [ c ] in
    ( Utxo.position ~mst_depth:depth
        (Utxo.make ~addr:a2 ~amount:(amount 1)
           ~nonce:(Sc_tx.output_nonce ~seed ~index:0)),
      Utxo.position ~mst_depth:depth
        (Utxo.make ~addr:a2 ~amount:(amount 1)
           ~nonce:(Sc_tx.output_nonce ~seed ~index:1)) )
  in
  let rec grind i pred = if pred (coin i) then coin i else grind (i + 1) pred in
  let single c =
    let st = Sc_state.create params in
    Sc_state.with_mst st (fst (ok (mst_insert st.Sc_state.mst c)))
  in
  let pay st = Sc_wallet.build_payment w1 st ~to_:a2 ~amount:(amount 30) in
  (* payee and change derive to one slot *)
  let c = grind 0 (fun c -> fst (out_slots c) = snd (out_slots c)) in
  let st = single c in
  checkb "shared slot refused" true (Result.is_error (pay st));
  let seed = Sc_tx.payment_seed [ c ] in
  let outputs =
    [
      Utxo.make ~addr:a2 ~amount:(amount 30)
        ~nonce:(Sc_tx.output_nonce ~seed ~index:0);
      Utxo.make ~addr:a1 ~amount:(amount 70)
        ~nonce:(Sc_tx.output_nonce ~seed ~index:1);
    ]
  in
  let sighash = Sc_tx.payment_sighash ~inputs:[ c ] ~outputs in
  let witnesses =
    [ sign w1 a1 sighash ]
  in
  (match Sc_tx.validate st (Sc_tx.Payment { inputs = [ c ]; witnesses; outputs }) with
  | Error e -> Alcotest.(check string) "node refuses it" "mst: slot collision" e
  | Ok () -> Alcotest.fail "colliding outputs validated");
  (* an output on the slot its own input frees is fine *)
  let pos c = Utxo.position ~mst_depth:depth c in
  let c = grind 0 (fun c -> fst (out_slots c) = pos c && snd (out_slots c) <> pos c) in
  let st = single c in
  let tx = ok (pay st) in
  checkb "freed slot reused" true (Result.is_ok (Sc_tx.validate st tx));
  (* an output on a slot another coin holds is refused *)
  let c = grind 0 (fun c ->
      let o0, o1 = out_slots c in
      o0 <> o1 && o0 <> pos c && o1 <> pos c) in
  let squatter =
    grind 1000 (fun u -> pos u = fst (out_slots c))
    |> fun u -> { u with Utxo.addr = Hash.of_string "someone" }
  in
  let st = single c in
  let st = Sc_state.with_mst st (fst (ok (mst_insert st.Sc_state.mst squatter))) in
  checkb "occupied slot refused" true (Result.is_error (pay st))

(* A transaction's steps apply once: validating or applying a payment
   costs the Poseidon permutations of one fold over its steps, and so
   does [transition], the forger's application. *)
let test_payment_applies_once () =
  Zen_obs.Registry.with_enabled @@ fun () ->
  let perms = Zen_obs.Counter.make "crypto.poseidon.permutations" in
  let count f =
    let before = Zen_obs.Counter.value perms in
    ignore (f ());
    Zen_obs.Counter.value perms - before
  in
  let w1, a1 = wallet "once1" in
  let _w2, a2 = wallet "once2" in
  let coin = Utxo.make ~addr:a1 ~amount:(amount 100) ~nonce:(Hash.of_string "c") in
  let st = state_with [ coin ] in
  let tx = ok (Sc_wallet.build_payment w1 st ~to_:a2 ~amount:(amount 30)) in
  let steps =
    match tx with
    | Sc_tx.Payment p ->
      Sc_tx.Remove coin :: List.map (fun u -> Sc_tx.Insert u) p.outputs
    | _ -> Alcotest.fail "expected payment"
  in
  checki "three steps" 3 (List.length steps);
  let once =
    count (fun () ->
        List.fold_left (fun st s -> ok (Sc_tx.apply_step st s)) st steps)
  in
  checkb "steps hash" true (once > 0);
  checki "apply" once (count (fun () -> Sc_tx.apply st tx));
  checki "validate" once (count (fun () -> Sc_tx.validate st tx));
  checki "transition" once (count (fun () -> Sc_tx.transition st tx))

let test_ft_accept_and_reject () =
  let _w, recv = wallet "ftr" in
  let payback = Hash.of_string "payback-addr" in
  let st = Sc_state.create params in
  let ft =
    Forward_transfer.make ~ledger_id:Hash.zero
      ~receiver_metadata:(Sc_tx.ft_metadata ~receiver:recv ~payback)
      ~amount:(amount 55)
  in
  (match ft_steps st ft with
  | [ Sc_tx.Insert u ] ->
    checkb "addressed to receiver" true (Hash.equal u.Utxo.addr recv)
  | _ -> Alcotest.fail "valid ft rejected");
  (* malformed metadata -> rejected with a BT *)
  let bad =
    Forward_transfer.make ~ledger_id:Hash.zero ~receiver_metadata:"short"
      ~amount:(amount 5)
  in
  (match ft_steps st bad with
  | [ Sc_tx.Append_bt bt ] ->
    checki "amount preserved" 5 (Amount.to_int bt.Backward_transfer.amount);
    checkb "burnt to the zero address" true
      (Hash.equal bt.receiver_addr Hash.zero)
  | _ -> Alcotest.fail "malformed ft accepted");
  (* applying the FTTx mints coins *)
  let st' =
    ok
      (Sc_tx.apply st
         (Sc_tx.Forward_transfers_tx { mcid = Hash.zero; fts = [ ft; bad ] }))
  in
  checki "minted" 55 (Fixtures.balance st'.Sc_state.mst recv);
  checki "rejected became bt" 1
    (List.length (Sc_state.backward_transfers st'))

let test_ft_slot_collision () =
  let _w, recv = wallet "coll" in
  let payback = Hash.of_string "pb" in
  let ft =
    Forward_transfer.make ~ledger_id:Hash.zero
      ~receiver_metadata:(Sc_tx.ft_metadata ~receiver:recv ~payback)
      ~amount:(amount 5)
  in
  (* Pre-occupy the exact slot this FT's utxo maps to. *)
  let nonce = Utxo.derive_nonce ~source:(Forward_transfer.hash ft) ~index:0 in
  let squatter = Utxo.make ~addr:recv ~amount:(amount 1) ~nonce in
  let st = state_with [ squatter ] in
  match ft_steps st ft with
  | [ Sc_tx.Append_bt bt ] ->
    checkb "payback address" true
      (Hash.equal bt.Backward_transfer.receiver_addr payback)
  | _ -> Alcotest.fail "collision not detected"

let test_bt_tx () =
  let w1, a1 = wallet "bt1" in
  let coin = Utxo.make ~addr:a1 ~amount:(amount 40) ~nonce:(Hash.of_string "c") in
  let st = state_with [ coin ] in
  let mc_recv = Hash.of_string "mc-addr" in
  let tx = ok (Sc_wallet.build_backward_transfer w1 st ~utxo:coin ~mc_receiver:mc_recv) in
  let st' = ok (Sc_tx.apply st tx) in
  checki "coin burnt" 0 (Fixtures.balance st'.Sc_state.mst a1);
  checki "bt recorded" 1 (List.length (Sc_state.backward_transfers st'));
  checkb "bt acc moved" false (Fp.equal st'.Sc_state.bt_acc Fp.zero)

let test_btr_tx () =
  let _w1, a1 = wallet "btr1" in
  let coin = Utxo.make ~addr:a1 ~amount:(amount 25) ~nonce:(Hash.of_string "c") in
  let st = state_with [ coin ] in
  let btr =
    Mainchain_withdrawal.make ~kind:Mainchain_withdrawal.Btr
      ~ledger_id:Hash.zero ~receiver:(Hash.of_string "mc")
      ~amount:(amount 25) ~nullifier:(Utxo.nullifier coin)
      ~proofdata:[ Proofdata.Blob (Utxo.encode coin) ]
      ~proof:Fixtures.zero_proof
  in
  (match
     steps_of st
       (Sc_tx.Backward_transfer_requests_tx { mcid = Hash.zero; btrs = [ btr ] })
   with
  | [ Sc_tx.Remove u; Sc_tx.Append_bt _ ] ->
    checkb "spends the requested coin" true (Utxo.equal u coin)
  | _ -> Alcotest.fail "btr skipped");
  let st' =
    ok
      (Sc_tx.apply st
         (Sc_tx.Backward_transfer_requests_tx { mcid = Hash.zero; btrs = [ btr ] }))
  in
  checki "bt recorded" 1 (List.length (Sc_state.backward_transfers st'));
  (* double-sync: utxo gone, BTR skipped without failing the tx *)
  let st'' =
    ok
      (Sc_tx.apply st'
         (Sc_tx.Backward_transfer_requests_tx { mcid = Hash.zero; btrs = [ btr ] }))
  in
  checki "skip keeps bts" 1 (List.length (Sc_state.backward_transfers st''))

(* Regression (PR 5): append_bt used to rebuild the whole list per
   append ([t.backward_transfers @ [bt]], quadratic). A 50k-BT epoch
   would take tens of seconds on that path; the O(1) prepend finishes
   in well under the generous bound below, with the accumulator fold
   order — and hence the certificate's bt_list/bt_root — unchanged. *)
let test_bt_append_linear () =
  let n = 50_000 in
  let bts =
    List.init n (fun i ->
        Backward_transfer.make
          ~receiver_addr:(Hash.of_string (Printf.sprintf "bt-lin-%d" (i mod 7)))
          ~amount:(amount (i + 1)))
  in
  let t0 = Unix.gettimeofday () in
  let final = List.fold_left Sc_state.append_bt (Sc_state.create params) bts in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb
    (Printf.sprintf "50k appends stay linear (%.2fs)" elapsed)
    true (elapsed < 5.0);
  checki "count carried" n (Sc_state.bt_count final);
  checkb "read-back order is append order" true
    (List.for_all2 Backward_transfer.equal bts
       (Sc_state.backward_transfers final));
  (* The accumulator folds oldest-first exactly as before. *)
  let expected_acc = List.fold_left Fixtures.bt_acc_step Fp.zero bts in
  checkb "bt_acc unchanged" true (Fp.equal final.Sc_state.bt_acc expected_acc);
  checkb "certificate bt_root unchanged" true
    (Hash.equal
       (Backward_transfer.list_root (Sc_state.backward_transfers final))
       (Backward_transfer.list_root bts))

let test_state_hash_tracks_components () =
  let st = Sc_state.create params in
  let st_bt =
    Sc_state.append_bt st
      (Backward_transfer.make ~receiver_addr:Hash.zero ~amount:(amount 1))
  in
  checkb "bt changes hash" false
    (Fp.equal (Sc_state.hash st) (Sc_state.hash st_bt));
  let reset = Sc_state.reset_epoch st_bt in
  checkb "reset restores hash" true
    (Fp.equal (Sc_state.hash st) (Sc_state.hash reset))

(* ---- leader election ---- *)

let test_leader_deterministic_and_proportional () =
  let a = Hash.of_string "staker-a" and b = Hash.of_string "staker-b" in
  let d = Leader.of_list [ (a, amount 900); (b, amount 100) ] in
  let rand = Hash.of_string "epoch-rand" in
  let l1 = Leader.select d ~rand ~slot:5 in
  checkb "deterministic" true (l1 = Leader.select d ~rand ~slot:5);
  let wins_a = ref 0 in
  for slot = 0 to 999 do
    match Leader.select d ~rand ~slot with
    | Some l when Hash.equal l a -> incr wins_a
    | _ -> ()
  done;
  (* 90% stake: expect roughly 900 slots, allow generous tolerance. *)
  checkb
    (Printf.sprintf "proportional (a won %d)" !wins_a)
    true
    (!wins_a > 850 && !wins_a < 950)

let test_leader_empty () =
  checkb "empty yields none" true
    (Leader.select (Leader.of_list []) ~rand:Hash.zero ~slot:0 = None)

let test_leader_of_mst () =
  let m = Mst.create params in
  let m, _ = ok (mst_insert m (utxo ~addr:"s1" ~amt:10 "l1")) in
  let m, _ = ok (mst_insert m (utxo ~addr:"s1" ~amt:10 "l2")) in
  let m, _ = ok (mst_insert m (utxo ~addr:"s2" ~amt:20 "l3")) in
  (* s1's two coins count as one stake of 20 *)
  let d = Leader.of_mst m in
  let expected =
    Leader.of_list
      [ (Hash.of_string "s1", amount 20); (Hash.of_string "s2", amount 20) ]
  in
  checkb "stake folds per address" true
    (List.for_all
       (fun slot ->
         Leader.select d ~rand:Hash.zero ~slot
         = Leader.select expected ~rand:Hash.zero ~slot)
       (List.init 64 Fun.id))

(* ---- circuits ---- *)

let family = Circuits.make params

let test_step_proofs_all_kinds () =
  let st = Sc_state.create params in
  let u = utxo "step-u" in
  (* insert *)
  let proof, vk, s_from, s_to = ok (Circuits.prove_step family st (Sc_tx.Insert u)) in
  let public = [| s_from; s_to |] in
  checkb "insert verifies" true (Zen_snark.Backend.verify vk ~public proof);
  checkb "s_from = state" true (Fp.equal s_from (Sc_state.hash st));
  let st1 = ok (Sc_tx.apply_step st (Sc_tx.Insert u)) in
  checkb "s_to matches" true (Fp.equal s_to (Sc_state.hash st1));
  (* remove *)
  let proof, vk, s_from, s_to = ok (Circuits.prove_step family st1 (Sc_tx.Remove u)) in
  let public = [| s_from; s_to |] in
  checkb "remove verifies" true (Zen_snark.Backend.verify vk ~public proof);
  ignore s_from;
  (* append_bt *)
  let bt = Backward_transfer.make ~receiver_addr:Hash.zero ~amount:(amount 3) in
  let proof, vk, s_from2, s_to2 =
    ok (Circuits.prove_step family st1 (Sc_tx.Append_bt bt))
  in
  let public = [| s_from2; s_to2 |] in
  checkb "append verifies" true (Zen_snark.Backend.verify vk ~public proof);
  ignore s_to

let test_step_proof_requires_valid_step () =
  let st = Sc_state.create params in
  let u = utxo "ghost" in
  checkb "remove absent fails" true
    (Result.is_error (Circuits.prove_step family st (Sc_tx.Remove u)))

let test_ownership_proof () =
  let u = utxo "own" in
  let m, _ = ok (mst_insert (Mst.create params) u) in
  let receiver = Hash.of_string "mc-recv" in
  let reference_block = Hash.of_string "refblock" in
  let proofdata = [ Proofdata.Blob (Utxo.encode u) ] in
  let proof =
    ok (Circuits.prove_ownership family ~mst:m ~utxo:u ~reference_block ~receiver ~proofdata)
  in
  let public =
    Array.append
      (Mainchain_withdrawal.sysdata ~reference_block
         ~nullifier:(Utxo.nullifier u) ~receiver ~amount:u.Utxo.amount)
      [| Proofdata.root_fp proofdata |]
  in
  checkb "verifies" true
    (Zen_snark.Backend.verify (Circuits.ownership_keys family).vk ~public proof);
  (* claiming a different amount must fail verification *)
  let forged =
    Array.append
      (Mainchain_withdrawal.sysdata ~reference_block
         ~nullifier:(Utxo.nullifier u) ~receiver ~amount:(amount 999999))
      [| Proofdata.root_fp proofdata |]
  in
  checkb "forged amount rejected" false
    (Zen_snark.Backend.verify (Circuits.ownership_keys family).vk ~public:forged proof);
  (* a utxo not in the tree cannot be proven *)
  checkb "absent utxo" true
    (Result.is_error
       (Circuits.prove_ownership family ~mst:m ~utxo:(utxo "absent")
          ~reference_block ~receiver ~proofdata))

(* ---- prover pool (§5.4.1) ---- *)

let test_prover_pool_dispatch_uniform () =
  let rng = Rng.create 5 in
  let a = Prover_pool.dispatch ~rng ~workers:4 ~tasks:4000 in
  let counts = Array.make 4 0 in
  Array.iter (fun w -> counts.(w) <- counts.(w) + 1) a;
  Array.iter
    (fun c ->
      checkb (Printf.sprintf "roughly uniform (%d)" c) true
        (c > 800 && c < 1200))
    counts

let test_prover_pool_epoch () =
  let st = Sc_state.create params in
  let steps =
    List.init 6 (fun i ->
        Sc_tx.Insert
          (Utxo.make ~addr:(Hash.of_string "pool") ~amount:(amount (i + 1))
             ~nonce:(Hash.of_string (Printf.sprintf "pp-%d" i))))
  in
  let rsys =
    Zen_snark.Recursive.create ~name:"pool-test" ~base_vks:(Circuits.base_vks family)
  in
  let proofs, stats, top =
    ok
      (Prover_pool.prove_and_merge family rsys ~initial:st ~steps ~workers:3
         ~seed:11)
  in
  checki "all tasks proven" 6 stats.Prover_pool.tasks;
  checki "one proof per step" 6 (List.length proofs);
  checki "all rewarded" 6
    (List.fold_left (fun a (_, r) -> a + r) 0 stats.Prover_pool.rewards);
  (* proofs chain across the whole epoch *)
  checkb "merged proof verifies" true (Zen_snark.Recursive.verify rsys top);
  checkb "spans the epoch" true
    (Fp.equal (Zen_snark.Recursive.s_from top) (Sc_state.hash st));
  checki "covers all steps" 6 (Zen_snark.Recursive.base_count top)

(* ---- sc blocks ---- *)

let test_sc_block_signature () =
  let w = Sc_wallet.create ~seed:"forger-sig" in
  let addr = Sc_wallet.fresh_address w in
  let sk = Option.get (Sc_wallet.secret_for w addr) in
  let b =
    Sc_block.forge ~parent:Sc_block.genesis_parent ~height:0 ~slot:3 ~sk
      ~mc_refs:[] ~txs:[] ~state_hash:Fp.zero
  in
  checkb "signature valid" true (Sc_block.verify_signature b);
  checkb "forger addr" true (Hash.equal (Sc_block.forger_addr b) addr);
  let tampered = { b with Sc_block.height = 1 } in
  checkb "tamper detected" false (Sc_block.verify_signature tampered)

let suite =
  ( "latus",
    [
      Alcotest.test_case "utxo identity" `Quick test_utxo_identity;
      Alcotest.test_case "utxo commitment" `Quick test_utxo_commitment_binds_fields;
      Alcotest.test_case "mst insert/remove" `Quick test_mst_insert_remove;
      Alcotest.test_case "mst balance" `Quick test_mst_balance;
      Alcotest.test_case "mst delta" `Quick test_mst_delta;
      Alcotest.test_case "mst delta appendix A" `Quick
        test_mst_delta_appendix_a_scenario;
      Alcotest.test_case "mst slot proofs" `Quick test_mst_slot_proofs;
      Alcotest.test_case "payment roundtrip" `Quick test_payment_roundtrip;
      Alcotest.test_case "payment bad sig" `Quick test_payment_rejects_bad_sig;
      Alcotest.test_case "payment overdraw/nonce" `Quick
        test_payment_rejects_overdraw_and_foreign_nonce;
      Alcotest.test_case "payment output slots" `Quick test_payment_output_slots;
      Alcotest.test_case "payment applies its steps once" `Quick
        test_payment_applies_once;
      Alcotest.test_case "ft accept/reject" `Quick test_ft_accept_and_reject;
      Alcotest.test_case "ft slot collision" `Quick test_ft_slot_collision;
      Alcotest.test_case "bt tx" `Quick test_bt_tx;
      Alcotest.test_case "btr tx" `Quick test_btr_tx;
      Alcotest.test_case "bt append linear" `Quick test_bt_append_linear;
      Alcotest.test_case "state hash" `Quick test_state_hash_tracks_components;
      Alcotest.test_case "leader proportional" `Quick
        test_leader_deterministic_and_proportional;
      Alcotest.test_case "leader empty" `Quick test_leader_empty;
      Alcotest.test_case "leader of mst" `Quick test_leader_of_mst;
      Alcotest.test_case "step proofs" `Quick test_step_proofs_all_kinds;
      Alcotest.test_case "step proof validity" `Quick
        test_step_proof_requires_valid_step;
      Alcotest.test_case "ownership proof" `Quick test_ownership_proof;
      Alcotest.test_case "prover pool dispatch" `Quick
        test_prover_pool_dispatch_uniform;
      Alcotest.test_case "prover pool epoch" `Quick test_prover_pool_epoch;
      Alcotest.test_case "sc block signature" `Quick test_sc_block_signature;
    ] )
