(* Baseline protocols: certifier committees and direct validation. *)

open Zen_crypto
open Zen_baselines
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let amount n = Amount.of_int_exn n

let bts n =
  List.init n (fun i ->
      Backward_transfer.make
        ~receiver_addr:(Hash.of_string (string_of_int i))
        ~amount:(amount (i + 1)))

let test_committee_threshold () =
  let c = Certifiers.committee_of_seed ~seed:"com" ~size:10 in
  let id = Hash.of_string "sc" in
  let cert =
    Certifiers.make_certificate c ~signers:[ 0; 1; 2; 3; 4; 5; 6 ] ~ledger_id:id
      ~epoch_id:3 ~bt_list:(bts 2)
  in
  checkb "meets 7" true (Result.is_ok (Certifiers.verify c ~threshold:7 cert));
  checkb "below 8" true (Result.is_error (Certifiers.verify c ~threshold:8 cert))

let test_committee_duplicates_and_strangers () =
  let c = Certifiers.committee_of_seed ~seed:"com2" ~size:5 in
  let id = Hash.of_string "sc" in
  let dup =
    Certifiers.make_certificate c ~signers:[ 0; 0; 1 ] ~ledger_id:id ~epoch_id:0
      ~bt_list:[]
  in
  checkb "duplicate" true (Result.is_error (Certifiers.verify c ~threshold:2 dup));
  (* signatures from one committee do not validate under another *)
  let other = Certifiers.committee_of_seed ~seed:"elsewhere" ~size:5 in
  let cert =
    Certifiers.make_certificate c ~signers:[ 0; 1; 2 ] ~ledger_id:id ~epoch_id:0
      ~bt_list:[]
  in
  checkb "foreign committee" true
    (Result.is_error (Certifiers.verify other ~threshold:3 cert))

let test_committee_binds_bt_list () =
  let c = Certifiers.committee_of_seed ~seed:"bind" ~size:4 in
  let id = Hash.of_string "sc" in
  let cert =
    Certifiers.make_certificate c ~signers:[ 0; 1; 2 ] ~ledger_id:id ~epoch_id:0
      ~bt_list:(bts 2)
  in
  (* Swap the BT list after signing. *)
  let forged = { cert with Certifiers.bt_list = bts 3 } in
  checkb "forged bt list" true
    (Result.is_error (Certifiers.verify c ~threshold:3 forged))

let test_direct_validation_replays () =
  let params = Zen_latus.Params.default in
  let w = Zen_latus.Sc_wallet.create ~seed:"dv" in
  let addr = Zen_latus.Sc_wallet.fresh_address w in
  let coin =
    Zen_latus.Utxo.make ~addr ~amount:(amount 50) ~nonce:(Hash.of_string "n")
  in
  let st0 = Zen_latus.Sc_state.create params in
  let mst =
    Result.get_ok
      (Zen_latus.Mst.apply_ops st0.Zen_latus.Sc_state.mst
         [ Zen_latus.Mst.Op_insert coin ])
  in
  let st0 = Zen_latus.Sc_state.with_mst st0 mst in
  let tx =
    Result.get_ok
      (Zen_latus.Sc_wallet.build_backward_transfer w st0 ~utxo:coin
         ~mc_receiver:(Hash.of_string "mc"))
  in
  match Direct_validation.replay_epoch ~params ~initial:st0 ~txs:[ tx ] with
  | Error e -> Alcotest.fail e
  | Ok final ->
    checkb "the replay derives the withdrawal" true
      (List.equal Backward_transfer.equal
         (Zen_latus.Sc_state.backward_transfers final)
         [ Backward_transfer.make ~receiver_addr:(Hash.of_string "mc")
             ~amount:(amount 50) ]);
    checkb "bytes positive" true (Direct_validation.epoch_data_bytes ~txs:[ tx ] > 0)

let suite =
  ( "baselines",
    [
      Alcotest.test_case "committee threshold" `Quick test_committee_threshold;
      Alcotest.test_case "committee dup/stranger" `Quick
        test_committee_duplicates_and_strangers;
      Alcotest.test_case "committee binds bts" `Quick test_committee_binds_bt_list;
      Alcotest.test_case "direct validation" `Quick test_direct_validation_replays;
    ] )
