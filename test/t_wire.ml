(* Wire-format roundtrips and malformed-input rejection for every
   codec: CCTP objects, mainchain transactions/blocks, Latus
   transactions/references/blocks. *)

open Zen_crypto
open Zendoo

let checkb = Alcotest.(check bool)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

(* ---- primitives ---- *)

let test_wire_primitives () =
  let w = Wire.writer () in
  Wire.u8 w 200;
  Wire.u32 w 123456;
  Wire.u63 w max_int;
  Wire.bool w true;
  Wire.varbytes w "hello";
  Wire.list w (Wire.u8 w) [ 1; 2; 3 ];
  Wire.option w (Wire.u32 w) None;
  Wire.option w (Wire.u32 w) (Some 9);
  let r = Wire.reader (Wire.contents w) in
  let ( let* ) = Wire.( let* ) in
  let result =
    let* a = Wire.read_u8 r in
    let* b = Wire.read_u32 r in
    let* c = Wire.read_u63 r in
    let* d = Wire.read_bool r in
    let* e = Wire.read_varbytes r in
    let* f = Wire.read_list r Wire.read_u8 in
    let* g = Wire.read_option r Wire.read_u32 in
    let* h = Wire.read_option r Wire.read_u32 in
    let* () = Wire.expect_end r in
    Ok (a, b, c, d, e, f, g, h)
  in
  match result with
  | Error e -> Alcotest.fail e
  | Ok (a, b, c, d, e, f, g, h) ->
    checkb "all fields" true
      (a = 200 && b = 123456 && c = max_int && d && e = "hello"
     && f = [ 1; 2; 3 ] && g = None && h = Some 9)

let test_wire_truncation () =
  let w = Wire.writer () in
  Wire.u32 w 7;
  let full = Wire.contents w in
  let truncated = String.sub full 0 2 in
  checkb "truncated rejected" true
    (Result.is_error (Wire.read_u32 (Wire.reader truncated)));
  (* oversize list count *)
  let w = Wire.writer () in
  Wire.u32 w 99999999;
  checkb "huge list rejected" true
    (Result.is_error
       (Wire.read_list ~max:10 (Wire.reader (Wire.contents w)) Wire.read_u8))

(* A count field under the structural [max] but impossible to satisfy
   with the remaining bytes must be rejected up front — no allocation
   or iteration on the attacker's say-so. *)
let test_wire_count_dos () =
  let checks = Alcotest.(check string) in
  (* hollow list: 1_000_000 (< default max 2^20) elements claimed,
     zero bytes follow the count *)
  let w = Wire.writer () in
  Wire.u32 w 1_000_000;
  (match Wire.read_list (Wire.reader (Wire.contents w)) Wire.read_u8 with
  | Ok _ -> Alcotest.fail "hollow list accepted"
  | Error e ->
    checks "list error" "wire: list count exceeds remaining input" e);
  (* declared element floor: 10 hash-sized elements cannot fit in 20
     bytes even though the count alone looks harmless *)
  let w = Wire.writer () in
  Wire.u32 w 10;
  Wire.fixed w (String.make 20 'x');
  checkb "min_elem_size rejects" true
    (Result.is_error
       (Wire.read_list ~min_elem_size:Hash.size
          (Wire.reader (Wire.contents w))
          Wire.read_hash));
  (* hollow varbytes: claimed length far beyond the buffer *)
  let w = Wire.writer () in
  Wire.u32 w 500_000;
  Wire.fixed w "abc";
  (match Wire.read_varbytes (Wire.reader (Wire.contents w)) with
  | Ok _ -> Alcotest.fail "hollow varbytes accepted"
  | Error e ->
    checks "varbytes error" "wire: varbytes length exceeds remaining input" e);
  (* the guard must not break well-formed input *)
  let w = Wire.writer () in
  Wire.list w (Wire.u8 w) [ 7; 8 ];
  checkb "legit list ok" true
    (Wire.read_list (Wire.reader (Wire.contents w)) Wire.read_u8 = Ok [ 7; 8 ]);
  let w = Wire.writer () in
  Wire.varbytes w "payload";
  checkb "legit varbytes ok" true
    (Wire.read_varbytes (Wire.reader (Wire.contents w)) = Ok "payload")

(* ---- CCTP objects ---- *)

let sample_proofdata =
  Proofdata.
    [
      Field (Fp.of_int 42);
      Digest (Hash.of_string "pd");
      Uint 123456;
      Blob (String.make 100 'b');
    ]

let sample_cert =
  Withdrawal_certificate.make ~ledger_id:(Hash.of_string "sc") ~epoch_id:3
    ~quality:17
    ~bt_list:
      [
        Backward_transfer.make ~receiver_addr:(Hash.of_string "r1")
          ~amount:(amount 5);
        Backward_transfer.make ~receiver_addr:(Hash.of_string "r2")
          ~amount:(amount 7);
      ]
    ~proofdata:sample_proofdata ~proof:Fixtures.zero_proof

let test_wcert_roundtrip () =
  let decoded = ok (Codec.decode_wcert (Codec.encode_wcert sample_cert)) in
  checkb "same hash" true
    (Hash.equal
       (Withdrawal_certificate.hash sample_cert)
       (Withdrawal_certificate.hash decoded));
  checkb "same proof" true
    (Fixtures.proof_equal sample_cert.proof decoded.proof)

(* The certificate id is a consensus value (tx ids, the commitment tree,
   verifier cache keys): pinned so a preimage change cannot pass
   silently. *)
let test_wcert_id_pinned () =
  Alcotest.(check string)
    "sample cert id"
    "c46cffdd1b847bfd0245e4b231697debc6bce8e427aa0d267d9991189916de85"
    (Hash.to_hex (Withdrawal_certificate.hash sample_cert))

let test_withdrawal_roundtrip () =
  List.iter
    (fun kind ->
      let m =
        Mainchain_withdrawal.make ~kind ~ledger_id:(Hash.of_string "sc")
          ~receiver:(Hash.of_string "recv") ~amount:(amount 999)
          ~nullifier:(Hash.of_string "nf") ~proofdata:sample_proofdata
          ~proof:Fixtures.zero_proof
      in
      let decoded = ok (Codec.decode_withdrawal (Codec.encode_withdrawal m)) in
      checkb "same hash" true
        (Hash.equal (Mainchain_withdrawal.hash m) (Mainchain_withdrawal.hash decoded)))
    [ Mainchain_withdrawal.Btr; Mainchain_withdrawal.Csw ]

let latus_family = Zen_latus.Circuits.make Zen_latus.Params.default

let sample_config =
  ok
    (Zen_latus.Node.config_for ~ledger_id:(Hash.of_string "cfg-sc")
       ~start_block:50 ~epoch_len:10 ~submit_len:3 latus_family)

let test_config_roundtrip () =
  let decoded = ok (Codec.decode_config (Codec.encode_config sample_config)) in
  checkb "same hash" true
    (Hash.equal (Sidechain_config.hash sample_config) (Sidechain_config.hash decoded));
  (* the decoded vk still verifies what the original verified *)
  checkb "vk digest" true
    (Hash.equal
       (Zen_snark.Backend.vk_digest sample_config.wcert_vk)
       (Zen_snark.Backend.vk_digest decoded.wcert_vk))

let test_config_decode_validates () =
  (* Corrupting epoch_len below the minimum must fail decoding: the
     decoder re-runs registration validation. *)
  let raw = Bytes.of_string (Codec.encode_config sample_config) in
  (* epoch_len is the u63 after ledger_id (32) + start_block (8). *)
  Bytes.set raw 40 '\001';
  for i = 41 to 47 do
    Bytes.set raw i '\000'
  done;
  checkb "invalid config rejected" true
    (Result.is_error (Codec.decode_config (Bytes.to_string raw)))

let test_trailing_bytes_rejected () =
  let enc = Codec.encode_wcert sample_cert ^ "junk" in
  checkb "trailing junk" true (Result.is_error (Codec.decode_wcert enc))

let test_wcert_hollow_bt_count_rejected () =
  (* Inflate the bt_list count of a valid encoding to 60000 (within the
     codec's structural max of 65536) without supplying the elements:
     the decoder must refuse before allocating or looping. The count is
     the u32 after ledger_id (32) + epoch_id (8) + quality (8). *)
  let raw = Bytes.of_string (Codec.encode_wcert sample_cert) in
  Bytes.set raw 48 '\x60';
  Bytes.set raw 49 '\xea';
  Bytes.set raw 50 '\x00';
  Bytes.set raw 51 '\x00';
  match Codec.decode_wcert (Bytes.to_string raw) with
  | Ok _ -> Alcotest.fail "hollow bt_list accepted"
  | Error e ->
    checkb "rejected by the count guard" true
      (e = "wire: list count exceeds remaining input")

(* ---- mainchain txs and blocks ---- *)

let test_mc_tx_roundtrips () =
  let open Zen_mainchain in
  let params = { Chain_state.default_params with pow = Pow.trivial } in
  let chain = ref (Chain.create ~params ~time:0 ()) in
  let w = Wallet.create ~seed:"wire" in
  let addr = Wallet.fresh_address w in
  for t = 1 to 4 do
    let b = ok (Miner.mine_empty !chain ~time:t ~miner_addr:addr) in
    chain := fst (ok (Chain.add_block !chain b))
  done;
  let st = Chain.tip_state !chain in
  let transfer =
    ok
      (Wallet.build_transfer w st
         ~outputs:
           [
             Tx.Coin { Tx.addr; amount = amount 123 };
             Tx.Ft
               (Forward_transfer.make ~ledger_id:(Hash.of_string "sc")
                  ~receiver_metadata:(String.make 64 'm')
                  ~amount:(amount 456));
           ]
         ~fee:(amount 10))
  in
  let samples =
    [
      Tx.Coinbase { height = 9; reward = { Tx.addr; amount = amount 50 } };
      transfer;
      Tx.Sc_create sample_config;
      Tx.Certificate sample_cert;
      Tx.Withdrawal_request
        (Mainchain_withdrawal.make ~kind:Mainchain_withdrawal.Csw
           ~ledger_id:(Hash.of_string "sc") ~receiver:addr ~amount:(amount 5)
           ~nullifier:(Hash.of_string "n") ~proofdata:[]
           ~proof:Fixtures.zero_proof);
    ]
  in
  List.iter
    (fun tx ->
      let decoded = ok (Mc_wire.decode_tx (Mc_wire.encode_tx tx)) in
      checkb "txid stable" true (Hash.equal (Tx.txid tx) (Tx.txid decoded)))
    samples;
  (* a whole block, signatures included *)
  let block, _ =
    ok (Miner.build_block !chain ~time:9 ~miner_addr:addr ~candidates:[ transfer ])
  in
  let decoded = ok (Mc_wire.decode_block (Mc_wire.encode_block block)) in
  checkb "block hash stable" true
    (Hash.equal (Block.hash block) (Block.hash decoded));
  (* the decoded block still passes full validation on a fork of the
     same parent state *)
  checkb "decoded block applies" true
    (Result.is_ok (Chain_state.apply_block (Chain.tip_state !chain) decoded))

(* ---- latus objects ---- *)

let test_sc_tx_roundtrips () =
  let open Zen_latus in
  let w = Sc_wallet.create ~seed:"scwire" in
  let addr = Sc_wallet.fresh_address w in
  let st = Sc_state.create Params.default in
  let coin = Utxo.make ~addr ~amount:(amount 500) ~nonce:(Hash.of_string "c") in
  let mst = Result.get_ok (Mst.apply_ops st.Sc_state.mst [ Mst.Op_insert coin ]) in
  let st = Sc_state.with_mst st mst in
  let pay = ok (Sc_wallet.build_payment w st ~to_:addr ~amount:(amount 100)) in
  let bt = ok (Sc_wallet.build_backward_transfer w st ~utxo:coin ~mc_receiver:addr) in
  let fttx =
    Sc_tx.Forward_transfers_tx
      {
        mcid = Hash.of_string "mc";
        fts =
          [
            Forward_transfer.make ~ledger_id:Hash.zero
              ~receiver_metadata:(Sc_tx.ft_metadata ~receiver:addr ~payback:addr)
              ~amount:(amount 7);
          ];
      }
  in
  List.iter
    (fun tx ->
      let decoded = ok (Sc_wire.decode_tx (Sc_wire.encode_tx tx)) in
      checkb "sc txid stable" true
        (Hash.equal (Sc_tx.txid tx) (Sc_tx.txid decoded)))
    [ pay; bt; fttx ];
  (* decoded payment still validates (signatures survive the trip) *)
  let decoded_pay = ok (Sc_wire.decode_tx (Sc_wire.encode_tx pay)) in
  checkb "decoded payment validates" true
    (Result.is_ok (Sc_tx.validate st decoded_pay))

let test_sc_block_roundtrip () =
  let open Zen_latus in
  let open Zen_mainchain in
  (* A real forged block with a real MC reference. *)
  let params = { Chain_state.default_params with pow = Pow.trivial } in
  let chain = ref (Chain.create ~params ~time:0 ()) in
  let mw = Wallet.create ~seed:"scbwire" in
  let addr = Wallet.fresh_address mw in
  for t = 1 to 3 do
    let b = ok (Miner.mine_empty !chain ~time:t ~miner_addr:addr) in
    chain := fst (ok (Chain.add_block !chain b))
  done;
  let mc_block = Fixtures.tip_block !chain in
  let mref = ok (Mc_ref.build ~ledger_id:(Hash.of_string "sc") mc_block) in
  let fw = Sc_wallet.create ~seed:"scbwire.forger" in
  let faddr = Sc_wallet.fresh_address fw in
  let sk = Option.get (Sc_wallet.secret_for fw faddr) in
  let block =
    Sc_block.forge ~parent:Sc_block.genesis_parent ~height:0 ~slot:4 ~sk
      ~mc_refs:[ mref ] ~txs:[] ~state_hash:(Fp.of_int 77)
  in
  let decoded = ok (Sc_wire.decode_block (Sc_wire.encode_block block)) in
  checkb "sc block hash stable" true
    (Hash.equal (Sc_block.hash block) (Sc_block.hash decoded));
  checkb "signature survives" true (Sc_block.verify_signature decoded);
  (* the reference inside still verifies against the MC commitment *)
  (match decoded.Sc_block.mc_refs with
  | [ r ] ->
    checkb "decoded ref verifies" true
      (Result.is_ok (Mc_ref.verify ~ledger_id:(Hash.of_string "sc") r))
  | _ -> Alcotest.fail "lost the reference");
  checkb "measurable size" true (Sc_wire.block_size_bytes block > 100)

(* ---- a witness key at infinity ---- *)

(* [bytes] with the varbytes field holding [pk] replaced by the
   one-byte encoding of the point at infinity. *)
let with_infinity_key bytes pk =
  let field s =
    let w = Wire.writer () in
    Wire.varbytes w s;
    Wire.contents w
  in
  let target = field (Schnorr.pk_encode pk) in
  let tl = String.length target in
  let rec find i =
    if i + tl > String.length bytes then Alcotest.fail "key field not found"
    else if String.equal (String.sub bytes i tl) target then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub bytes 0 i ^ field "\000"
  ^ String.sub bytes (i + tl) (String.length bytes - i - tl)

let test_mc_infinity_key_rejected () =
  let open Zen_mainchain in
  let params = { Chain_state.default_params with pow = Pow.trivial } in
  let chain = ref (Chain.create ~params ~time:0 ()) in
  let w = Wallet.create ~seed:"wire.inf" in
  let addr = Wallet.fresh_address w in
  for t = 1 to 4 do
    let b = ok (Miner.mine_empty !chain ~time:t ~miner_addr:addr) in
    chain := fst (ok (Chain.add_block !chain b))
  done;
  let tx =
    ok
      (Wallet.build_transfer w (Chain.tip_state !chain)
         ~outputs:[ Tx.Coin { Tx.addr; amount = amount 1 } ]
         ~fee:(amount 1))
  in
  let pk =
    match tx with
    | Tx.Transfer { inputs = i :: _; _ } -> i.Tx.pk
    | _ -> Alcotest.fail "not a transfer"
  in
  let forged = with_infinity_key (Mc_wire.encode_tx tx) pk in
  checkb "mc tx with infinity key rejected" true
    (Result.is_error (Mc_wire.decode_tx forged))

let test_sc_infinity_key_rejected () =
  let open Zen_latus in
  let w = Sc_wallet.create ~seed:"scwire.inf" in
  let addr = Sc_wallet.fresh_address w in
  let st = Sc_state.create Params.default in
  let coin = Utxo.make ~addr ~amount:(amount 500) ~nonce:(Hash.of_string "c") in
  let mst = Result.get_ok (Mst.apply_ops st.Sc_state.mst [ Mst.Op_insert coin ]) in
  let st = Sc_state.with_mst st mst in
  let pay = ok (Sc_wallet.build_payment w st ~to_:addr ~amount:(amount 100)) in
  let pk =
    match pay with
    | Sc_tx.Payment { witnesses = (pk, _) :: _; _ } -> pk
    | _ -> Alcotest.fail "not a payment"
  in
  let forged = with_infinity_key (Sc_wire.encode_tx pay) pk in
  checkb "sc tx with infinity key rejected" true
    (Result.is_error (Sc_wire.decode_tx forged))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:100 gen f)

(* The [cctp.wcert] preimage, recomputed here from the fields. *)
let wcert_id_of_fields (c : Withdrawal_certificate.t) =
  Hash.tagged "cctp.wcert"
    [
      Hash.to_raw c.ledger_id;
      string_of_int c.epoch_id;
      string_of_int c.quality;
      Hash.to_raw (Backward_transfer.list_root c.bt_list);
      Proofdata.encode c.proofdata;
    ]

let gen_wcert =
  let open QCheck2.Gen in
  let gen_hash = map Hash.of_string (string_size (int_bound 8)) in
  let gen_bt =
    map2
      (fun receiver_addr n ->
        Backward_transfer.make ~receiver_addr ~amount:(amount n))
      gen_hash (int_range 1 1_000_000)
  in
  let gen_elem =
    oneof
      [
        map (fun n -> Proofdata.Field (Fp.of_int n)) (int_bound max_int);
        map (fun h -> Proofdata.Digest h) gen_hash;
        map (fun n -> Proofdata.Uint n) (int_bound 1_000_000);
        map (fun b -> Proofdata.Blob b) (string_size (int_bound 600));
      ]
  in
  let* ledger_id = gen_hash in
  let* epoch_id = int_bound 10_000 in
  let* quality = int_bound 10_000 in
  let* bt_list = list_size (int_bound 6) gen_bt in
  let* proofdata = list_size (int_bound 4) gen_elem in
  pure
    (Withdrawal_certificate.make ~ledger_id ~epoch_id ~quality ~bt_list
       ~proofdata ~proof:Fixtures.zero_proof)

let props =
  [
    prop "wcert id = cctp.wcert digest of its fields, kept by the codec"
      gen_wcert (fun c ->
        let id = Withdrawal_certificate.hash c in
        Hash.equal id (wcert_id_of_fields c)
        &&
        match Codec.decode_wcert (Codec.encode_wcert c) with
        | Ok c' ->
          Hash.equal (Withdrawal_certificate.hash c') id
          && Hash.equal (wcert_id_of_fields c') id
        | Error _ -> false);
    prop "ft roundtrip"
      QCheck2.Gen.(pair (string_size (int_bound 100)) (int_bound 1_000_000))
      (fun (meta, amt) ->
        let ft =
          Forward_transfer.make ~ledger_id:(Hash.of_string meta)
            ~receiver_metadata:meta ~amount:(amount amt)
        in
        let w = Wire.writer () in
        Codec.write_ft w ft;
        match Codec.read_ft (Wire.reader (Wire.contents w)) with
        | Ok ft' -> Forward_transfer.equal ft ft'
        | Error _ -> false);
    prop "random bytes never crash the block decoder"
      QCheck2.Gen.(string_size (int_bound 400))
      (fun junk ->
        match Zen_mainchain.Mc_wire.decode_block junk with
        | Ok _ | Error _ -> true);
    prop "random bytes never crash the wcert decoder"
      QCheck2.Gen.(string_size (int_bound 400))
      (fun junk -> match Codec.decode_wcert junk with Ok _ | Error _ -> true);
  ]

let suite =
  ( "wire",
    [
      Alcotest.test_case "primitives" `Quick test_wire_primitives;
      Alcotest.test_case "truncation" `Quick test_wire_truncation;
      Alcotest.test_case "count DoS guards" `Quick test_wire_count_dos;
      Alcotest.test_case "hollow bt count" `Quick
        test_wcert_hollow_bt_count_rejected;
      Alcotest.test_case "wcert roundtrip" `Quick test_wcert_roundtrip;
      Alcotest.test_case "wcert id pinned" `Quick test_wcert_id_pinned;
      Alcotest.test_case "withdrawal roundtrip" `Quick test_withdrawal_roundtrip;
      Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
      Alcotest.test_case "config decode validates" `Quick test_config_decode_validates;
      Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
      Alcotest.test_case "mc tx/block roundtrips" `Quick test_mc_tx_roundtrips;
      Alcotest.test_case "sc tx roundtrips" `Quick test_sc_tx_roundtrips;
      Alcotest.test_case "sc block roundtrip" `Quick test_sc_block_roundtrip;
      Alcotest.test_case "mc infinity key rejected" `Quick
        test_mc_infinity_key_rejected;
      Alcotest.test_case "sc infinity key rejected" `Quick
        test_sc_infinity_key_rejected;
    ]
    @ props )
