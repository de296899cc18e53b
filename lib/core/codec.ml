open Zen_crypto
open Zen_snark

let ( let* ) = Wire.( let* )

let write_amount w a = Wire.u63 w (Amount.to_int a)

let read_amount r =
  let* v = Wire.read_u63 r in
  Amount.of_int v

let write_ft w (ft : Forward_transfer.t) =
  Wire.hash w ft.ledger_id;
  Wire.varbytes w ft.receiver_metadata;
  write_amount w ft.amount

let read_ft r =
  let* ledger_id = Wire.read_hash r in
  let* receiver_metadata = Wire.read_varbytes ~max:4096 r in
  let* amount = read_amount r in
  Ok (Forward_transfer.make ~ledger_id ~receiver_metadata ~amount)

let write_bt w (bt : Backward_transfer.t) =
  Wire.hash w bt.receiver_addr;
  write_amount w bt.amount

let read_bt r =
  let* receiver_addr = Wire.read_hash r in
  let* amount = read_amount r in
  Ok (Backward_transfer.make ~receiver_addr ~amount)

let write_proofdata_elem w = function
  | Proofdata.Field f ->
    Wire.u8 w 0;
    Wire.fp w f
  | Proofdata.Digest d ->
    Wire.u8 w 1;
    Wire.hash w d
  | Proofdata.Uint n ->
    Wire.u8 w 2;
    Wire.u63 w n
  | Proofdata.Blob b ->
    Wire.u8 w 3;
    Wire.varbytes w b

let read_proofdata_elem r =
  let* tag = Wire.read_u8 r in
  match tag with
  | 0 ->
    let* f = Wire.read_fp r in
    Ok (Proofdata.Field f)
  | 1 ->
    let* d = Wire.read_hash r in
    Ok (Proofdata.Digest d)
  | 2 ->
    let* n = Wire.read_u63 r in
    Ok (Proofdata.Uint n)
  | 3 ->
    let* b = Wire.read_varbytes r in
    Ok (Proofdata.Blob b)
  | n -> Error (Printf.sprintf "codec: unknown proofdata tag %d" n)

let write_proofdata w pd = Wire.list w (write_proofdata_elem w) pd

let read_proofdata r =
  (* Smallest element: a Blob with tag byte + empty varbytes = 5. *)
  Wire.read_list ~max:256 ~min_elem_size:5 r read_proofdata_elem

let write_proof w proof = Wire.varbytes w (Backend.proof_encode proof)

let read_proof r =
  let* raw = Wire.read_varbytes ~max:1024 r in
  match Backend.proof_decode raw with
  | Some p -> Ok p
  | None -> Error "codec: malformed SNARK proof"

let write_vk w vk = Wire.varbytes w (Backend.vk_encode vk)

let read_vk r =
  let* raw = Wire.read_varbytes ~max:1024 r in
  match Backend.vk_decode raw with
  | Some vk -> Ok vk
  | None -> Error "codec: malformed verification key"

let write_wcert w (c : Withdrawal_certificate.t) =
  Wire.hash w c.ledger_id;
  Wire.u63 w c.epoch_id;
  Wire.u63 w c.quality;
  Wire.list w (write_bt w) c.bt_list;
  write_proofdata w c.proofdata;
  write_proof w c.proof

let read_wcert r =
  let* ledger_id = Wire.read_hash r in
  let* epoch_id = Wire.read_u63 r in
  let* quality = Wire.read_u63 r in
  (* A backward transfer is at least 40 bytes (hash + amount); reject
     counts that cannot fit before looping. *)
  let* bt_list =
    Wire.read_list ~max:65536 ~min_elem_size:(Hash.size + 8) r read_bt
  in
  let* proofdata = read_proofdata r in
  let* proof = read_proof r in
  Ok
    (Withdrawal_certificate.make ~ledger_id ~epoch_id ~quality ~bt_list
       ~proofdata ~proof)

let write_withdrawal w (m : Mainchain_withdrawal.t) =
  Wire.u8 w (match m.kind with Mainchain_withdrawal.Btr -> 0 | Mainchain_withdrawal.Csw -> 1);
  Wire.hash w m.ledger_id;
  Wire.hash w m.receiver;
  write_amount w m.amount;
  Wire.hash w m.nullifier;
  write_proofdata w m.proofdata;
  write_proof w m.proof

let read_withdrawal r =
  let* tag = Wire.read_u8 r in
  let* kind =
    match tag with
    | 0 -> Ok Mainchain_withdrawal.Btr
    | 1 -> Ok Mainchain_withdrawal.Csw
    | n -> Error (Printf.sprintf "codec: unknown withdrawal kind %d" n)
  in
  let* ledger_id = Wire.read_hash r in
  let* receiver = Wire.read_hash r in
  let* amount = read_amount r in
  let* nullifier = Wire.read_hash r in
  let* proofdata = read_proofdata r in
  let* proof = read_proof r in
  Ok
    (Mainchain_withdrawal.make ~kind ~ledger_id ~receiver ~amount ~nullifier
       ~proofdata ~proof)

let write_schema_elem w (e : Proofdata.elem_type) =
  Wire.u8 w
    (match e with
    | Proofdata.Tfield -> 0
    | Proofdata.Tdigest -> 1
    | Proofdata.Tuint -> 2
    | Proofdata.Tblob -> 3)

let read_schema_elem r =
  let* tag = Wire.read_u8 r in
  match tag with
  | 0 -> Ok Proofdata.Tfield
  | 1 -> Ok Proofdata.Tdigest
  | 2 -> Ok Proofdata.Tuint
  | 3 -> Ok Proofdata.Tblob
  | n -> Error (Printf.sprintf "codec: unknown schema tag %d" n)

let write_config w (c : Sidechain_config.t) =
  Wire.hash w c.ledger_id;
  Wire.u63 w c.start_block;
  Wire.u63 w c.epoch_len;
  Wire.u63 w c.submit_len;
  write_vk w c.wcert_vk;
  Wire.option w (write_vk w) c.btr_vk;
  Wire.option w (write_vk w) c.csw_vk;
  Wire.list w (write_schema_elem w) c.wcert_proofdata;
  Wire.list w (write_schema_elem w) c.btr_proofdata;
  Wire.list w (write_schema_elem w) c.csw_proofdata

let read_config r =
  let* ledger_id = Wire.read_hash r in
  let* start_block = Wire.read_u63 r in
  let* epoch_len = Wire.read_u63 r in
  let* submit_len = Wire.read_u63 r in
  let* wcert_vk = read_vk r in
  let* btr_vk = Wire.read_option r read_vk in
  let* csw_vk = Wire.read_option r read_vk in
  let* wcert_proofdata = Wire.read_list ~max:256 r read_schema_elem in
  let* btr_proofdata = Wire.read_list ~max:256 r read_schema_elem in
  let* csw_proofdata = Wire.read_list ~max:256 r read_schema_elem in
  (* Re-run registration validation: decoding must never produce a
     config that could not have been created. *)
  Sidechain_config.make ~ledger_id ~start_block ~epoch_len ~submit_len
    ~wcert_vk ?btr_vk ?csw_vk ~wcert_proofdata ~btr_proofdata ~csw_proofdata
    ()

let encode_wcert c = Wire.encode write_wcert c
let decode_wcert s = Wire.decode read_wcert s
let encode_withdrawal m = Wire.encode write_withdrawal m
let decode_withdrawal s = Wire.decode read_withdrawal s
let encode_config c = Wire.encode write_config c
let decode_config s = Wire.decode read_config s
