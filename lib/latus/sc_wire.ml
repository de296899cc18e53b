open Zen_crypto
open Zen_mainchain
open Zendoo

let ( let* ) = Wire.( let* )

let write_utxo w (u : Utxo.t) = Wire.fixed w (Utxo.encode u)

let read_utxo r =
  let* raw = Wire.read_fixed r 72 in
  match Utxo.decode raw with
  | Some u -> Ok u
  | None -> Error "sc wire: malformed utxo"

let write_witness w (pk, signature) =
  Wire.varbytes w (Schnorr.pk_encode pk);
  Wire.varbytes w (Schnorr.sig_encode signature)

let read_witness r =
  let* pk_raw = Wire.read_varbytes ~max:128 r in
  let* pk =
    match Schnorr.pk_decode pk_raw with
    | Some pk -> Ok pk
    | None -> Error "sc wire: malformed public key"
  in
  let* sig_raw = Wire.read_varbytes ~max:128 r in
  match Schnorr.sig_decode sig_raw with
  | Some s -> Ok (pk, s)
  | None -> Error "sc wire: malformed signature"

let write_tx w = function
  | Sc_tx.Payment { inputs; witnesses; outputs } ->
    Wire.u8 w 0;
    Wire.list w (write_utxo w) inputs;
    Wire.list w (write_witness w) witnesses;
    Wire.list w (write_utxo w) outputs
  | Sc_tx.Forward_transfers_tx { mcid; fts } ->
    Wire.u8 w 1;
    Wire.hash w mcid;
    Wire.list w (Codec.write_ft w) fts
  | Sc_tx.Backward_transfer_tx { bt_input; bt_witness; bt } ->
    Wire.u8 w 2;
    write_utxo w bt_input;
    write_witness w bt_witness;
    Codec.write_bt w bt
  | Sc_tx.Backward_transfer_requests_tx { mcid; btrs } ->
    Wire.u8 w 3;
    Wire.hash w mcid;
    Wire.list w (Codec.write_withdrawal w) btrs

let read_tx r =
  let* tag = Wire.read_u8 r in
  match tag with
  | 0 ->
    let* inputs = Wire.read_list ~max:4 r read_utxo in
    let* witnesses = Wire.read_list ~max:4 r read_witness in
    let* outputs = Wire.read_list ~max:4 r read_utxo in
    Ok (Sc_tx.Payment { inputs; witnesses; outputs })
  | 1 ->
    let* mcid = Wire.read_hash r in
    let* fts = Wire.read_list ~max:65536 r Codec.read_ft in
    Ok (Sc_tx.Forward_transfers_tx { mcid; fts })
  | 2 ->
    let* bt_input = read_utxo r in
    let* bt_witness = read_witness r in
    let* bt = Codec.read_bt r in
    Ok (Sc_tx.Backward_transfer_tx { bt_input; bt_witness; bt })
  | 3 ->
    let* mcid = Wire.read_hash r in
    let* btrs = Wire.read_list ~max:65536 r Codec.read_withdrawal in
    Ok (Sc_tx.Backward_transfer_requests_tx { mcid; btrs })
  | n -> Error (Printf.sprintf "sc wire: unknown tx tag %d" n)

let write_mc_ref w (m : Mc_ref.t) =
  Wire.fixed w (Mc_wire.encode_header m.header);
  Wire.option w (Sc_commitment.write_membership w) m.mproof;
  Wire.option w (Sc_commitment.write_absence w) m.proof_of_no_data;
  Wire.list w (Codec.write_ft w) m.fts;
  Wire.list w (Codec.write_withdrawal w) m.btrs;
  Wire.option w (Codec.write_wcert w) m.wcert

let header_wire_size = (4 * Hash.size) + (3 * 8)

let read_mc_ref r =
  let* header_raw = Wire.read_fixed r header_wire_size in
  let* header = Mc_wire.decode_header header_raw in
  let* mproof = Wire.read_option r Sc_commitment.read_membership in
  let* proof_of_no_data = Wire.read_option r Sc_commitment.read_absence in
  let* fts = Wire.read_list ~max:65536 r Codec.read_ft in
  let* btrs = Wire.read_list ~max:65536 r Codec.read_withdrawal in
  let* wcert = Wire.read_option r Codec.read_wcert in
  Ok { Mc_ref.header; mproof; proof_of_no_data; fts; btrs; wcert }

let write_block w (b : Sc_block.t) =
  Wire.hash w b.parent;
  Wire.u63 w b.height;
  Wire.u63 w b.slot;
  Wire.varbytes w (Schnorr.pk_encode b.forger_pk);
  Wire.varbytes w (Schnorr.sig_encode b.signature);
  Wire.list w (write_mc_ref w) b.mc_refs;
  Wire.list w (write_tx w) b.txs;
  Wire.fp w b.state_hash

let read_block r =
  let* parent = Wire.read_hash r in
  let* height = Wire.read_u63 r in
  let* slot = Wire.read_u63 r in
  let* pk_raw = Wire.read_varbytes ~max:128 r in
  let* forger_pk =
    match Schnorr.pk_decode pk_raw with
    | Some pk -> Ok pk
    | None -> Error "sc wire: malformed forger key"
  in
  let* sig_raw = Wire.read_varbytes ~max:128 r in
  let* signature =
    match Schnorr.sig_decode sig_raw with
    | Some s -> Ok s
    | None -> Error "sc wire: malformed block signature"
  in
  let* mc_refs = Wire.read_list ~max:4096 r read_mc_ref in
  let* txs = Wire.read_list ~max:65536 r read_tx in
  let* state_hash = Wire.read_fp r in
  Ok
    {
      Sc_block.parent;
      height;
      slot;
      forger_pk;
      signature;
      mc_refs;
      txs;
      state_hash;
    }

let encode_tx tx = Wire.encode write_tx tx
let decode_tx s = Wire.decode read_tx s
let encode_block b = Wire.encode write_block b
let decode_block s = Wire.decode read_block s
let block_size_bytes b = String.length (encode_block b)
let encode_mc_ref m = Wire.encode write_mc_ref m
let mc_ref_size_bytes m = String.length (encode_mc_ref m)
