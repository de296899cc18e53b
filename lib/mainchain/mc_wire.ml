open Zen_crypto
open Zendoo

let ( let* ) = Wire.( let* )

let write_outpoint w (o : Tx.outpoint) =
  Wire.hash w o.txid;
  Wire.u32 w o.vout

let read_outpoint r =
  let* txid = Wire.read_hash r in
  let* vout = Wire.read_u32 r in
  Ok { Tx.txid; vout }

let write_coin_output w (c : Tx.coin_output) =
  Wire.hash w c.addr;
  Codec.write_amount w c.amount

let read_coin_output r =
  let* addr = Wire.read_hash r in
  let* amount = Codec.read_amount r in
  Ok { Tx.addr; amount }

let write_output w = function
  | Tx.Coin c ->
    Wire.u8 w 0;
    write_coin_output w c
  | Tx.Ft ft ->
    Wire.u8 w 1;
    Codec.write_ft w ft

let read_output r =
  let* tag = Wire.read_u8 r in
  match tag with
  | 0 ->
    let* c = read_coin_output r in
    Ok (Tx.Coin c)
  | 1 ->
    let* ft = Codec.read_ft r in
    Ok (Tx.Ft ft)
  | n -> Error (Printf.sprintf "mc wire: unknown output tag %d" n)

let write_input w (i : Tx.input) =
  write_outpoint w i.outpoint;
  Wire.varbytes w (Schnorr.pk_encode i.pk);
  Wire.varbytes w (Schnorr.sig_encode i.signature)

let read_input r =
  let* outpoint = read_outpoint r in
  let* pk_raw = Wire.read_varbytes ~max:128 r in
  let* pk =
    match Schnorr.pk_decode pk_raw with
    | Some pk -> Ok pk
    | None -> Error "mc wire: malformed public key"
  in
  let* sig_raw = Wire.read_varbytes ~max:128 r in
  let* signature =
    match Schnorr.sig_decode sig_raw with
    | Some s -> Ok s
    | None -> Error "mc wire: malformed signature"
  in
  Ok { Tx.outpoint; pk; signature }

let write_tx w = function
  | Tx.Coinbase { height; reward } ->
    Wire.u8 w 0;
    Wire.u63 w height;
    write_coin_output w reward
  | Tx.Transfer { inputs; outputs } ->
    Wire.u8 w 1;
    Wire.list w (write_input w) inputs;
    Wire.list w (write_output w) outputs
  | Tx.Sc_create config ->
    Wire.u8 w 2;
    Codec.write_config w config
  | Tx.Certificate cert ->
    Wire.u8 w 3;
    Codec.write_wcert w cert
  | Tx.Withdrawal_request m ->
    Wire.u8 w 4;
    Codec.write_withdrawal w m

let read_tx r =
  let* tag = Wire.read_u8 r in
  match tag with
  | 0 ->
    let* height = Wire.read_u63 r in
    let* reward = read_coin_output r in
    Ok (Tx.Coinbase { height; reward })
  | 1 ->
    let* inputs = Wire.read_list ~max:1024 r read_input in
    let* outputs = Wire.read_list ~max:1024 r read_output in
    Ok (Tx.Transfer { inputs; outputs })
  | 2 ->
    let* config = Codec.read_config r in
    Ok (Tx.Sc_create config)
  | 3 ->
    let* cert = Codec.read_wcert r in
    Ok (Tx.Certificate cert)
  | 4 ->
    let* m = Codec.read_withdrawal r in
    Ok (Tx.Withdrawal_request m)
  | n -> Error (Printf.sprintf "mc wire: unknown tx tag %d" n)

let write_header w (h : Block.header) =
  Wire.hash w h.prev;
  Wire.u63 w h.height;
  Wire.u63 w h.time;
  Wire.u63 w h.nonce;
  Wire.hash w h.tx_root;
  Wire.hash w h.sc_txs_commitment;
  Wire.hash w h.cert_aggregate

let read_header r =
  let* prev = Wire.read_hash r in
  let* height = Wire.read_u63 r in
  let* time = Wire.read_u63 r in
  let* nonce = Wire.read_u63 r in
  let* tx_root = Wire.read_hash r in
  let* sc_txs_commitment = Wire.read_hash r in
  let* cert_aggregate = Wire.read_hash r in
  Ok
    { Block.prev; height; time; nonce; tx_root; sc_txs_commitment;
      cert_aggregate }

let write_aggregate w a =
  Wire.hash w (Zen_snark.Aggregate.root a);
  Wire.u32 w (Zen_snark.Aggregate.count a);
  Wire.fixed w (Zen_snark.Backend.proof_encode (Zen_snark.Aggregate.proof a))

let read_aggregate r =
  let* root = Wire.read_hash r in
  let* count = Wire.read_u32 r in
  let* () =
    if count >= 1 then Ok ()
    else Error "mc wire: aggregate covers no certificates"
  in
  let* raw = Wire.read_fixed r Zen_snark.Backend.proof_size_bytes in
  let* proof =
    match Zen_snark.Backend.proof_decode raw with
    | Some p -> Ok p
    | None -> Error "mc wire: malformed aggregate proof"
  in
  Ok (Zen_snark.Aggregate.of_parts ~root ~count ~proof)

let write_block w (b : Block.t) =
  write_header w b.header;
  Wire.list w (write_tx w) b.txs;
  Wire.option w (write_aggregate w) b.aggregate

let read_block r =
  let* header = read_header r in
  let* txs = Wire.read_list ~max:65536 r read_tx in
  let* aggregate = Wire.read_option r read_aggregate in
  Ok { Block.header; txs; aggregate }

let encode_tx tx = Wire.encode write_tx tx
let decode_tx s = Wire.decode read_tx s
let encode_block b = Wire.encode write_block b
let decode_block s = Wire.decode read_block s
let encode_header h = Wire.encode write_header h
let decode_header s = Wire.decode read_header s

let block_size_bytes b = String.length (encode_block b)
