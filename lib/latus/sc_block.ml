open Zen_crypto

type t = {
  parent : Hash.t;
  height : int;
  slot : int;
  forger_pk : Schnorr.public_key;
  signature : Schnorr.signature;
  mc_refs : Mc_ref.t list;
  txs : Sc_tx.t list;
  state_hash : Fp.t;
}

let genesis_parent = Hash.of_string "latus.genesis"

let body_parts t =
  [
    Hash.to_raw t.parent;
    string_of_int t.height;
    string_of_int t.slot;
    Schnorr.pk_encode t.forger_pk;
    String.concat ""
      (List.map (fun r -> Hash.to_raw (Mc_ref.block_hash r)) t.mc_refs);
    String.concat "" (List.map (fun tx -> Hash.to_raw (Sc_tx.txid tx)) t.txs);
    string_of_int (Fp.to_int t.state_hash);
  ]

let sighash t = Hash.tagged "latus.block.sig" (body_parts t)

let hash t =
  Hash.tagged "latus.block"
    (body_parts t @ [ Sha256.to_hex (Schnorr.sig_encode t.signature) ])

let forger_addr t = Schnorr.pk_hash t.forger_pk

let forge ~parent ~height ~slot ~sk ~mc_refs ~txs ~state_hash =
  let forger_pk = Schnorr.public_of_secret sk in
  let unsigned =
    {
      parent;
      height;
      slot;
      forger_pk;
      signature = Option.get (Schnorr.sig_decode (String.make 96 '\000'));
      mc_refs;
      txs;
      state_hash;
    }
  in
  let signature = Schnorr.sign sk (Hash.to_raw (sighash unsigned)) in
  { unsigned with signature }

let verify_signature t =
  Schnorr.verify t.forger_pk (Hash.to_raw (sighash t)) t.signature
