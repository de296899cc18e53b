open Zen_crypto

type t = {
  ledger_id : Hash.t;
  receiver_metadata : string;
  amount : Amount.t;
}

let make ~ledger_id ~receiver_metadata ~amount =
  { ledger_id; receiver_metadata; amount }

let encode t =
  String.concat "|"
    [
      Hash.to_hex t.ledger_id;
      Sha256.to_hex (Sha256.digest t.receiver_metadata);
      string_of_int (Amount.to_int t.amount);
    ]

let hash t =
  Hash.tagged "cctp.ft"
    [
      Hash.to_raw t.ledger_id;
      t.receiver_metadata;
      string_of_int (Amount.to_int t.amount);
    ]

