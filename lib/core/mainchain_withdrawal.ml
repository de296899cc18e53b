open Zen_crypto
open Zen_snark

type kind = Btr | Csw

type t = {
  kind : kind;
  ledger_id : Hash.t;
  receiver : Hash.t;
  amount : Amount.t;
  nullifier : Hash.t;
  proofdata : Proofdata.t;
  proof : Backend.proof;
}

let make ~kind ~ledger_id ~receiver ~amount ~nullifier ~proofdata ~proof =
  { kind; ledger_id; receiver; amount; nullifier; proofdata; proof }

let kind_tag = function Btr -> "btr" | Csw -> "csw"

let hash t =
  Hash.tagged "cctp.mc_withdrawal"
    [
      kind_tag t.kind;
      Hash.to_raw t.ledger_id;
      Hash.to_raw t.receiver;
      string_of_int (Amount.to_int t.amount);
      Hash.to_raw t.nullifier;
      Proofdata.encode t.proofdata;
    ]

let sysdata ~reference_block ~nullifier ~receiver ~amount =
  [|
    Hash.to_fp reference_block;
    Hash.to_fp nullifier;
    Hash.to_fp receiver;
    Amount.to_fp amount;
  |]

let public_input t ~reference_block =
  Array.append
    (sysdata ~reference_block ~nullifier:t.nullifier ~receiver:t.receiver
       ~amount:t.amount)
    [| Proofdata.root_fp t.proofdata |]
