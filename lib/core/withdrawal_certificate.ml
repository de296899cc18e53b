open Zen_crypto
open Zen_snark

type t = {
  ledger_id : Hash.t;
  epoch_id : int;
  quality : int;
  bt_list : Backward_transfer.t list;
  proofdata : Proofdata.t;
  proof : Backend.proof;
  id : Hash.t;
}

(* The id is computed here, once: a certificate is immutable, and block
   validation asks for it several times per certificate (tx root,
   commitment tree, ledger leaf, verifier cache keys). *)
let make ~ledger_id ~epoch_id ~quality ~bt_list ~proofdata ~proof =
  let id =
    Hash.tagged "cctp.wcert"
      [
        Hash.to_raw ledger_id;
        string_of_int epoch_id;
        string_of_int quality;
        Hash.to_raw (Backward_transfer.list_root bt_list);
        Proofdata.encode proofdata;
      ]
  in
  { ledger_id; epoch_id; quality; bt_list; proofdata; proof; id }

let hash t = t.id

let total_withdrawn t =
  Amount.sum (List.map (fun (bt : Backward_transfer.t) -> bt.amount) t.bt_list)

let sysdata ~quality ~bt_root ~end_prev_epoch ~end_epoch =
  [|
    Fp.of_int quality;
    Hash.to_fp bt_root;
    Hash.to_fp end_prev_epoch;
    Hash.to_fp end_epoch;
  |]

let public_input t ~end_prev_epoch ~end_epoch =
  Array.append
    (sysdata ~quality:t.quality
       ~bt_root:(Backward_transfer.list_root t.bt_list)
       ~end_prev_epoch ~end_epoch)
    [| Proofdata.root_fp t.proofdata |]
