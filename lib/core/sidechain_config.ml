open Zen_crypto
open Zen_snark

type t = {
  ledger_id : Hash.t;
  start_block : int;
  epoch_len : int;
  submit_len : int;
  wcert_vk : Backend.verification_key;
  btr_vk : Backend.verification_key option;
  csw_vk : Backend.verification_key option;
  wcert_proofdata : Proofdata.schema;
  btr_proofdata : Proofdata.schema;
  csw_proofdata : Proofdata.schema;
}

(* The unified verifier interface fixes the public-input arity for
   every sidechain SNARK (see Verifier). *)
let expected_public = 5

let check_vk what vk =
  if Backend.vk_num_public vk <> expected_public then
    Error
      (Printf.sprintf "%s verification key expects %d public inputs, not %d"
         what (Backend.vk_num_public vk) expected_public)
  else Ok ()

(* [submit_len] may exceed [epoch_len]: a grace window longer than an
   epoch makes consecutive submission windows overlap, which is a
   legitimate configuration (slow certifiers get more time). The ledger
   enforces sequential certification so overlap can never strand an
   uncertified epoch (see Sc_ledger.accept_cert). *)
let check_schedule ~start_block ~epoch_len ~submit_len =
  if epoch_len < 2 then Error "sidechain config: epoch_len must be >= 2"
  else if submit_len < 1 then Error "sidechain config: submit_len must be >= 1"
  else if start_block < 0 then Error "sidechain config: negative start_block"
  else Ok ()

let make ~ledger_id ~start_block ~epoch_len ~submit_len ~wcert_vk ?btr_vk
    ?csw_vk ?(wcert_proofdata = []) ?(btr_proofdata = [])
    ?(csw_proofdata = []) () =
  let ( let* ) = Result.bind in
  let* () = check_schedule ~start_block ~epoch_len ~submit_len in
  let* () = check_vk "wcert" wcert_vk in
  let* () =
    match btr_vk with None -> Ok () | Some vk -> check_vk "btr" vk
  in
  let* () =
    match csw_vk with None -> Ok () | Some vk -> check_vk "csw" vk
  in
  Ok
    {
      ledger_id;
      start_block;
      epoch_len;
      submit_len;
      wcert_vk;
      btr_vk;
      csw_vk;
      wcert_proofdata;
      btr_proofdata;
      csw_proofdata;
    }

let hash t =
  Hash.tagged "cctp.sc_config"
    [
      Hash.to_raw t.ledger_id;
      string_of_int t.start_block;
      string_of_int t.epoch_len;
      string_of_int t.submit_len;
      Hash.to_raw (Backend.vk_digest t.wcert_vk);
      (match t.btr_vk with
      | None -> "none"
      | Some vk -> Hash.to_raw (Backend.vk_digest vk));
      (match t.csw_vk with
      | None -> "none"
      | Some vk -> Hash.to_raw (Backend.vk_digest vk));
    ]

let derive_ledger_id ~creator ~nonce =
  Hash.tagged "cctp.ledger_id" [ Hash.to_raw creator; string_of_int nonce ]
