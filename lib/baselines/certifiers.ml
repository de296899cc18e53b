open Zen_crypto
open Zendoo

type committee = {
  keys : (Schnorr.secret_key * Schnorr.public_key) array;
}

let committee_of_seed ~seed ~size =
  {
    keys =
      Array.init size (fun i ->
          Schnorr.of_seed (Printf.sprintf "certifier.%s.%d" seed i));
  }

let size c = Array.length c.keys

type endorsement = { member : int; signature : Schnorr.signature }

type certificate = {
  ledger_id : Hash.t;
  epoch_id : int;
  bt_list : Backward_transfer.t list;
  endorsements : endorsement list;
}

let certificate_message ~ledger_id ~epoch_id ~bt_list =
  Hash.tagged "baseline.cert"
    [
      Hash.to_raw ledger_id;
      string_of_int epoch_id;
      Hash.to_raw (Backward_transfer.list_root bt_list);
    ]

let endorse c ~member ~ledger_id ~epoch_id ~bt_list =
  let sk, _ = c.keys.(member) in
  let msg = certificate_message ~ledger_id ~epoch_id ~bt_list in
  { member; signature = Schnorr.sign sk (Hash.to_raw msg) }

let make_certificate c ~signers ~ledger_id ~epoch_id ~bt_list =
  {
    ledger_id;
    epoch_id;
    bt_list;
    endorsements =
      List.map (fun m -> endorse c ~member:m ~ledger_id ~epoch_id ~bt_list) signers;
  }

let verify c ~threshold cert =
  let msg =
    certificate_message ~ledger_id:cert.ledger_id ~epoch_id:cert.epoch_id
      ~bt_list:cert.bt_list
  in
  let distinct =
    List.sort_uniq compare (List.map (fun e -> e.member) cert.endorsements)
  in
  if List.length distinct <> List.length cert.endorsements then
    Error "baseline cert: duplicate signer"
  else if List.exists (fun m -> m < 0 || m >= size c) distinct then
    Error "baseline cert: unknown committee member"
  else if List.length cert.endorsements < threshold then
    Error "baseline cert: below threshold"
  else begin
    let all_valid =
      List.for_all
        (fun e ->
          let _, pk = c.keys.(e.member) in
          Schnorr.verify pk (Hash.to_raw msg) e.signature)
        cert.endorsements
    in
    if all_valid then Ok () else Error "baseline cert: invalid signature"
  end
