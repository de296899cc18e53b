open Zen_crypto
open Zen_mainchain
open Zendoo

type t = {
  header : Block.header;
  mproof : Sc_commitment.membership option;
  proof_of_no_data : Sc_commitment.absence option;
  fts : Forward_transfer.t list;
  btrs : Mainchain_withdrawal.t list;
  wcert : Withdrawal_certificate.t option;
}

let entry_of ledger_id (r : t) : Sc_commitment.entry =
  {
    Sc_commitment.ledger_id;
    fts = r.fts;
    btrs = r.btrs;
    wcert = r.wcert;
  }

let build ~ledger_id (block : Block.t) =
  match Block.sc_commitment_of_txs block.txs with
  | Error e -> Error e
  | Ok commitment -> (
    let fts =
      List.concat_map Tx.forward_transfers block.txs
      |> List.filter (fun (ft : Forward_transfer.t) ->
             Hash.equal ft.ledger_id ledger_id)
    in
    let btrs =
      List.filter_map
        (function
          | Tx.Withdrawal_request w
            when w.Mainchain_withdrawal.kind = Mainchain_withdrawal.Btr
                 && Hash.equal w.Mainchain_withdrawal.ledger_id ledger_id ->
            Some w
          | _ -> None)
        block.txs
    in
    let wcert =
      List.find_map
        (function
          | Tx.Certificate c
            when Hash.equal c.Withdrawal_certificate.ledger_id ledger_id ->
            Some c
          | _ -> None)
        block.txs
    in
    let base =
      {
        header = block.header;
        mproof = None;
        proof_of_no_data = None;
        fts;
        btrs;
        wcert;
      }
    in
    match Sc_commitment.prove_membership commitment ledger_id with
    | Some m -> Ok { base with mproof = Some m }
    | None -> (
      match Sc_commitment.prove_absence commitment ledger_id with
      | Some a -> Ok { base with proof_of_no_data = Some a }
      | None -> Error "mc_ref: cannot prove membership nor absence"))

let has_data t = t.fts <> [] || t.btrs <> [] || t.wcert <> None

let verify ~ledger_id t =
  let root = t.header.sc_txs_commitment in
  match (t.mproof, t.proof_of_no_data) with
  | Some m, None ->
    let entry_hash = Sc_commitment.entry_hash (entry_of ledger_id t) in
    if Sc_commitment.verify_membership ~root ~ledger_id ~entry_hash m then
      Ok ()
    else Error "mc_ref: membership proof rejected"
  | None, Some a ->
    if has_data t then Error "mc_ref: carries data but claims absence"
    else if Sc_commitment.verify_absence ~root ~ledger_id a then Ok ()
    else Error "mc_ref: absence proof rejected"
  | Some _, Some _ -> Error "mc_ref: both proofs present"
  | None, None -> Error "mc_ref: no commitment proof"

let block_hash t = Block.header_hash t.header
let height t = t.header.height
