open Zen_crypto
open Zendoo

type header = {
  prev : Hash.t;
  height : int;
  time : int;
  nonce : int;
  tx_root : Hash.t;
  sc_txs_commitment : Hash.t;
  cert_aggregate : Hash.t;
}

type t = {
  header : header;
  txs : Tx.t list;
  aggregate : Zen_snark.Aggregate.t option;
}

let header_hash h =
  Hash.tagged "mc.header"
    [
      Hash.to_raw h.prev;
      string_of_int h.height;
      string_of_int h.time;
      string_of_int h.nonce;
      Hash.to_raw h.tx_root;
      Hash.to_raw h.sc_txs_commitment;
      Hash.to_raw h.cert_aggregate;
    ]

let hash b = header_hash b.header

let tx_root txs = Merkle.root (Merkle.of_leaves (List.map Tx.txid txs))

(* Group all sidechain actions in the block by ledger id. *)
let sc_commitment_of_txs ?pool txs =
  let module M = Hash.Map in
  let empty_entry ledger_id =
    Sc_commitment.{ ledger_id; fts = []; btrs = []; wcert = None }
  in
  let upd m id f =
    let e = Option.value (M.find_opt id m) ~default:(empty_entry id) in
    M.add id (f e) m
  in
  let result =
    List.fold_left
      (fun acc tx ->
        match acc with
        | Error _ -> acc
        | Ok m -> (
          match tx with
          | Tx.Coinbase _ | Tx.Sc_create _ -> Ok m
          | Tx.Transfer _ ->
            Ok
              (List.fold_left
                 (fun m (ft : Forward_transfer.t) ->
                   upd m ft.ledger_id (fun e ->
                       { e with Sc_commitment.fts = e.Sc_commitment.fts @ [ ft ] }))
                 m (Tx.forward_transfers tx))
          | Tx.Certificate cert ->
            let id = cert.Withdrawal_certificate.ledger_id in
            (match M.find_opt id m with
            | Some { Sc_commitment.wcert = Some _; _ } ->
              Error "block: two certificates for one sidechain"
            | _ ->
              Ok (upd m id (fun e -> { e with Sc_commitment.wcert = Some cert })))
          | Tx.Withdrawal_request w -> (
            match w.Mainchain_withdrawal.kind with
            | Mainchain_withdrawal.Csw -> Ok m (* CSWs are not committed (§4.1.3) *)
            | Mainchain_withdrawal.Btr ->
              Ok
                (upd m w.Mainchain_withdrawal.ledger_id (fun e ->
                     { e with Sc_commitment.btrs = e.Sc_commitment.btrs @ [ w ] }))
          )))
      (Ok M.empty) txs
  in
  match result with
  | Error e -> Error e
  | Ok m -> Sc_commitment.build ?pool (List.map snd (M.bindings m))

let assemble ?pool ?aggregate ~prev ~height ~time ~txs ~pow () =
  match sc_commitment_of_txs ?pool txs with
  | Error e -> Error e
  | Ok commitment ->
    let tx_root = tx_root txs in
    let sc_txs_commitment = Sc_commitment.root commitment in
    (* The aggregate commitment lives in the header so proof of work
       covers it and header-only consumers (sidechain MC references)
       keep agreeing on block hashes; [Hash.zero] means "absent". *)
    let cert_aggregate =
      match aggregate with
      | None -> Hash.zero
      | Some a -> Zen_snark.Aggregate.digest a
    in
    let hash_of_nonce ~nonce =
      header_hash
        { prev; height; time; nonce; tx_root; sc_txs_commitment;
          cert_aggregate }
    in
    let nonce = Pow.mine pow hash_of_nonce in
    Ok
      {
        header =
          { prev; height; time; nonce; tx_root; sc_txs_commitment;
            cert_aggregate };
        txs;
        aggregate;
      }

let genesis ~time =
  let txs = [] in
  let commitment =
    match sc_commitment_of_txs txs with Ok c -> c | Error _ -> assert false
  in
  {
    header =
      {
        prev = Hash.zero;
        height = 0;
        time;
        nonce = 0;
        tx_root = tx_root txs;
        sc_txs_commitment = Sc_commitment.root commitment;
        cert_aggregate = Hash.zero;
      };
    txs;
    aggregate = None;
  }

let validate_structure ?pool ?block_hash ~pow b =
  let ( let* ) = Result.bind in
  let block_hash =
    match block_hash with Some h -> h | None -> hash b
  in
  let* () =
    if b.header.height = 0 || Pow.meets_target pow block_hash then Ok ()
    else Error "block: proof of work does not meet target"
  in
  let* () =
    if Hash.equal b.header.tx_root (tx_root b.txs) then Ok ()
    else Error "block: transaction root mismatch"
  in
  let* commitment = sc_commitment_of_txs ?pool b.txs in
  let* () =
    if Hash.equal b.header.sc_txs_commitment (Sc_commitment.root commitment)
    then Ok ()
    else Error "block: sidechain commitment mismatch"
  in
  (* Context-free aggregate checks: the header must commit to exactly
     the carried aggregate (absent iff the commitment is zero), and the
     covered count must equal the block's certificate count. Whether the
     root covers *these* certificates needs chain context and is checked
     in [Chain_state.apply_block]. *)
  let* () =
    match b.aggregate with
    | None ->
      if Hash.equal b.header.cert_aggregate Hash.zero then Ok ()
      else Error "block: header commits to a missing aggregate"
    | Some a ->
      if
        not (Hash.equal b.header.cert_aggregate (Zen_snark.Aggregate.digest a))
      then Error "block: aggregate commitment mismatch"
      else begin
        let certs =
          List.length
            (List.filter
               (function Tx.Certificate _ -> true | _ -> false)
               b.txs)
        in
        if certs = 0 then Error "block: aggregate over a block with no certificates"
        else if Zen_snark.Aggregate.count a <> certs then
          Error "block: aggregate certificate count mismatch"
        else Ok ()
      end
  in
  let* () =
    match b.txs with
    | [] when b.header.height = 0 -> Ok ()
    | Tx.Coinbase { height; _ } :: rest ->
      if height <> b.header.height then Error "block: coinbase height mismatch"
      else if
        List.exists (function Tx.Coinbase _ -> true | _ -> false) rest
      then Error "block: multiple coinbases"
      else Ok ()
    | _ -> Error "block: first transaction must be the coinbase"
  in
  Ok block_hash
