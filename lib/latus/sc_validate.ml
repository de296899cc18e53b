open Zen_crypto
open Zen_mainchain
open Zendoo

type context = {
  config : Sidechain_config.t;
  params : Params.t;
  prev_state : Sc_state.t;
  prev_hash : Hash.t;
  prev_height : int;
  mc_synced : int;
  expected_leader : Hash.t option;
}

let ( let* ) = Result.bind

let check cond msg = if cond then Ok () else Error msg

let validate_refs ctx ~mc (block : Sc_block.t) =
  let schedule = Epoch.of_config ctx.config in
  (* Contiguity from the sync point, all on the local MC best chain,
     commitment proofs valid, and clipped at the withdrawal-epoch
     boundary. *)
  let* last_height =
    List.fold_left
      (fun acc r ->
        let* expected = acc in
        let* () =
          check
            (Mc_ref.height r = expected)
            "sc block: non-contiguous mainchain references"
        in
        let* () = Mc_ref.verify ~ledger_id:ctx.config.ledger_id r in
        let* () =
          check
            (Chain.on_best_chain mc (Mc_ref.block_hash r))
            "sc block: reference not on the mainchain best chain"
        in
        Ok (expected + 1))
      (Ok (max (ctx.mc_synced + 1) ctx.config.start_block))
      block.mc_refs
    |> Result.map (fun next -> next - 1)
  in
  let* () =
    match block.mc_refs with
    | [] -> Ok ()
    | first :: _ ->
      let epoch =
        Epoch.epoch_of_height schedule ~height:(Mc_ref.height first)
      in
      (match epoch with
      | None -> Error "sc block: reference before sidechain activation"
      | Some e ->
        check
          (last_height <= Epoch.last_height schedule ~epoch:e)
          "sc block: references cross a withdrawal-epoch boundary")
  in
  Ok ()

let sync_txs refs =
  List.concat_map
    (fun (r : Mc_ref.t) ->
      let mcid = Mc_ref.block_hash r in
      (if r.fts <> [] then [ Sc_tx.Forward_transfers_tx { mcid; fts = r.fts } ]
       else [])
      @
      if r.btrs <> [] then
        [ Sc_tx.Backward_transfer_requests_tx { mcid; btrs = r.btrs } ]
      else [])
    refs

let validate ctx ~mc (block : Sc_block.t) =
  let* () = check (Sc_block.verify_signature block) "sc block: bad signature" in
  let* () =
    check (Hash.equal block.parent ctx.prev_hash) "sc block: wrong parent"
  in
  let* () =
    check (block.height = ctx.prev_height + 1) "sc block: wrong height"
  in
  let* () =
    match ctx.expected_leader with
    | None -> Ok ()
    | Some leader ->
      check
        (Hash.equal (Sc_block.forger_addr block) leader)
        "sc block: forger is not the slot leader"
  in
  let* () = validate_refs ctx ~mc block in
  (* Replay: synchronized transactions derived from the references,
     then the block's own transactions, must land exactly on the
     committed state hash. *)
  let* state =
    List.fold_left
      (fun acc tx ->
        let* st = acc in
        match Sc_tx.apply st tx with
        | Ok st' -> Ok st'
        | Error e -> Error ("sc block: " ^ e))
      (Ok ctx.prev_state)
      (sync_txs block.mc_refs @ block.txs)
  in
  let* () =
    check
      (Fp.equal (Sc_state.hash state) block.state_hash)
      "sc block: committed state hash mismatch"
  in
  Ok state
