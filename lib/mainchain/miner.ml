open Zen_crypto
open Zendoo

let coinbase_for chain ~height ~miner_addr ~fees =
  let subsidy = (Chain.params chain).subsidy in
  let reward =
    match Amount.add subsidy fees with Ok a -> a | Error _ -> subsidy
  in
  Tx.Coinbase { height; reward = { Tx.addr = miner_addr; amount = reward } }

(* Candidates trial-applied. Every pooled transaction is offered to
   every block until it is included or evicted, so this grows with
   whatever lingers in the mempool. *)
let candidates_tried = Zen_obs.Counter.make "mc.scan.candidates"

let build_block ?pool ?(aggregate = true) chain ~time ~miner_addr ~candidates =
  if not aggregate then
    invalid_arg
      "Miner.build_block: ~aggregate:false (the per-certificate miner) is gone";
  let state = Chain.tip_state chain in
  let height = state.height + 1 in
  (* Batch-verify the candidates' proofs before trial application, so
     re-offered mempool certificates cost a cache hit per mine instead
     of a SNARK verification. *)
  Chain_state.prewarm_verifier ?pool state candidates;
  (* Trial-apply against a placeholder block hash; certificate records
     carry the real hash once the sealed block is applied for real. *)
  let placeholder = Hash.of_string "miner.trial" in
  Zen_obs.Counter.add candidates_tried (List.length candidates);
  let _, selected_rev, skipped_rev, fees =
    List.fold_left
      (fun (st, sel, skip, fees) tx ->
        match Chain_state.apply_tx st ~height ~block_hash:placeholder tx with
        | Ok (st', fee) ->
          let fees = match Amount.add fees fee with Ok f -> f | Error _ -> fees in
          (st', tx :: sel, skip, fees)
        | Error _ -> (st, sel, tx :: skip, fees))
      (state, [], [], Amount.zero)
      candidates
  in
  let selected = List.rev selected_rev in
  (* Fold the selected certificates' proofs into one aggregate. Leaves
     come from the parent state — the same boundaries validation will
     resolve — and each check is the per-certificate job (a cache hit:
     trial application just verified it). A block without certificates
     ships none. If any leaf is unformable or the build fails, ship
     without an aggregate; absence is the valid fallback, a malformed
     aggregate would reject the whole block. *)
  let agg =
    let pairs =
      List.fold_left
        (fun acc tx ->
          match (acc, tx) with
          | None, _ -> None
          | Some acc, Tx.Certificate cert -> (
            match
              Sc_ledger.wcert_job state.scs ~cert
                ~block_hash_at:(Chain_state.block_hash_at state)
            with
            | Some (leaf, job) ->
              Some ((leaf, fun () -> Verifier.run_job job) :: acc)
            | None -> None)
          | Some _, _ -> acc)
        (Some []) selected
    in
    match pairs with
    | None | Some [] -> None
    | Some pairs_rev -> (
      match
        Zen_snark.Aggregate.build ?pool
          (Zen_snark.Aggregate.shared ())
          (List.rev pairs_rev)
      with
      | Ok a -> Some a
      | Error _ -> None)
  in
  let txs = coinbase_for chain ~height ~miner_addr ~fees :: selected in
  match
    Block.assemble ?pool ?aggregate:agg ~prev:(Chain.tip_hash chain) ~height
      ~time ~txs ~pow:(Chain.params chain).pow ()
  with
  | Error e -> Error e
  | Ok block -> Ok (block, List.rev skipped_rev)

let mine_empty chain ~time ~miner_addr =
  match build_block chain ~time ~miner_addr ~candidates:[] with
  | Ok (b, _) -> Ok b
  | Error e -> Error e
