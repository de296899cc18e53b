open Zen_crypto
open Zen_snark
open Zen_mainchain
open Zendoo

module Int_map = Map.Make (Int)

let wcert_schema = Proofdata.[ Tdigest; Tfield; Tblob ]
let withdrawal_schema = Proofdata.[ Tblob ]

let config_for ~ledger_id ~start_block ~epoch_len ~submit_len family =
  Sidechain_config.make ~ledger_id ~start_block ~epoch_len ~submit_len
    ~wcert_vk:(Circuits.wcert_keys family).vk
    ~btr_vk:(Circuits.ownership_keys family).vk
    ~csw_vk:(Circuits.ownership_keys family).vk
    ~wcert_proofdata:wcert_schema ~btr_proofdata:withdrawal_schema
    ~csw_proofdata:withdrawal_schema ()

type record = {
  block : Sc_block.t;
  state_after : Sc_state.t;
  leaf_base : int; (* first pipeline leaf index of this block's epoch stream *)
  wepoch : int;
  completes_epoch : int option;
}

type epoch_archive = {
  end_state : Sc_state.t;
  delta : Bytes.t;
  end_block_hash : Hash.t;
}

type t = {
  config : Sidechain_config.t;
  params : Params.t;
  fam : Circuits.family;
  rsys : Recursive.system;
  forger : Sc_wallet.t;
  pipeline : Proof_pipeline.t;
  genesis_state : Sc_state.t;
  schedule : Epoch.schedule;
  mutable records : record list; (* newest first *)
  mutable mempool : Sc_mempool.t;
  mutable archives : epoch_archive Int_map.t; (* by certified epoch *)
}

(* Epochs of block records kept behind the mainchain's last accepted
   certificate: certificate rebuilds after shallow reorgs stay inside
   the margin, and withdrawals replay from the per-epoch archives. *)
let retain_epochs = 8

let create ~config ~params ~family ~forger ?(pool = Pool.sequential) () =
  match Params.validate params with
  | Error e -> Error e
  | Ok () ->
    if Sc_wallet.addresses forger = [] then
      Error "latus node: forger wallet has no keys"
    else begin
      let rsys =
        Recursive.create ~name:"latus" ~base_vks:(Circuits.base_vks family)
      in
      Ok
        {
          config;
          params;
          fam = family;
          rsys;
          forger;
          pipeline = Proof_pipeline.create ~pool ~family ~rsys;
          genesis_state = Sc_state.create params;
          schedule = Epoch.of_config config;
          records = [];
          mempool = Sc_mempool.empty;
          archives = Int_map.empty;
        }
    end

let family t = t.fam

let tip_record t = match t.records with [] -> None | r :: _ -> Some r

let tip_state t =
  match tip_record t with None -> t.genesis_state | Some r -> r.state_after

(* The state the next block builds on: an epoch boundary resets the
   transient BT list and snapshots the MST delta (§5.2.1, App. A). *)
let next_block_state t =
  match tip_record t with
  | None -> t.genesis_state
  | Some r -> (
    match r.completes_epoch with
    | Some _ -> Sc_state.reset_epoch r.state_after
    | None -> r.state_after)

let next_block_wepoch t =
  match tip_record t with
  | None -> 0
  | Some r -> (
    match r.completes_epoch with
    | Some e -> e + 1
    | None -> r.wepoch)

let sc_height t =
  match tip_record t with None -> -1 | Some r -> r.block.height

let mc_synced_height t =
  let rec go = function
    | [] -> t.config.start_block - 1
    | r :: rest -> (
      match List.rev r.block.mc_refs with
      | last :: _ -> Mc_ref.height last
      | [] -> go rest)
  in
  go t.records

let blocks t = List.rev_map (fun r -> r.block) t.records

let submit_tx t tx =
  match Sc_tx.validate (next_block_state t) tx with
  | Error e -> Error e
  | Ok () ->
    (* O(1) admission, deduplicated by txid (a resubmission is a
       no-op, not a second queue entry). *)
    t.mempool <- Sc_mempool.add t.mempool tx;
    Ok ()

let mempool_size t = Sc_mempool.size t.mempool

let epoch_randomness t =
  match tip_record t with
  | None -> Hash.tagged "latus.rand.genesis" [ Hash.to_raw t.config.ledger_id ]
  | Some r -> Sc_block.hash r.block

let leader_for_slot t ~slot =
  Leader.select (Leader.of_mst (tip_state t).mst) ~rand:(epoch_randomness t)
    ~slot

let ( let* ) = Result.bind

(* ---- MC reorg reconciliation ---- *)

(* Drop sidechain blocks whose MC references are no longer on the MC
   best chain; their payments return to the mempool (FTTx/BTRTx are
   rebuilt from the new MC blocks when re-referenced). *)
let reconcile t ~mc =
  let ref_valid r = Chain.on_best_chain mc (Mc_ref.block_hash r) in
  let rec split_valid kept = function
    (* records oldest-first here *)
    | [] -> (List.rev kept, [])
    | r :: rest ->
      if List.for_all ref_valid r.block.mc_refs then
        split_valid (r :: kept) rest
      else (List.rev kept, r :: rest)
  in
  let oldest_first = List.rev t.records in
  let kept, dropped = split_valid [] oldest_first in
  if dropped <> [] then begin
    let recovered =
      List.concat_map
        (fun r ->
          List.filter
            (function
              | Sc_tx.Payment _ | Sc_tx.Backward_transfer_tx _ -> true
              | Sc_tx.Forward_transfers_tx _
              | Sc_tx.Backward_transfer_requests_tx _ -> false)
            r.block.txs)
        dropped
    in
    t.records <- List.rev kept;
    (* Roll the proving pipeline back with the records: keep only the
       leaves of blocks that survived. The first dropped record of each
       epoch (oldest first in [dropped]) marks the cut. *)
    let cuts =
      List.fold_left
        (fun m r ->
          Int_map.update r.wepoch
            (function None -> Some r.leaf_base | keep -> keep)
            m)
        Int_map.empty dropped
    in
    Int_map.iter
      (fun epoch keep -> Proof_pipeline.truncate t.pipeline ~epoch ~keep)
      cuts;
    (* Front of the FIFO, deduplicated by txid: a payment that is both
       in a dropped block and still pooled (or dropped twice across
       branches) must not be double-queued. *)
    t.mempool <- Sc_mempool.reinject_front t.mempool recovered
  end;
  List.length dropped

(* ---- Forging ---- *)

let build_refs t ~mc =
  let synced = mc_synced_height t in
  let wepoch = next_block_wepoch t in
  let epoch_end = Epoch.last_height t.schedule ~epoch:wepoch in
  let mc_state = Chain.tip_state mc in
  let hi = min mc_state.height epoch_end in
  let rec go h acc =
    if h > hi then Ok (List.rev acc)
    else begin
      match Chain_state.block_hash_at mc_state h with
      | None -> Error "forge: missing mainchain block"
      | Some bh -> (
        match Chain.block mc bh with
        | None -> Error "forge: mainchain block body unavailable"
        | Some b ->
          let* r = Mc_ref.build ~ledger_id:t.config.ledger_id b in
          go (h + 1) (r :: acc))
    end
  in
  go (max (synced + 1) t.config.start_block) []

let blocks_forged = Zen_obs.Counter.make "latus.blocks_forged"

(* Withdrawal certificates built. *)
let certificates = Zen_obs.Counter.make "latus.certificates"

let forge t ~mc ~slot ?(enforce_leader = false) () =
  Zen_obs.Trace.with_span ~cat:"latus"
    ~args:[ ("slot", string_of_int slot) ]
    "latus.forge"
  @@ fun () ->
  let (_ : int) = reconcile t ~mc in
  let* refs = build_refs t ~mc in
  let forger_addrs = Sc_wallet.addresses t.forger in
  let leader_ok, forger_addr =
    if not enforce_leader then (true, List.hd forger_addrs)
    else begin
      match leader_for_slot t ~slot with
      | None ->
        (* Empty stake distribution: bootstrap — the forger wallet's
           first key may produce blocks until stake exists. *)
        (true, List.hd forger_addrs)
      | Some leader ->
        if List.exists (Hash.equal leader) forger_addrs then (true, leader)
        else (false, List.hd forger_addrs)
    end
  in
  if not leader_ok then Ok None
  else begin
    let mempool_txs = Sc_mempool.txs t.mempool in
    if refs = [] && mempool_txs = [] then Ok None
    else begin
      let state0 = next_block_state t in
      let wepoch = next_block_wepoch t in
      let sync_txs = Sc_validate.sync_txs refs in
      (* Mempool transactions that became invalid (double spends after
         a reorg, stale inputs) are dropped, not fatal. Both accumulators
         are reversed lists (linear in block size, not quadratic). *)
      let* state2, snaps2, included =
        Zen_obs.Trace.with_span ~cat:"latus"
          ~args:
            [
              ("sync_txs", string_of_int (List.length sync_txs));
              ("mempool_txs", string_of_int (List.length mempool_txs));
            ]
          "latus.validate"
        @@ fun () ->
        let* state1, snaps1_rev =
          List.fold_left
            (fun acc tx ->
              let* st, sn = acc in
              let* st, traced = Sc_tx.transition st tx in
              Ok (st, List.rev_append traced sn))
            (Ok (state0, []))
            sync_txs
        in
        let state2, snaps_rev, included_rev =
          List.fold_left
            (fun (st, sn, inc) tx ->
              match Sc_tx.transition st tx with
              | Ok (st', traced) -> (st', List.rev_append traced sn, tx :: inc)
              | Error _ -> (st, sn, inc))
            (state1, snaps1_rev, [])
            mempool_txs
        in
        Ok (state2, List.rev snaps_rev, List.rev included_rev)
      in
      let parent =
        match tip_record t with
        | None -> Sc_block.genesis_parent
        | Some r -> Sc_block.hash r.block
      in
      let* sk =
        match Sc_wallet.secret_for t.forger forger_addr with
        | Some sk -> Ok sk
        | None -> Error "forge: missing forger key"
      in
      let block =
        Sc_block.forge ~parent ~height:(sc_height t + 1) ~slot ~sk ~mc_refs:refs
          ~txs:included ~state_hash:(Sc_state.hash state2)
      in
      let completes_epoch =
        match List.rev refs with
        | [] -> None
        | last :: _ ->
          if Mc_ref.height last = Epoch.last_height t.schedule ~epoch:wepoch
          then Some wepoch
          else None
      in
      (* Commit point: the block definitely enters the chain, so its
         proving tasks may now enter the epoch stream (enqueueing any
         earlier would let an aborted forge pollute the certificate). *)
      let leaf_base = Proof_pipeline.leaves t.pipeline ~epoch:wepoch in
      List.iter (Proof_pipeline.enqueue t.pipeline ~epoch:wepoch) snaps2;
      let record =
        {
          block;
          state_after = state2;
          leaf_base;
          wepoch;
          completes_epoch;
        }
      in
      t.records <- record :: t.records;
      t.mempool <- Sc_mempool.remove_txs t.mempool included;
      Zen_obs.Counter.incr blocks_forged;
      Ok (Some block)
    end
  end

(* ---- Certificates ---- *)

let certified_epochs t = List.map fst (Int_map.bindings t.archives)

(* The mainchain's earliest uncertified epoch of this sidechain, or
   [None] while the mainchain does not know the sidechain. *)
let mc_next_epoch t ~mc =
  Sc_ledger.find (Chain.tip_state mc).scs t.config.ledger_id
  |> Option.map (fun s ->
         match Sc_ledger.last_cert s with
         | None -> 0
         | Some r -> r.cert.epoch_id + 1)

(* The epoch to certify next is decided by the mainchain, not by the
   node's archive: a certificate the node built can be lost before
   acceptance (reorg, dropped submission), and with the ledger's
   sequential-certification rule every later epoch would then be
   rejected as out of order. Targeting the MC's earliest uncertified
   epoch lets the node rebuild and resubmit a lost certificate from its
   retained records instead of stranding the sidechain. *)
let certificate_target t ~mc =
  (* The node's own view: one past the newest epoch it has archived. *)
  let node_next =
    match Int_map.max_binding_opt t.archives with
    | None -> 0
    | Some (e, _) -> e + 1
  in
  match mc_next_epoch t ~mc with
  | None -> node_next
  | Some mc_next -> min node_next mc_next

let completing_record t ~epoch =
  List.find_opt (fun r -> r.completes_epoch = Some epoch) t.records

let epoch_start_hash t ~epoch =
  if epoch = 0 then Sc_state.hash t.genesis_state
  else
    match completing_record t ~epoch:(epoch - 1) with
    | Some r -> Sc_state.hash (Sc_state.reset_epoch r.state_after)
    | None -> (
      (* The previous epoch's records may have been pruned below the
         certified horizon; its archived end state commits to the same
         hash the completing record would. *)
      match Int_map.find_opt (epoch - 1) t.archives with
      | Some a -> Sc_state.hash (Sc_state.reset_epoch a.end_state)
      | None -> Sc_state.hash t.genesis_state)

(* Sidechain block records pruned below the certified horizon. *)
let records_pruned = Zen_obs.Counter.make "latus.records.pruned"

(* Forget records of epochs long since certified by the mainchain. The
   retention margin covers certificate rebuilds after a reorg reverts
   recent certificates (storm reorgs are ≤ 3 MC blocks deep, well inside
   the margin); withdrawals replay from [archives], which are kept. *)
let prune_certified t ~mc =
  match mc_next_epoch t ~mc with
  | None -> ()
  | Some mc_next ->
    let keep_from = mc_next - retain_epochs in
    if List.exists (fun r -> r.wepoch < keep_from) t.records then begin
      let before = List.length t.records in
      t.records <- List.filter (fun r -> r.wepoch >= keep_from) t.records;
      Proof_pipeline.drop_below t.pipeline ~epoch:keep_from;
      Zen_obs.Counter.add records_pruned (before - List.length t.records)
    end

(* Certificate build wall-clock (the certify path). *)
let certify_s =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:10)
    "latus.certify.seconds"

(* The epoch's recursive transition proof: completes the pipeline's
   incremental fold (≤ ⌈log₂ n⌉ carry merges plus any straggler base
   proofs). *)
let epoch_top_proof t ~epoch =
  match Proof_pipeline.leaves t.pipeline ~epoch with
  | 0 -> Ok None
  | n ->
    let* top =
      Zen_obs.Trace.with_span ~cat:"latus"
        ~args:[ ("proofs", string_of_int n) ]
        "latus.fold"
      @@ fun () -> Proof_pipeline.await_epoch t.pipeline ~epoch
    in
    Ok (Some top)

let build_certificate t ~mc =
  prune_certified t ~mc;
  let mc_now = Chain.tip_state mc in
  if Sc_ledger.is_ceased mc_now.scs t.config.ledger_id ~height:mc_now.height
  then Ok None (* a ceased sidechain can never certify again (Def. 4.2) *)
  else
  let epoch = certificate_target t ~mc in
  match completing_record t ~epoch with
  | None -> Ok None (* epoch not yet complete *)
  | Some last_record ->
    Zen_obs.Trace.with_span ~cat:"latus"
      ~args:[ ("epoch", string_of_int epoch) ]
      "latus.certify"
    @@ fun () ->
    Zen_obs.Histogram.time certify_s
    @@ fun () ->
    let end_state = last_record.state_after in
    let s_prev = epoch_start_hash t ~epoch in
    let s_last = Sc_state.hash end_state in
    (* The §5.5.3.1 statement, checked natively before the binding
       proof is produced (simulation oracle, DESIGN.md §3): the
       epoch's recursive transition proof must verify and span
       exactly (s_prev → s_last). An epoch without transitions is
       the heartbeat case: the state must not have moved. *)
    let* () =
      let* top = epoch_top_proof t ~epoch in
      match top with
      | None ->
        if Fp.equal s_prev s_last then Ok ()
        else Error "certificate: state moved without transition proofs"
      | Some top ->
        if not (Recursive.verify t.rsys top) then
          Error "certificate: epoch transition proof rejected"
        else if
          not
            (Fp.equal (Recursive.s_from top) s_prev
            && Fp.equal (Recursive.s_to top) s_last)
        then Error "certificate: epoch proof endpoints mismatch"
        else Ok ()
    in
    let bt_list = Sc_state.backward_transfers end_state in
    let quality = last_record.block.height in
    let delta = Mst.delta_bits end_state.mst in
    let proofdata =
      Proofdata.
        [
          Digest (Sc_block.hash last_record.block);
          Field (Mst.root end_state.mst);
          Blob (Bytes.to_string delta);
        ]
    in
    let mc_state = Chain.tip_state mc in
    let* end_prev_epoch, end_epoch =
      match
        Epoch.boundary_hashes t.schedule ~epoch
          ~block_hash_at:(Chain_state.block_hash_at mc_state)
      with
      | Some pair -> Ok pair
      | None -> Error "certificate: epoch boundary blocks not on MC best chain"
    in
    let bt_root = Backward_transfer.list_root bt_list in
    let* proof =
      Circuits.prove_wcert_binding t.fam ~quality ~bt_root ~end_prev_epoch
        ~end_epoch ~proofdata ~s_prev ~s_last
    in
    let cert =
      Withdrawal_certificate.make ~ledger_id:t.config.ledger_id
        ~epoch_id:epoch ~quality ~bt_list ~proofdata ~proof
    in
    (* A rebuild of an already-archived epoch (a certificate lost to a
       reorg) replaces its entry: withdrawals must prove against the
       state of the certificate the mainchain will hold. *)
    t.archives <-
      Int_map.add epoch
        { end_state; delta; end_block_hash = Sc_block.hash last_record.block }
        t.archives;
    Zen_obs.Counter.incr certificates;
    Ok (Some (Tx.Certificate cert))

(* ---- Pipeline surface ---- *)

let pump t = Proof_pipeline.pump t.pipeline
let certificate_stats t = List.rev (Proof_pipeline.certificate_log t.pipeline)

let state_at_epoch_end t ~epoch =
  Option.map (fun a -> a.end_state) (Int_map.find_opt epoch t.archives)

(* ---- Mainchain-managed withdrawals (§5.5.3.2, §5.5.3.3) ---- *)

let create_withdrawal_request t ~kind ~utxo ~receiver ~reference_block
    ?as_of_epoch () =
  let* latest =
    match Int_map.max_binding_opt t.archives with
    | None -> Error "withdrawal: no certified epoch yet"
    | Some (e, _) -> Ok e
  in
  let epoch = Option.value as_of_epoch ~default:latest in
  let* archive =
    match Int_map.find_opt epoch t.archives with
    | Some a -> Ok a
    | None -> Error "withdrawal: epoch not certified"
  in
  (* Appendix A: when proving against an older committed state, the
     slot must be untouched in every later epoch's mst_delta. *)
  let pos = Utxo.position ~mst_depth:t.params.mst_depth utxo in
  let* () =
    let rec check e =
      if e > latest then Ok ()
      else begin
        match Int_map.find_opt e t.archives with
        | None -> Error "withdrawal: missing delta for intermediate epoch"
        | Some a ->
          if Mst.delta_bit a.delta pos then
            Error "withdrawal: utxo slot was modified after the chosen epoch"
          else check (e + 1)
      end
    in
    check (epoch + 1)
  in
  let proofdata = [ Proofdata.Blob (Utxo.encode utxo) ] in
  let* proof =
    Circuits.prove_ownership t.fam ~mst:archive.end_state.mst ~utxo
      ~reference_block ~receiver ~proofdata
  in
  Ok
    (Mainchain_withdrawal.make ~kind ~ledger_id:t.config.ledger_id ~receiver
       ~amount:utxo.amount ~nullifier:(Utxo.nullifier utxo) ~proofdata ~proof)
