open Zen_crypto
open Zendoo

type params = {
  pow : Pow.params;
  subsidy : Amount.t;
  coinbase_maturity : int;
}

let default_params =
  {
    pow = Pow.default;
    subsidy = Amount.of_int_exn 5_000_000_000;
    coinbase_maturity = 2;
  }

type t = {
  params : params;
  height : int;
  tip_hash : Hash.t;
  time : int;
  utxos : Utxo_set.t;
  scs : Sc_ledger.t;
  hash_by_height : Height_index.t;
}

let of_genesis params (g : Block.t) =
  {
    params;
    height = 0;
    tip_hash = Block.hash g;
    time = g.header.time;
    utxos = Utxo_set.empty;
    scs = Sc_ledger.empty;
    hash_by_height = Height_index.append Height_index.empty (Block.hash g);
  }

let block_hash_at t h = Height_index.get t.hash_by_height h

let spendable t outpoint ~at_height =
  match Utxo_set.find t.utxos outpoint with
  | Some coin when at_height > coin.spendable_after -> Some coin
  | Some _ | None -> None

let sc_balance t id = Sc_ledger.balance t.scs id

let ( let* ) = Result.bind

(* [sighash] is forced at the first signature check, so a transfer
   refused by an input lookup or owner check is never hashed. *)
let check_input t ~height ~sighash (input : Tx.input) =
  let* coin =
    match spendable t input.outpoint ~at_height:height with
    | Some c -> Ok c
    | None -> Error "tx: input missing, spent, or immature"
  in
  let* () =
    if Hash.equal (Schnorr.pk_hash input.pk) coin.addr then Ok ()
    else Error "tx: key does not own the spent output"
  in
  if
    Verifier.run_job
      (Verifier.signature_job ~pk:input.pk
         ~msg:(Hash.to_raw (Lazy.force sighash))
         ~signature:input.signature)
  then Ok coin
  else Error "tx: invalid signature"

(* Single hashed-membership pass — [List.mem] over the encoded strings
   was O(n²) per transaction. *)
let distinct_outpoints outpoints =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> true
    | o :: rest ->
      let k = Tx.outpoint_encode o in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        go rest
      end
  in
  go outpoints

let output_changes ~txid ~spendable_after outputs =
  List.fold_left
    (fun (acc, vout) output ->
      match output with
      | Tx.Ft _ -> (acc, vout + 1) (* unspendable: coins are destroyed *)
      | Tx.Coin { addr; amount } ->
        ( ({ Tx.txid; vout }, Some { Utxo_set.addr; amount; spendable_after })
          :: acc,
          vout + 1 ))
    ([], 0) outputs
  |> fst |> List.rev

(* Outpoints of the coin payouts a certificate created, for claw-back
   when a higher-quality certificate replaces it within the window. *)
let cert_payout_outpoints (record : Sc_ledger.cert_record) =
  let txid = Tx.txid (Tx.Certificate record.cert) in
  List.mapi (fun i (_ : Backward_transfer.t) -> { Tx.txid; vout = i })
    record.cert.bt_list

let apply_tx ?(settled = Hash.Map.empty) t ~height ~block_hash tx =
  match tx with
  | Tx.Coinbase _ -> Error "tx: coinbase outside block context"
  | Tx.Transfer { inputs; outputs } ->
    let* () =
      if inputs = [] then Error "tx: transfer without inputs" else Ok ()
    in
    let* () =
      if
        distinct_outpoints
          (List.map (fun (i : Tx.input) -> i.outpoint) inputs)
      then Ok ()
      else Error "tx: duplicate input"
    in
    let sighash =
      lazy
        (Tx.sighash
           ~inputs:(List.map (fun (i : Tx.input) -> i.outpoint) inputs)
           ~outputs)
    in
    let* coins =
      List.fold_left
        (fun acc input ->
          let* cs = acc in
          let* c = check_input t ~height ~sighash input in
          Ok (c :: cs))
        (Ok []) inputs
    in
    let* value_in = Amount.sum (List.map (fun (c : Utxo_set.coin) -> c.amount) coins) in
    let* value_out = Tx.transfer_value_out outputs in
    let* fee =
      match Amount.sub value_in value_out with
      | Ok f -> Ok f
      | Error _ -> Error "tx: outputs exceed inputs"
    in
    (* Forward transfers touch the sidechain ledger (§4.1.1). *)
    let* scs =
      List.fold_left
        (fun acc ft ->
          let* scs = acc in
          Sc_ledger.credit_ft scs ft ~height)
        (Ok t.scs) (Tx.forward_transfers tx)
    in
    (* One batched coin-flip pass: spent inputs out, fresh outputs in. *)
    let utxos =
      Utxo_set.apply_batch t.utxos
        (List.map (fun (i : Tx.input) -> (i.outpoint, None)) inputs
        @ output_changes ~txid:(Tx.txid tx) ~spendable_after:height outputs)
    in
    Ok ({ t with utxos; scs }, fee)
  | Tx.Sc_create config ->
    let* scs = Sc_ledger.register t.scs config ~created_at:height in
    Ok ({ t with scs }, Amount.zero)
  | Tx.Certificate cert ->
    let* scs, replaced =
      Sc_ledger.accept_cert ~settled t.scs ~cert ~block_hash ~height
        ~block_hash_at:(block_hash_at t)
    in
    (* Claw back the payouts of a replaced lower-quality certificate;
       their maturity guarantees they are still unspent. *)
    let utxos =
      match replaced with
      | None -> t.utxos
      | Some record ->
        Utxo_set.apply_batch t.utxos
          (List.map (fun o -> (o, None)) (cert_payout_outpoints record))
    in
    (* Payouts mature only after the submission window closes, so a
       better certificate can still displace them. *)
    let sc = Option.get (Sc_ledger.find scs cert.ledger_id) in
    let _, window_end =
      Epoch.submission_window
        (Epoch.of_config sc.config)
        ~epoch:cert.epoch_id
    in
    (* The payouts' outpoints name the certificate's txid, hashed only
       when there is a payout. *)
    let utxos =
      match cert.bt_list with
      | [] -> utxos
      | bts ->
        let txid = Tx.txid tx in
        List.fold_left
          (fun (u, vout) (bt : Backward_transfer.t) ->
            ( Utxo_set.add u { Tx.txid; vout }
                {
                  Utxo_set.addr = bt.receiver_addr;
                  amount = bt.amount;
                  spendable_after = window_end;
                },
              vout + 1 ))
          (utxos, 0) bts
        |> fst
    in
    Ok ({ t with utxos; scs }, Amount.zero)
  | Tx.Withdrawal_request w -> (
    let* scs = Sc_ledger.apply_withdrawal t.scs ~request:w ~height in
    match w.kind with
    | Mainchain_withdrawal.Btr -> Ok ({ t with scs }, Amount.zero)
    | Mainchain_withdrawal.Csw ->
      (* A valid CSW pays the receiver directly (§4.1.2.1). *)
      let utxos =
        Utxo_set.add t.utxos
          { Tx.txid = Tx.txid tx; vout = 0 }
          {
            Utxo_set.addr = w.receiver;
            amount = w.amount;
            spendable_after = height;
          }
      in
      Ok ({ t with utxos; scs }, Amount.zero))

(* Verification jobs [proof_jobs] built. *)
let prewarm_jobs = Zen_obs.Counter.make "mc.scan.prewarm_jobs"

(* Every SNARK verification this state would run if the given
   transactions were applied now, in a block at the next height, as
   cacheable jobs. Predictions use the pre-application state; a
   transaction that changes an input of a later one's verification
   (e.g. a certificate moving the reference block of a CSW in the same
   block) merely turns that prediction into an unused cache entry — the
   apply path computes its own key. A certificate whose submission
   window is not open at that height gets no job: acceptance refuses it
   on the height alone, before verifying, whatever else the block
   holds, and a sidechain's schedule never changes once registered. *)
let proof_jobs t txs =
  let height = t.height + 1 in
  let jobs =
    List.filter_map
      (fun tx ->
        match tx with
        | Tx.Certificate cert -> (
          match Sc_ledger.find t.scs cert.ledger_id with
          | Some sc
            when not
                   (Epoch.in_submission_window
                      (Epoch.of_config sc.config)
                      ~epoch:cert.epoch_id ~height) ->
            None
          | Some _ | None ->
            Option.map snd
              (Sc_ledger.wcert_job t.scs ~cert
                 ~block_hash_at:(block_hash_at t)))
        | Tx.Withdrawal_request w -> Sc_ledger.withdrawal_job t.scs ~request:w
        | Tx.Coinbase _ | Tx.Transfer _ | Tx.Sc_create _ -> None)
      txs
  in
  Zen_obs.Counter.add prewarm_jobs (List.length jobs);
  jobs

let prewarm_verifier ?pool t txs =
  match proof_jobs t txs with
  | [] -> ()
  | jobs -> ignore (Verifier.verify_batch ?pool jobs : bool list)

(* The aggregation path: blocks validated through an aggregate, the
   certificate verifications those settled, aggregate proof decisions
   (cached or not) and blocks rejected for a bad aggregate. *)
let agg_blocks = Zen_obs.Counter.make "mc.aggregate.blocks"
let agg_certs_settled = Zen_obs.Counter.make "mc.aggregate.certs_settled"
let agg_proof_checks = Zen_obs.Counter.make "mc.aggregate.proof_checks"
let agg_rejected = Zen_obs.Counter.make "mc.aggregate.rejected"

(* Validate a block-level certificate aggregate against this (pre-block)
   state: recompute the expected leaves for the block's certificates in
   order, require the merge root to cover exactly them, then run the
   single proof verification. [Block.validate_structure], which
   [apply_block] runs first on the same transactions, has already
   refused an aggregate over no certificate or over another count.
   Returns what the aggregate settles: each
   covered certificate's id, mapped to the proof bytes its leaf bound.
   Any failure REJECTS the block — an aggregated block never silently
   degrades to per-certificate verification, because a miner could
   otherwise strip or corrupt aggregates to re-inflate validation cost
   (and an honest miner never produces an invalid one). *)
let settle_aggregate t txs agg =
  let sys = Zen_snark.Aggregate.shared () in
  let* leaves_rev =
    List.fold_left
      (fun acc tx ->
        match tx with
        | Tx.Certificate cert -> (
          let* acc = acc in
          match
            Sc_ledger.wcert_leaf t.scs ~cert ~block_hash_at:(block_hash_at t)
          with
          | Some leaf -> Ok (leaf :: acc)
          | None ->
            (* Unknown sidechain or unresolvable boundary: the
               per-certificate path would reject this block too. *)
            Error "block: aggregate covers an unverifiable certificate")
        | _ -> acc)
      (Ok []) txs
  in
  let leaves = List.rev leaves_rev in
  let* () =
    let expected =
      Zen_snark.Aggregate.root_of_digests
        (List.map Zen_snark.Aggregate.leaf_digest leaves)
    in
    match expected with
    | Some r when Hash.equal r (Zen_snark.Aggregate.root agg) -> Ok ()
    | _ -> Error "block: aggregate does not cover this block's certificates"
  in
  Zen_obs.Counter.incr agg_proof_checks;
  if Verifier.run_job (Verifier.aggregate_job sys agg) then begin
    Zen_obs.Counter.incr agg_blocks;
    Zen_obs.Counter.add agg_certs_settled (List.length leaves);
    Ok
      (List.fold_left
         (fun m (l : Zen_snark.Aggregate.leaf) ->
           Hash.Map.add l.cert_hash l.proof_bytes m)
         Hash.Map.empty leaves)
  end
  else Error "block: aggregate proof rejected"

let apply_block ?pool ?block_hash t (b : Block.t) =
  let* block_hash =
    Block.validate_structure ?pool ?block_hash ~pow:t.params.pow b
  in
  let* () =
    if Hash.equal b.header.prev t.tip_hash then Ok ()
    else Error "block: parent is not the current tip"
  in
  let* () =
    if b.header.height = t.height + 1 then Ok ()
    else Error "block: height discontinuity"
  in
  let height = b.header.height in
  let* coinbase, rest =
    match b.txs with
    | Tx.Coinbase { height = cb_height; reward } :: rest ->
      Ok (Some (cb_height, reward), rest)
    | [] -> Error "block: empty (coinbase required)"
    | _ -> Error "block: first transaction must be the coinbase"
  in
  let* settled =
    match b.aggregate with
    | None ->
      (* Per-certificate path: batch-verify the block's proofs up front
         (fanned out on [pool]); the sequential application below then
         decides through the cache. *)
      prewarm_verifier ?pool t rest;
      Ok Hash.Map.empty
    | Some agg -> (
      (* Aggregated path: certificate proofs are discharged by the one
         aggregate verification; only withdrawal (BTR/CSW) proofs remain
         individual, so prewarm just those. *)
      prewarm_verifier ?pool t
        (List.filter
           (function Tx.Withdrawal_request _ -> true | _ -> false)
           rest);
      match settle_aggregate t rest agg with
      | Ok s -> Ok s
      | Error e ->
        Zen_obs.Counter.incr agg_rejected;
        Error e)
  in
  let* state, fees =
    List.fold_left
      (fun acc tx ->
        let* s, fees = acc in
        let* s, fee = apply_tx ~settled s ~height ~block_hash tx in
        match Amount.add fees fee with
        | Ok fees -> Ok (s, fees)
        | Error e -> Error e)
      (Ok (t, Amount.zero))
      rest
  in
  let* utxos =
    match coinbase with
    | None -> Ok state.utxos
    | Some (_, reward) ->
      let* allowed =
        match Amount.add t.params.subsidy fees with
        | Ok a -> Ok a
        | Error e -> Error e
      in
      let* () =
        if Amount.( <= ) reward.amount allowed then Ok ()
        else Error "block: coinbase exceeds subsidy plus fees"
      in
      let cb_tx = Tx.Coinbase { height; reward } in
      Ok
        (Utxo_set.add state.utxos
           { Tx.txid = Tx.txid cb_tx; vout = 0 }
           {
             Utxo_set.addr = reward.addr;
             amount = reward.amount;
             spendable_after = height + t.params.coinbase_maturity;
           })
  in
  Ok
    {
      state with
      utxos;
      height;
      tip_hash = block_hash;
      time = b.header.time;
      hash_by_height = Height_index.append t.hash_by_height block_hash;
    }
