open Zen_crypto
open Zendoo

type cert_record = {
  cert : Withdrawal_certificate.t;
  included_in : Hash.t;
  at_height : int;
}

type sc_state = {
  config : Sidechain_config.t;
  balance : Amount.t;
  certs : cert_record list; (* invariant: strictly decreasing epoch ids *)
  nullifiers : Hash.Set.t;
}

type t = { sidechains : sc_state Hash.Map.t }

let empty = { sidechains = Hash.Map.empty }

let reserved id =
  Hash.equal id (Hash.of_raw (String.make Hash.size '\000'))
  || Hash.equal id (Hash.of_raw (String.make Hash.size '\255'))

let register t (config : Sidechain_config.t) ~created_at =
  if Hash.Map.mem config.ledger_id t.sidechains then
    Error "sc register: ledger id already exists"
  else if reserved config.ledger_id then Error "sc register: reserved id"
  else if config.start_block <= created_at then
    Error "sc register: start_block must be in the future"
  else
    Ok
      {
        sidechains =
          Hash.Map.add config.ledger_id
            {
              config;
              balance = Amount.zero;
              certs = [];
              nullifiers = Hash.Set.empty;
            }
            t.sidechains;
      }

let find t id = Hash.Map.find_opt id t.sidechains
let balance t id = Option.map (fun s -> s.balance) (find t id)

let last_cert sc = match sc.certs with [] -> None | c :: _ -> Some c

let cert_for_epoch sc ~epoch =
  List.find_opt (fun c -> c.cert.Withdrawal_certificate.epoch_id = epoch) sc.certs

let last_certified_epoch sc =
  Option.map (fun c -> c.cert.Withdrawal_certificate.epoch_id) (last_cert sc)

let is_ceased_sc sc ~height =
  Epoch.ceased_at
    (Epoch.of_config sc.config)
    ~last_certified_epoch:(last_certified_epoch sc) ~height

let is_ceased t id ~height =
  match find t id with None -> false | Some sc -> is_ceased_sc sc ~height

let update t id sc = { sidechains = Hash.Map.add id sc t.sidechains }

let credit_ft t (ft : Forward_transfer.t) ~height =
  match find t ft.ledger_id with
  | None -> Error "ft: unknown sidechain"
  | Some sc ->
    if not (Epoch.is_active_at (Epoch.of_config sc.config) ~height) then
      Error "ft: sidechain not yet active"
    else if is_ceased_sc sc ~height then Error "ft: sidechain has ceased"
    else begin
      match Amount.add sc.balance ft.amount with
      | Error e -> Error ("ft: " ^ e)
      | Ok balance -> Ok (update t ft.ledger_id { sc with balance })
    end

let reference_block_for sc =
  match last_cert sc with None -> Hash.zero | Some c -> c.included_in

(* wcert_sysdata epoch-boundary block hashes, resolved on the chain the
   caller queries through [block_hash_at]. Shared by acceptance and by
   the prediction jobs below so both build identical cache keys. *)
let epoch_boundaries sc ~(cert : Withdrawal_certificate.t) ~block_hash_at =
  Epoch.boundary_hashes (Epoch.of_config sc.config) ~epoch:cert.epoch_id
    ~block_hash_at

let wcert_verify_job t ~(cert : Withdrawal_certificate.t) ~block_hash_at =
  match find t cert.ledger_id with
  | None -> None
  | Some sc ->
    Option.map
      (fun (end_prev_epoch, end_epoch) ->
        Verifier.wcert_job ~vk:sc.config.wcert_vk ~cert ~end_prev_epoch
          ~end_epoch)
      (epoch_boundaries sc ~cert ~block_hash_at)

(* The aggregation leaf for one certificate, paired with the exact
   per-certificate job the leaf stands in for. Built from the same
   boundary resolution as [wcert_verify_job], so the leaf digest and
   the job's cache key bind the same verification instance — the
   aggregated and per-certificate paths decide identically by
   construction. *)
let wcert_leaf t ~(cert : Withdrawal_certificate.t) ~block_hash_at =
  match find t cert.ledger_id with
  | None -> None
  | Some sc ->
    Option.map
      (fun (end_prev_epoch, end_epoch) ->
        let vk = sc.config.wcert_vk in
        let leaf =
          {
            Zen_snark.Aggregate.sc_id = cert.ledger_id;
            epoch = cert.epoch_id;
            cert_hash = Withdrawal_certificate.hash cert;
            vk_digest = Zen_snark.Backend.vk_digest vk;
            proof_bytes = Zen_snark.Backend.proof_encode cert.proof;
            end_prev_epoch;
            end_epoch;
          }
        in
        (leaf, Verifier.wcert_job ~vk ~cert ~end_prev_epoch ~end_epoch))
      (epoch_boundaries sc ~cert ~block_hash_at)

let withdrawal_verify_job t ~(request : Mainchain_withdrawal.t) =
  match find t request.ledger_id with
  | None -> None
  | Some sc ->
    let vk =
      match request.kind with
      | Mainchain_withdrawal.Btr -> sc.config.btr_vk
      | Mainchain_withdrawal.Csw -> sc.config.csw_vk
    in
    Option.map
      (fun vk ->
        Verifier.withdrawal_job ~vk ~request
          ~reference_block:(reference_block_for sc))
      vk

let accept_cert ?(settled = Hash.Set.empty) t
    ~(cert : Withdrawal_certificate.t) ~block_hash ~height ~block_hash_at =
  let ( let* ) = Result.bind in
  let* sc =
    match find t cert.ledger_id with
    | None -> Error "cert: unknown sidechain"
    | Some sc -> Ok sc
  in
  let* () = Verifier.check_wcert_statics ~config:sc.config ~cert in
  let* () =
    if is_ceased_sc sc ~height then Error "cert: sidechain has ceased"
    else Ok ()
  in
  let schedule = Epoch.of_config sc.config in
  let* () =
    if Epoch.in_submission_window schedule ~epoch:cert.epoch_id ~height then
      Ok ()
    else Error "cert: outside the submission window"
  in
  (* Quality rule: a certificate for an epoch that already has one must
     strictly improve on it (§4.1.2 "Withdrawal certificate quality"). *)
  let replaced = cert_for_epoch sc ~epoch:cert.epoch_id in
  let* () =
    match replaced with
    | Some prev when cert.quality <= prev.cert.quality ->
      Error "cert: quality not higher than the accepted certificate"
    | _ -> Ok ()
  in
  (* Sequential certification: a fresh certificate must be for the
     earliest uncertified epoch. When submit_len > epoch_len the
     submission windows overlap, and without this rule epoch e+1 could
     be certified while epoch e is not — permanently stranding e:
     [Epoch.ceased_at] keeps tracking last_certified + 1, whose own
     window has already closed, so the chain neither ceases nor can
     ever certify the gap. Replacements (same epoch, higher quality)
     are exempt — they don't change which epochs are certified. *)
  let* () =
    let next_due =
      match last_certified_epoch sc with None -> 0 | Some e -> e + 1
    in
    match replaced with
    | Some _ -> Ok ()
    | None ->
      if cert.epoch_id = next_due then Ok ()
      else
        Error
          (Printf.sprintf
             "cert: epoch %d out of order (next uncertified epoch is %d)"
             cert.epoch_id next_due)
  in
  (* wcert_sysdata: epoch boundary block hashes from this chain. *)
  let* end_prev_epoch, end_epoch =
    match epoch_boundaries sc ~cert ~block_hash_at with
    | Some pair -> Ok pair
    | None -> Error "cert: epoch boundary block not on this chain"
  in
  let* () =
    let job =
      Verifier.wcert_job ~vk:sc.config.wcert_vk ~cert ~end_prev_epoch
        ~end_epoch
    in
    (* A key in [settled] was covered by this block's already-verified
       aggregate: the aggregate's leaves bind exactly the inputs of this
       job's key, so membership implies this verification would return
       true — skip it (that skip is the whole point of aggregation). *)
    if Hash.Set.mem (Verifier.job_key job) settled || Verifier.run_job job
    then Ok ()
    else Error "cert: SNARK proof rejected"
  in
  (* Safeguard: restore the replaced certificate's amount first, then
     debit this one; total withdrawals can never exceed the balance. *)
  let* withdrawn = Withdrawal_certificate.total_withdrawn cert in
  let* intermediate =
    match replaced with
    | None -> Ok sc.balance
    | Some prev -> (
      match Withdrawal_certificate.total_withdrawn prev.cert with
      | Error e -> Error e
      | Ok prev_amt -> (
        match Amount.add sc.balance prev_amt with
        | Error e -> Error e
        | Ok v -> Ok v))
  in
  let* balance =
    match Amount.sub intermediate withdrawn with
    | Error _ -> Error "cert: withdrawal exceeds sidechain balance (safeguard)"
    | Ok b -> Ok b
  in
  let record = { cert; included_in = block_hash; at_height = height } in
  let certs =
    record
    :: List.filter
         (fun c -> c.cert.Withdrawal_certificate.epoch_id <> cert.epoch_id)
         sc.certs
  in
  Ok (update t cert.ledger_id { sc with balance; certs }, replaced)

let check_withdrawal t ~(request : Mainchain_withdrawal.t) ~height =
  let ( let* ) = Result.bind in
  let* sc =
    match find t request.ledger_id with
    | None -> Error "withdrawal: unknown sidechain"
    | Some sc -> Ok sc
  in
  let* () = Verifier.check_withdrawal_statics ~config:sc.config ~request in
  let* () =
    if Hash.Set.mem request.nullifier sc.nullifiers then
      Error "withdrawal: nullifier already used"
    else Ok ()
  in
  let ceased = is_ceased_sc sc ~height in
  let* vk =
    match request.kind with
    | Mainchain_withdrawal.Btr ->
      if ceased then Error "btr: sidechain has ceased"
      else begin
        match sc.config.btr_vk with
        | None -> Error "btr: disabled for this sidechain"
        | Some vk -> Ok vk
      end
    | Mainchain_withdrawal.Csw ->
      if not ceased then Error "csw: sidechain is still active"
      else begin
        match sc.config.csw_vk with
        | None -> Error "csw: disabled for this sidechain"
        | Some vk -> Ok vk
      end
  in
  let* () =
    match request.kind with
    | Mainchain_withdrawal.Csw ->
      if Amount.( <= ) request.amount sc.balance then Ok ()
      else Error "csw: amount exceeds sidechain balance (safeguard)"
    | Mainchain_withdrawal.Btr -> Ok ()
  in
  let reference_block = reference_block_for sc in
  if Verifier.verify_withdrawal ~vk ~request ~reference_block then Ok ()
  else Error "withdrawal: SNARK proof rejected"

let apply_withdrawal t ~(request : Mainchain_withdrawal.t) ~height =
  match check_withdrawal t ~request ~height with
  | Error e -> Error e
  | Ok () ->
    let sc = Option.get (find t request.ledger_id) in
    let nullifiers =
      Hash.Set.add request.nullifier sc.nullifiers
    in
    let balance_result =
      match request.kind with
      | Mainchain_withdrawal.Csw -> Amount.sub sc.balance request.amount
      | Mainchain_withdrawal.Btr -> Ok sc.balance
    in
    (match balance_result with
    | Error e -> Error ("withdrawal: " ^ e)
    | Ok balance ->
      Ok (update t request.ledger_id { sc with nullifiers; balance }))
