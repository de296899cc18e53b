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

(* Certificate records visited by the epoch searches below. *)
let records_visited = Zen_obs.Counter.make "mc.scan.cert_records"

let epoch_of c = c.cert.Withdrawal_certificate.epoch_id

(* [certs] holds strictly decreasing epoch ids, so both searches stop
   at the first record for [epoch] or an older one: their cost is the
   number of epochs certified since [epoch], not the history. *)
let cert_for_epoch sc ~epoch =
  let rec go = function
    | [] -> None
    | c :: rest ->
      Zen_obs.Counter.incr records_visited;
      if epoch_of c > epoch then go rest
      else if epoch_of c = epoch then Some c
      else None
  in
  go sc.certs

(* [record] in the place of its epoch's record, or in its sorted place:
   the newer records are copied, the older tail is shared. *)
let with_record certs record =
  let epoch = epoch_of record in
  let rec go = function
    | c :: rest when epoch_of c >= epoch ->
      Zen_obs.Counter.incr records_visited;
      if epoch_of c = epoch then record :: rest else c :: go rest
    | older -> record :: older
  in
  go certs

let last_certified_epoch sc = Option.map epoch_of (last_cert sc)

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

(* The certificate's SNARK check instance: the vk and the aggregation
   leaf, from which [wcert_job] builds the per-certificate job the leaf
   stands in for. Acceptance, the block-level prewarm, aggregate
   settlement and the miner's aggregate all take the check from here,
   so the leaf digest and the job's cache
   key bind the same verification instance (vk digest, certificate
   hash, proof bytes, and the wcert_sysdata epoch-boundary block hashes
   resolved through [block_hash_at]): aggregated and per-certificate
   validation decide identically by construction. *)
let wcert_instance t ~(cert : Withdrawal_certificate.t) ~block_hash_at =
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
        (vk, leaf))
      (Epoch.boundary_hashes (Epoch.of_config sc.config) ~epoch:cert.epoch_id
         ~block_hash_at)

let wcert_leaf t ~cert ~block_hash_at =
  Option.map snd (wcert_instance t ~cert ~block_hash_at)

let wcert_job t ~cert ~block_hash_at =
  Option.map
    (fun (vk, (leaf : Zen_snark.Aggregate.leaf)) ->
      ( leaf,
        Verifier.wcert_job ~vk ~cert ~end_prev_epoch:leaf.end_prev_epoch
          ~end_epoch:leaf.end_epoch ))
    (wcert_instance t ~cert ~block_hash_at)

(* The BTR/CSW proof check against the reference block of the latest
   accepted certificate; [None] also when the sidechain registered no
   vk for the request's kind. *)
let withdrawal_job t ~(request : Mainchain_withdrawal.t) =
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

let accept_cert ?(settled = Hash.Map.empty) t
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
  let* () =
    (* A certificate id in [settled] was covered by this block's
       already-verified aggregate, whose leaf bound the proof bytes it
       maps to. The id does not bind the proof, so the skip needs this
       certificate's proof to be those bytes; the vk and the epoch
       boundaries the leaf bound are read from the same ledger and
       chain. Then this verification would return true: skip it, with
       its job, key and boundary lookup (that skip is the whole point
       of aggregation). *)
    match Hash.Map.find_opt (Withdrawal_certificate.hash cert) settled with
    | Some proof_bytes
      when String.equal proof_bytes (Zen_snark.Backend.proof_encode cert.proof)
      ->
      Ok ()
    | Some _ | None -> (
      (* The sidechain is known, so [None] means an epoch boundary block
         (wcert_sysdata) is not on this chain. *)
      match wcert_job t ~cert ~block_hash_at with
      | None -> Error "cert: epoch boundary block not on this chain"
      | Some (_, job) ->
        if Verifier.run_job job then Ok ()
        else Error "cert: SNARK proof rejected")
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
  let certs = with_record sc.certs record in
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
  let* () =
    match request.kind with
    | Mainchain_withdrawal.Btr when ceased -> Error "btr: sidechain has ceased"
    | Mainchain_withdrawal.Csw when not ceased ->
      Error "csw: sidechain is still active"
    | Mainchain_withdrawal.Btr | Mainchain_withdrawal.Csw -> Ok ()
  in
  (* The sidechain is known, so [None] means no vk for this kind. *)
  let* job =
    match (withdrawal_job t ~request, request.kind) with
    | Some job, _ -> Ok job
    | None, Mainchain_withdrawal.Btr -> Error "btr: disabled for this sidechain"
    | None, Mainchain_withdrawal.Csw -> Error "csw: disabled for this sidechain"
  in
  let* () =
    match request.kind with
    | Mainchain_withdrawal.Csw ->
      if Amount.( <= ) request.amount sc.balance then Ok ()
      else Error "csw: amount exceeds sidechain balance (safeguard)"
    | Mainchain_withdrawal.Btr -> Ok ()
  in
  if Verifier.run_job job then Ok ()
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
