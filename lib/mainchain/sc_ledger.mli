(** Mainchain-side sidechain ledger: the registry of sidechains and the
    per-sidechain state the mainchain maintains — balance (withdrawal
    safeguard, §4.1.2.2), accepted certificates per epoch with the
    quality rule (§4.1.2), used nullifiers, and cease status (Def. 4.2).

    This module holds the rules that don't need the UTXO set; coin
    movement for certificate payouts and CSWs is carried out by
    {!Chain_state}, which consumes the decisions made here. *)

open Zen_crypto
open Zendoo

type cert_record = {
  cert : Withdrawal_certificate.t;
  included_in : Hash.t;  (** MC block hash carrying the certificate *)
  at_height : int;
}

type sc_state = {
  config : Sidechain_config.t;
  balance : Amount.t;  (** safeguard balance *)
  certs : cert_record list;  (** best certificate per epoch, newest first *)
  nullifiers : Hash.Set.t;
}

type t

val empty : t

val register : t -> Sidechain_config.t -> created_at:int -> (t, string) result
(** Fails on duplicate or reserved ledger id, or when [start_block] is
    not strictly in the future. *)

val find : t -> Hash.t -> sc_state option

val is_ceased : t -> Hash.t -> height:int -> bool
(** Def. 4.2, evaluated at a chain tip of the given height. Unknown
    sidechains are not "ceased" — they never existed. *)

val last_cert : sc_state -> cert_record option

val cert_for_epoch : sc_state -> epoch:int -> cert_record option
(** The record for [epoch], if certified. [certs] holds strictly
    decreasing epoch ids, so the search stops at the first record not
    newer than [epoch]: it visits the epochs certified since [epoch]
    plus one, not the whole history. Counts visited records into
    [mc.scan.cert_records]. *)

val credit_ft : t -> Forward_transfer.t -> height:int -> (t, string) result
(** Applies a forward transfer: destination exists, is active and not
    ceased; the balance grows. *)

val accept_cert :
  ?settled:string Hash.Map.t ->
  t ->
  cert:Withdrawal_certificate.t ->
  block_hash:Hash.t ->
  height:int ->
  block_hash_at:(int -> Hash.t option) ->
  (t * cert_record option, string) result
(** Full certificate acceptance: statics, epoch window, quality rule,
    sequential certification (a fresh certificate must be for the
    earliest uncertified epoch — overlapping submission windows from
    [submit_len > epoch_len] must never strand an epoch), SNARK
    verification against the epoch-boundary block hashes (resolved
    through [block_hash_at]), safeguard. On success returns the state
    and the certificate record this one *replaces* (same epoch, lower
    quality), whose payouts the chain must claw back.

    The new record takes the replaced record's place in [certs], or its
    sorted place when there is none, so epoch ids stay strictly
    decreasing even when overlapping windows let an older epoch be
    replaced after a newer one was certified. Only the records newer
    than its epoch are visited and copied; the older tail is shared.
    For a record at least as new as every other this is
    [record :: List.filter (fun c -> epoch c <> epoch record) certs].

    [settled] (default empty) maps the ids ({!Withdrawal_certificate.hash})
    of the certificates the enclosing block's verified aggregate
    covers to the proof bytes ({!Zen_snark.Backend.proof_encode}) each
    covered leaf bound. A certificate found there {e with those proof
    bytes} skips its SNARK verification, and with it the job, its key
    and the epoch-boundary lookup: the aggregate's leaf bound the same
    vk, certificate, proof and boundaries, so the decision is the
    same. The id alone would not do, because it does not bind the
    proof: a certificate whose proof differs from the settled bytes is
    verified as if [settled] were empty. The map must come from an
    aggregate checked against this ledger and chain, as
    {!Chain_state.apply_block} builds it. *)

val check_withdrawal :
  t ->
  request:Mainchain_withdrawal.t ->
  height:int ->
  (unit, string) result
(** Shared BTR/CSW admission: registration, schema, nullifier
    freshness, SNARK proof, and kind-specific status (BTR requires an
    active sidechain, CSW a ceased one) plus safeguard for CSW. *)

val apply_withdrawal :
  t -> request:Mainchain_withdrawal.t -> height:int -> (t, string) result
(** [check_withdrawal] then record the nullifier; for CSW also debit
    the balance. *)

val reference_block_for : sc_state -> Hash.t
(** [H(B_w)] of §4.1.2.1: the block that carried the latest accepted
    certificate, or {!Hash.zero} when none exists yet. *)

val wcert_leaf :
  t ->
  cert:Withdrawal_certificate.t ->
  block_hash_at:(int -> Hash.t option) ->
  Zen_snark.Aggregate.leaf option
(** The certificate's aggregation leaf against the current state: vk
    digest, certificate hash, proof bytes and the epoch boundaries
    resolved through [block_hash_at]. Aggregate settlement folds it.
    [None] when the sidechain is unknown or an epoch boundary is
    unresolvable (acceptance fails before verifying). *)

val wcert_job :
  t ->
  cert:Withdrawal_certificate.t ->
  block_hash_at:(int -> Hash.t option) ->
  (Zen_snark.Aggregate.leaf * Verifier.job) option
(** {!wcert_leaf}, paired with the per-certificate verification job the
    leaf stands in for. {!accept_cert} runs the job, block validation
    prewarms the {!Verifier.Cache} with it, and the miner folds the
    leaf into its aggregate. Leaf digest and job key bind the same
    instance, which is what makes aggregated and per-certificate
    validation decide identically. [None] exactly when {!wcert_leaf}
    is. *)

val withdrawal_job :
  t -> request:Mainchain_withdrawal.t -> Verifier.job option
(** The BTR/CSW proof check {!check_withdrawal} runs, against the
    reference block read from the current state. [None] when the
    sidechain is unknown or registered no vk for the request's kind.
    Used ahead of application to prewarm the cache: if an earlier
    transaction of the same block changes the reference block, that
    prediction is merely a wasted cache entry, because acceptance
    builds its own job from the state it applies to. *)

val balance : t -> Hash.t -> Amount.t option
