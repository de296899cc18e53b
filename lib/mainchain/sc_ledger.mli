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

val credit_ft : t -> Forward_transfer.t -> height:int -> (t, string) result
(** Applies a forward transfer: destination exists, is active and not
    ceased; the balance grows. *)

val accept_cert :
  ?settled:Hash.Set.t ->
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

    [settled] carries the {!Verifier.job_key}s of certificate
    verifications already discharged by the enclosing block's verified
    aggregate; a key found there skips the individual SNARK
    verification (the decision is provably the same — the aggregate's
    leaves bind the same inputs as the job key). *)

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

val wcert_verify_job :
  t ->
  cert:Withdrawal_certificate.t ->
  block_hash_at:(int -> Hash.t option) ->
  Verifier.job option
(** The exact SNARK verification {!accept_cert} will run for this
    certificate against the current state — used to prewarm the
    {!Verifier.Cache} in a batch before transactions are applied one by
    one. [None] when the sidechain is unknown or an epoch boundary is
    unresolvable (acceptance would fail before verifying anyway). *)

val wcert_leaf :
  t ->
  cert:Withdrawal_certificate.t ->
  block_hash_at:(int -> Hash.t option) ->
  (Zen_snark.Aggregate.leaf * Verifier.job) option
(** The certificate's aggregation leaf, paired with the per-certificate
    verification job it stands in for. Leaf digest and job key bind the
    same instance (vk digest, certificate hash, proof bytes, epoch
    boundaries), which is what makes aggregated and per-certificate
    validation decide identically. Same [None] conditions as
    {!wcert_verify_job}. *)

val withdrawal_verify_job :
  t -> request:Mainchain_withdrawal.t -> Verifier.job option
(** Same prediction for {!check_withdrawal}'s BTR/CSW proof. The
    reference block is read from the current state; if an earlier
    transaction of the same block changes it, the prediction is merely
    a wasted cache entry — acceptance recomputes its own key. *)

val balance : t -> Hash.t -> Amount.t option
