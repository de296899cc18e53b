(** The unified SNARK verification interface the mainchain applies to
    every sidechain (paper §4.1.2), with the scale-out fast path: a
    bounded verification cache and batch verification over a worker
    pool.

    Each sidechain registers verification keys; the mainchain only ever
    calls [Verify(vk, public_input, proof)] where the public input has
    the fixed 5-element shape [(sysdata…, MH(proofdata))]. Verification
    cost is constant regardless of what happened in the sidechain —
    experiment E7 measures this against the baselines, E15 measures the
    cache and batch path at many-sidechain scale. *)

open Zen_crypto
open Zen_snark

(** {2 Verification cache}

    A process-wide bounded memo of verification outcomes. A SNARK job's
    key binds the vk digest, the full public-input preimage (via the
    object hash plus the chain-supplied hashes) and the proof bytes; a
    signature job's binds the key, the message and the signature.
    Duplicate submissions, the miner's trial application of mempool
    candidates, and reorg replays of already-seen certificates and
    transfers all hit the cache instead of verifying again.

    Negative outcomes are cached too: an invalid proof stays invalid
    under the same key, so rejecting resubmissions is equally cheap.
    The cache is shared across chains/branches — safe because the key
    binds every input of the verify function, not because states
    agree. Thread-safe and always on: a verdict never depends on the
    cache's contents, so {!Cache.clear} followed by {!run_job} is the
    cold reference a warm verdict is checked against. *)
module Cache : sig
  val set_enabled : bool -> unit
  (** A leftover label, kept only for the perfbench workloads that
      call [set_enabled true]: [true] does nothing, [false] raises
      [Invalid_argument]. *)

  val set_capacity : int -> unit
  (** Maximum number of cached outcomes (default 4096); FIFO eviction.
      Shrinking evicts immediately. Raises [Invalid_argument] below 1.
      A test hook: only the eviction tests resize the cache. *)

  val size : unit -> int
  val clear : unit -> unit
  (** Drops all entries and resets {!stats} (used by tests/benchmarks
      to isolate measurements). *)

  type stats = { hits : int; misses : int; insertions : int; evictions : int }

  val stats : unit -> stats
  (** Always-on internal counters (since the last {!clear}); the same
      events are also recorded on the [mc.verify.cache.hit/miss/eviction]
      {!Zen_obs} counters when the registry is enabled. *)
end

(** {2 Verification jobs}

    A [job] packages one pending SNARK verification: its cache key and
    a thunk computing the verdict. Jobs let block validation collect
    every proof of a block and fan the cache misses out on a pool
    ({!verify_batch}) while the acceptance logic keeps making its
    decisions one at a time through {!run_job} — by construction both
    see the same verdicts. *)

type job

val wcert_job :
  vk:Backend.verification_key ->
  cert:Withdrawal_certificate.t ->
  end_prev_epoch:Hash.t ->
  end_epoch:Hash.t ->
  job
(** The certificate proof checked against the mainchain-enforced
    [wcert_sysdata] (quality, MH(BTList), epoch boundary block
    hashes). *)

val withdrawal_job :
  vk:Backend.verification_key ->
  request:Mainchain_withdrawal.t ->
  reference_block:Hash.t ->
  job
(** The shared BTR/CSW proof checked against [btr_sysdata]. *)

val aggregate_job : Aggregate.system -> Aggregate.t -> job
(** The single block-level verification of a certificate aggregate. The
    key binds the aggregate vk digest, the merge root, the covered
    count and the proof bytes, so mempool re-checks and reorg replays
    of the same block hit the cache. *)

val signature_job :
  pk:Schnorr.public_key -> msg:string -> signature:Schnorr.signature -> job
(** One Schnorr signature check, keyed by a tagged digest of the
    encoded key, the message and the encoded signature (Bitcoin Core's
    signature cache): the miner's trial application of a transfer
    verifies its inputs' signatures, and connecting the block it built
    answers them from the cache. *)

val job_key : job -> Hash.t
(** The cache key (exposed for tests). *)

val run_job : job -> bool
(** Cache lookup, else verify and store. *)

val verify_batch : ?pool:Pool.t -> job list -> bool list
(** Verdicts in input order. Cached outcomes are looked up first; the
    misses are verified on [pool] (default {!Pool.sequential}) and
    stored. Verification thunks are pure, so the result is bit-identical
    to the sequential path for every domain count. *)

val check_wcert_statics :
  config:Sidechain_config.t -> cert:Withdrawal_certificate.t -> (unit, string) result
(** The non-SNARK rules of "WCert Verification" (§4.1.2): ledger id
    match and proofdata schema conformance. Epoch-window and quality
    ordering need chain context and live in the mainchain ledger. *)

val check_withdrawal_statics :
  config:Sidechain_config.t -> request:Mainchain_withdrawal.t -> (unit, string) result
