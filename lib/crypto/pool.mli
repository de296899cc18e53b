(** Bounded multicore worker pool (OCaml 5 [Domain]s, stdlib only).

    This is the hardware layer of the paper's §5.4.1 distributed-proving
    story: proving tasks whose inputs were snapshotted up front are
    independent, so they can be executed by real domains instead of the
    accounted simulation the repository used to ship. The same pool
    drives the leaf wraps of a block's certificate aggregate
    ([Zen_snark.Aggregate.build], which folds their merges in order),
    mainchain batch verification ([Zendoo.Verifier.verify_batch]) and
    the per-sidechain entry hashes of a block's commitment
    ([Zendoo.Sc_commitment.build]).

    {2 Lifecycle: one shared pool per process}

    Spawning a domain costs milliseconds and a per-domain runtime; a
    {e parallel operation} on an already-running pool costs
    microseconds. The API is shaped around that asymmetry:

    - {!get} returns {b process-wide persistent pools} — one per
      domain count, spawned on first use, reused by every workload,
      joined once at process exit by an [at_exit] hook. This is what
      the CLI, the harness, the benches and the tests use.
    - {!create} / {!shutdown} manage a {b transient} pool whose worker
      lifetime the caller bounds explicitly. Use them only when the
      shared registry is wrong (a test exercising shutdown semantics, a
      host that must reclaim the domains early).

    Per-workload pool churn — a fresh pool around every operation —
    is exactly what made multi-domain runs {e slower} than sequential
    once per-prove work dropped to milliseconds; don't bring it back.
    Spawned workers get a larger minor heap ([Gc.set] at startup) so
    allocation-heavy proving stays domain-local instead of contending
    in the shared major heap.

    {2 Granularity: one future per task}

    A parallel operation over [n] indices is [n] {!future}s, submitted
    in one batch. Every body it runs is proving-sized work — a SNARK
    verification, a leaf wrap, a commitment entry: tens of
    microseconds or more — against which a future's own bookkeeping
    (a mutex, a condition and a queued closure: well under a
    microsecond) is noise.
    Work much finer than that (a ~2 µs Merkle node) does not belong on
    the pool: {!Merkle} hashes in the caller. The pool's work is
    observable in the [Zen_obs] registry: [pool.async.submitted]
    (futures queued), [pool.steals] (futures a worker ran) and
    [pool.worker.busy_us]/[.idle_us].

    The caller always participates, so:

    - [domains = 1] spawns no domains and runs the exact sequential
      code path;
    - a busy or already {!shutdown} pool degrades to sequential
      execution instead of deadlocking, and nested parallel operations
      are safe for the same reason.

    {2 Determinism discipline}

    Stealing and the shared registry affect {e scheduling only}. A
    parallel operation computes the same function at the same indices
    as its sequential counterpart and writes each result to a fixed
    slot, so for {b pure} per-index functions the output is
    bit-identical for every domain count. Callers must not close over shared mutable state; in
    particular each task must draw randomness from its own pre-seeded
    generator (see {!Rng.derive} for the discipline). *)

type t
(** A pool handle. Values of type [t] are safe to share across domains;
    parallel operations may themselves be issued from different domains
    (each operation tracks its own completion). *)

val sequential : t
(** A pool with [domains = 1] and no spawned workers: every operation
    runs in the caller, on the plain sequential code path. This is the
    default everywhere a [?pool] argument is offered. *)

val get : domains:int -> t
(** [get ~domains] returns the process-wide persistent pool with that
    total parallelism, spawning it on first use and reusing it on every
    later call ([get ~domains:1] is {!sequential}). Registry pools live
    until process exit (an [at_exit] hook joins them); a registry pool
    that was shut down by hand is replaced by a fresh one on the next
    [get]. Raises [Invalid_argument] if [domains < 1]. *)

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] fresh worker domains (so
    [domains] is the total parallelism including the caller) {e outside}
    the shared registry. A spawn costs milliseconds — this is {b not}
    cheap and must not sit on a per-operation or per-workload path;
    prefer {!get}. The caller owns the result and must release it with
    {!shutdown}. Raises [Invalid_argument] if [domains < 1]. *)

val shutdown : t -> unit
(** Signals the workers to exit once the queue drains and joins them.
    Idempotent. Operations issued after shutdown still complete,
    executed entirely by the caller (sequential degradation, not an
    error). *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    budget the benchmarks report against. *)

val domains : t -> int
(** Total parallelism of the pool, including the calling domain. *)

val init_array : t -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]: [init_array t n f] submits one future per
    index, runs every one no worker has claimed itself, in index order,
    and waits for the rest. With [domains = 1] or [n <= 1] it is
    [Array.init n f]. [f] must be safe to run concurrently at distinct
    indices. If any [f i] raises, every other index still runs, and
    then the lowest failing index's exception is re-raised in the
    caller, as [Array.init] raises it, at every domain count. For pure
    [f] the result is bit-identical to [Array.init] for every domain
    count. *)

(** {2 Single-task futures}

    The building block of pipelined proving
    ([Zen_latus.Proof_pipeline], which both the node and
    [Zen_latus.Prover_pool.prove_and_merge] prove through): a one-shot
    task submitted now and forced later, so independent work
    (a base proof) can overlap with whatever the submitting domain does
    next (forging the following block). The execution site is decided
    late — a pool worker may pick the task up in the background, or the
    caller runs it inline at {!await} if no worker got there first.
    {!init_array} is built on the same rule, so
    with {!sequential} (or a shut-down pool) a future is simply deferred
    sequential execution: submission queues nothing and {!await} runs
    the thunk in the caller. Either way the thunk runs {b exactly once},
    and for pure thunks the value is independent of where it ran. *)

type 'a future
(** A one-shot task; safe to share across domains. *)

val async : t -> (unit -> 'a) -> 'a future
(** [async t f] submits [f] for background execution on [t]'s workers
    (a no-op queue-wise when [t] has no workers). [f] must be pure in
    the same sense as {!init_array}'s bodies: no closing over shared
    mutable state, randomness only from a pre-seeded generator. *)

val poll : 'a future -> bool
(** [poll fut] is [true] once the task has finished (with a value or an
    exception). Never blocks and never runs the thunk. *)

val await : 'a future -> 'a
(** [await fut] returns the task's value, running the thunk inline if
    no worker has claimed it yet, or blocking until the worker finishes
    if one has. Re-raises the thunk's exception if it raised. Idempotent:
    later awaits return the same result without re-running the thunk. *)
