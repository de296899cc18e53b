(** Pipelined epoch proving: the one prover of the repository.

    The paper's §5.4.1 provers (and the Latus incentive-scheme paper,
    arXiv:2103.13754) generate base proofs and merge proofs
    {e continuously across the epoch}, not in a burst at the boundary.
    Each step applied natively is recorded with its pre- and post-state
    ({!Sc_tx.traced}), and {!enqueue} turns the record into one proving
    task — {!Circuits.prove_traced}, then {!Recursive.of_base}, whose
    verification is the proof's only check — submitted as a
    {!Pool.future}. As sibling proofs land, {!pump} folds them through
    a {!Fold} over {!Recursive.merge} — the online balanced fold — so by
    certify time the epoch's merge tree is already built except for the
    ≤ ⌈log₂ n⌉ binary-counter carry merges, which {!await_epoch} runs
    together with any straggler base proofs.

    Two callers drive it. {!Node.forge} enqueues each forged block's
    records and the tasks complete on the shared Domain pool in the
    background while the node forges the next block.
    [Prover_pool.prove_and_merge] traces a whole epoch, enqueues every
    record at once, awaits it and does the §5.4.1 worker accounting
    around the result ({!leaf_results}).

    {2 Determinism}

    Scheduling moves, bytes don't. Leaves are harvested strictly in
    application order regardless of completion order, the incremental
    fold reproduces the level-by-level balanced tree exactly, and a
    task's thunk is pure — so certificates (and on failure, the reported
    error) are byte-identical to proving every step synchronously and
    folding the proofs in one burst, for every domain count (the test
    suite keeps that burst prover as its oracle). With a sequential
    pool nothing runs in the background; {!pump} and {!await_epoch} are
    simply where the deferred work executes, which spreads it across
    ticks instead of bursting.

    {2 Observability}

    [latus.pipeline.depth] (gauge: tasks in flight),
    [latus.pipeline.queue_wait.seconds] / [.prove.seconds] (histograms),
    one [latus.prove_step] span per task,
    and [latus.pipeline.enqueued] / [.merges.eager] / [.merges.carry] /
    [.truncations] (counters). The certify-path shrink shows up as the
    [latus.fold] span collapsing in [Zen_obs.Report]. *)

open Zen_snark

type t

type certificate_stats = {
  cert_epoch : int;
  cert_leaves : int;  (** base transitions folded into the epoch proof *)
  cert_carry_merges : int;
      (** merges that actually ran on the certify path —
          ≤ ⌈log₂ [cert_leaves]⌉, vs. [cert_leaves] − 1 for a burst
          fold at certify time *)
}

val create : pool:Zen_crypto.Pool.t -> family:Circuits.family -> rsys:Recursive.system -> t
(** The pipeline borrows [pool] (it does not own or shut it down) and
    proves under [family]'s circuits, wrapping into [rsys]. *)

val enqueue : t -> epoch:int -> Sc_tx.traced -> unit
(** Submits the proof of a traced step ({!Circuits.prove_traced}) for
    background execution, appended to [epoch]'s stream in application
    order. The proof's [s_to] is the record's [post], so the step is
    not applied again. Both states are hashed here, in order, except a
    [pre] that is the previous record's [post] (the same value, as
    {!Sc_tx.trace} chains them): its hash is reused, so an epoch of
    [n] consecutive steps hashes [n + 1] states. Call only with
    records of steps that are definitely part of a forged block, in
    block order. *)

val pump : t -> unit
(** Non-blocking drain point, called between ticks: folds every already
    completed proof into its epoch's incremental merge tree. On a
    sequential pool this is where deferred proofs run (inline, all of
    them) — the drain point that keeps single-domain runs byte-identical
    while still moving work off the certify burst. *)

val await_epoch : t -> epoch:int -> (Recursive.transition_proof, string) result
(** Completes [epoch]'s fold: awaits straggler base proofs (running
    unclaimed ones inline), then performs the remaining carry merges.
    Errors are deterministic and identical to the synchronous
    prove-then-fold path: the first failing base proof in application
    order, else the first failing merge in the level-by-level fold's
    (level, pair) order. Appends to {!certificate_log}. *)

val leaf_results :
  t ->
  epoch:int ->
  ((Recursive.transition_proof, string) result * float) list
(** [epoch]'s leaves in leaf order (none for an unknown epoch): each
    leaf's wrapped base proof, or its task's error, and the seconds its
    task took. Awaits any leaf {!await_epoch} has not harvested. *)

val leaves : t -> epoch:int -> int
(** Tasks enqueued for [epoch] so far (0 for an unknown epoch). *)

val outstanding : t -> int
(** Tasks enqueued but not yet folded, across all epochs — the value of
    the [latus.pipeline.depth] gauge. *)

val truncate : t -> epoch:int -> keep:int -> unit
(** MC-reorg rollback: keep only the first [keep] leaves of [epoch]'s
    stream and rebuild its fold from the already-proven kept prefix (no
    base proof is re-run; only merges replay). Dropped in-flight tasks
    finish harmlessly and are never read. *)

val drop_below : t -> epoch:int -> unit
(** Forgets every stream strictly below [epoch] — called when the node
    prunes records below the mainchain's certified horizon. *)

val certificate_log : t -> certificate_stats list
(** One entry per {!await_epoch} call, newest first — the per-epoch
    certify-path accounting surfaced in the CLI report
    ([pipeline.certs]) and asserted by CI's pipeline-smoke job. *)
