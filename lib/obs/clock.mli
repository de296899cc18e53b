(** The one time source of the repository.

    Everything that measures wall-clock time — span tracing, the prover
    pool's per-task accounting, bench timing — reads the clock through
    {!now}, so tests can substitute a deterministic source and get
    reproducible timings (and traces) without touching any call site. *)

val now : unit -> float
(** Seconds, from the current source. Defaults to [Unix.gettimeofday]. *)

val set : (unit -> float) -> unit
(** Replace the source process-wide (all domains see it). *)

val reset : unit -> unit
(** Restore [Unix.gettimeofday] and clear any accumulated {!skew}. *)

val skew : float -> unit
(** [skew d] shifts the clock forward by [d] seconds from now on, on
    top of whatever the current source returns (skews accumulate). This
    is the fault-injection hook [Zen_sim.Faults] uses to model clock
    drift: every consumer of {!now} — span tracing, the prover pool's
    per-task accounting — observes the jump, while the source itself
    (real or substituted) stays untouched. *)
