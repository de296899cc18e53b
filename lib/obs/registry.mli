(** The process-wide on/off switch for all instrumentation.

    Recording sites compile down to one [Atomic.get] branch when the
    registry is disabled (the default), so instrumented hot paths —
    Poseidon permutations, pool tasks — cost nothing measurable in the
    common case. Observability is observation-only by construction:
    nothing in this library feeds back into protocol computation, so
    proofs, certificates and rewards are byte-identical with the
    registry on, off, or toggled mid-run (property-tested in
    [test/t_obs.ml]). *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val with_enabled : (unit -> 'a) -> 'a
(** Runs the thunk with recording on, restoring the previous state
    afterwards (including on exceptions). *)

val reset : unit -> unit
(** Zeroes every registered metric and empties every trace buffer.
    Call it only when no instrumented code is running concurrently;
    a racing increment may survive or vanish (never tear). *)

val on_reset : (unit -> unit) -> unit
(** Used by metric modules to register their reset action. *)
