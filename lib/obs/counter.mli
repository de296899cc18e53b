(** Monotone counters with per-domain cells.

    [incr]/[add] touch only the calling domain's cell (no cross-domain
    contention — see {!Sharded}); {!value} merges at read time. With
    the registry disabled, recording is a single branch. *)

type t

val make : string -> t
(** [make name] registers a counter (idempotent: a second [make] with
    the same name returns the existing counter, keeping module-level
    instrumentation and tests from fighting over registration). *)

val incr : t -> unit
val add : t -> int -> unit

val value : t -> int
(** Sum over every domain's cell. *)

val name : t -> string

val all : unit -> t list
(** Every registered counter, sorted by name (for exporters). *)
