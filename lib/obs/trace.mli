(** Span-based tracing with per-domain buffers.

    {!with_span} brackets a computation with two clock reads and
    appends one event to the {e calling domain's} private buffer
    (never contended — see {!Sharded}); buffers merge only at export.
    Because the recording domain is the executing domain, every event
    carries the true domain id, which is what gives the Chrome-trace
    export one lane ([tid]) per domain — the prover pool's per-domain
    task timeline falls out for free.

    Disabled registry: [with_span _ f] is [f ()] behind one branch. *)

type phase = Complete | Instant

type event = {
  name : string;
  cat : string;  (** coarse grouping: "pool", "snark", "latus", … *)
  tid : int;  (** the recording domain's id *)
  ts : float;  (** {!Clock.now} at span start, seconds *)
  dur : float;  (** span duration in seconds; [0.] for instants *)
  depth : int;  (** span nesting depth within the recording domain *)
  phase : phase;
  args : (string * string) list;
  seq : int;  (** per-domain sequence number (stable ordering) *)
}

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records one [Complete] event
    (also on exception, before re-raising). Spans nest freely,
    including across {!Pool}-style helper domains — each domain tracks
    its own depth. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration point event. *)

val events : unit -> event list
(** All buffered events, merged across domains and sorted by
    [(ts, tid, seq)]. *)

val dropped : unit -> int
(** Events discarded because a domain's buffer hit {!buffer_limit};
    exporters surface this so truncation is never silent. *)

val buffer_limit : unit -> int
(** The per-domain event cap (200_000): recording past it drops the new
    event and counts it in {!dropped}. Exporters quote it next to
    {!dropped}. *)
