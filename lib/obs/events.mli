(** Ordered, human-readable event logs (the harness's narration).

    A thin mutex-protected string log that doubles as a trace source:
    when the registry is enabled, every {!add} also records a
    {!Trace.instant} (category ["event"]), so harness narration shows
    up on the Chrome-trace timeline alongside the spans it explains.
    Unlike metrics, an [Events.t] always records — the log is the
    harness's functional output, not an optional observation. *)

type t

val create : unit -> t

val add : t -> string -> unit

val items : t -> string list
(** Oldest first (the order [Harness.dump_log] has always promised). *)
