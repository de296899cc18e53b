(** Post-hoc analysis over the raw {!Trace} buffers — span-tree
    reconstruction, self-time attribution, the critical path of the
    longest recorded span, latency quantiles — and every rendering of
    the registry: the human report, the ["zen-report/1"] JSON document
    and the Chrome trace. All are read-only merges of the per-domain
    buffers; none mutates or stops recording.

    {!Trace.with_span} records each span {e when it closes}, so within
    one domain children always precede their parent in [seq] order and
    the forest can be rebuilt in a single pass per domain (see
    {!span_forest}). Reconstruction is pure — given the same event list
    it yields the same forest, so reports are byte-identical under a
    deterministic {!Clock}. *)

type node = { event : Trace.event; children : node list }
(** One span (or instant) with its directly nested spans, sorted by
    start time. *)

val span_forest : Trace.event list -> node list
(** Rebuild the span forest from a flat event list (as produced by
    {!Trace.events}). Within each [tid], a closing [Complete] span at
    depth [d] adopts every not-yet-claimed node strictly deeper than
    [d]; unclaimed nodes become roots. If a parent event was dropped at
    the buffer cap its surviving descendants flatten into the nearest
    recorded ancestor rather than disappearing. Roots are sorted by
    [(ts, tid, seq)]. *)

val forest : unit -> node list
(** [span_forest (Trace.events ())]. *)

val dur : node -> float
(** The span's wall-clock duration ([0.] for instants). *)

val self_s : node -> float
(** Self time: [dur] minus the summed durations of direct children,
    clamped at [0.]. Over any tree, self times sum to the root's
    duration (up to the clamp). *)

val total_wall_s : node list -> float
(** Summed root durations — the observed wall-clock of the forest. *)

type agg = {
  key : string;  (** span name, or category *)
  agg_count : int;
  total_s : float;
  agg_self_s : float;
}

val self_time_by_name : node list -> agg list
(** Self-time attribution per span name over the [Complete] spans
    (instants are skipped), ranked by self time descending (ties
    broken by key, for deterministic output). *)

val self_time_by_category : node list -> agg list
(** Same, grouped by {!Trace.event.cat} (empty category reported as
    ["default"]). *)

type path_step = {
  step_name : string;
  step_cat : string;
  step_tid : int;
  step_args : (string * string) list;
  dur_s : float;
  step_self_s : float;
  share : float;  (** of the path root's duration *)
}

val critical_path_of : ?root:string -> node list -> path_step list
(** The dominant chain: starting from the longest root span (or the
    longest span named [root] anywhere in the forest), repeatedly
    descend into the longest child span. First element is the root;
    empty if the forest holds no [Complete] span. Ties resolve to the
    earliest [(ts, seq)] so the path is deterministic. *)

val critical_path : ?root:string -> unit -> path_step list
(** [critical_path_of ?root (forest ())]. *)

val human : unit -> string
(** Aligned text report, printed by [zendoo-cli --metrics] and
    [--report]: critical path, self time by category and by span name
    (every name), latency per histogram (count, mean, p50/p90/p99,
    max), the nonzero counters and gauges sorted by name, and a
    truncation warning when {!Trace.dropped} is non-zero. *)

val to_json : ?extras:(string * Json.t) list -> unit -> Json.t
(** The ["zen-report/1"] document:
    {v
    { "schema": "zen-report/1",
      "wall_s": float,
      "critical_path": null | {"root", "root_s",
                               "steps": [{"name", "cat", "tid", "dur_s",
                                          "self_s", "share", "args"}]},
      "self_time": {"by_category": [agg], "by_name": [agg]},
                   // agg: {"key", "count", "total_s", "self_s", "share"}
      "histograms": [{"name", "count", "sum", "p50", "p90", "p99", "max"}],
      "counters": {name: int},    // nonzero only, sorted by name
      "gauges":   {name: float},  // nonzero only, sorted by name
      "trace": {"events", "dropped", "buffer_limit"} }
    v}
    [extras] are appended as additional top-level fields (e.g. the
    prover pool's per-worker costs, the harness scoreboard). *)

val to_json_string : ?extras:(string * Json.t) list -> unit -> string

val chrome_trace : unit -> string
(** Chrome trace-event format (the JSON-object form with a
    ["traceEvents"] array) loadable in [chrome://tracing] or Perfetto.
    Spans become ["ph":"X"] complete events and instants ["ph":"i"],
    with [ts]/[dur] in microseconds relative to the earliest event,
    [pid] 1 and [tid] = recording domain id, plus one thread-name
    metadata record per domain so lanes are labelled. *)
