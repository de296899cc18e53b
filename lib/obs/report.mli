(** Post-hoc analysis over the raw {!Trace} buffers — span-tree
    reconstruction, self-time attribution, the critical path of the
    longest recorded span, latency quantiles — and every rendering of
    the registry: the human report, the ["zen-report/1"] JSON document
    and the Chrome trace. All are read-only merges of the per-domain
    buffers; none mutates or stops recording.

    {!Trace.with_span} records each span {e when it closes}, so within
    one domain children always precede their parent in [seq] order and
    the forest can be rebuilt in a single pass per domain (see
    {!forest}). Reconstruction is pure — given the same event list it
    yields the same forest, so reports are byte-identical under a
    deterministic {!Clock}. *)

type node = { event : Trace.event; children : node list }
(** One span (or instant) with its directly nested spans, sorted by
    start time. *)

val forest : unit -> node list
(** The span forest rebuilt from {!Trace.events}. Within each [tid], a
    closing [Complete] span at depth [d] adopts every not-yet-claimed
    node at depth [d + 1]; unclaimed nodes become roots. The buffer
    drops only events recorded after it filled, and a span closes after
    its descendants, so a span whose parent was dropped has no recorded
    ancestor: it becomes a root rather than disappearing. Roots are
    sorted by [(ts, tid, seq)]. *)

val self_s : node -> float
(** Self time: the span's duration minus the summed durations of its
    direct children (an instant lasts [0.]), clamped at [0.]. Over any
    tree, self times sum to the root's duration (up to the clamp). *)

val human : unit -> string
(** Aligned text report, printed by [zendoo-cli --metrics] and
    [--report]: critical path, self time by category and by span name
    (every name), latency per histogram (count, mean, p50/p90/p99,
    max), the nonzero counters and gauges sorted by name, and a
    truncation warning when {!Trace.dropped} is non-zero. *)

val to_json_string : ?extras:(string * Json.t) list -> unit -> string
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
    The critical path is the dominant chain of {!forest}: starting from
    the longest root span, it repeatedly descends into the longest
    child span; ties resolve to the earliest [(ts, seq)], and it is
    [null] if the forest holds no [Complete] span. [share] is a step's
    duration over the root's. Self time is attributed per span name
    and per category (empty category reported as ["default"]) over the
    [Complete] spans only, ranked by self time descending with ties
    broken by key. [extras] are appended as additional top-level fields
    (e.g. the prover pool's per-worker costs, the harness
    scoreboard). *)

val chrome_trace : unit -> string
(** Chrome trace-event format (the JSON-object form with a
    ["traceEvents"] array) loadable in [chrome://tracing] or Perfetto.
    Spans become ["ph":"X"] complete events and instants ["ph":"i"],
    with [ts]/[dur] in microseconds relative to the earliest event,
    [pid] 1 and [tid] = recording domain id, plus one thread-name
    metadata record per domain so lanes are labelled. *)
