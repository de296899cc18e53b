(* Span-tree reconstruction and critical-path / self-time analysis on
   top of the raw Trace buffers, and every rendering of the registry:
   the human report, the "zen-report/1" document and the Chrome
   trace. *)

type node = { event : Trace.event; children : node list }

let dur n = match n.event.Trace.phase with
  | Trace.Complete -> n.event.Trace.dur
  | Trace.Instant -> 0.

let self_s n =
  Float.max 0.
    (dur n -. List.fold_left (fun acc c -> acc +. dur c) 0. n.children)

let by_start a b =
  match Float.compare a.event.Trace.ts b.event.Trace.ts with
  | 0 -> Int.compare a.event.Trace.seq b.event.Trace.seq
  | c -> c

(* Rebuild the forest from the flat event list. Within one domain
   ([tid]) events are recorded in [seq] order and spans close strictly
   after their children ([with_span] pushes at span end), so a single
   pass per domain suffices: completed-but-unclaimed nodes wait in a
   depth-indexed pending set, and a closing span at depth [d] claims
   the nodes pending at depth d+1 as its children. The buffer drops
   only at its tail — once full, every later event is dropped — and a
   span closes after its descendants, so when a node's parent is
   dropped every ancestor above it is dropped too: the node is never
   claimed and stays a root. *)
let span_forest events =
  let by_tid : (int, Trace.event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      match Hashtbl.find_opt by_tid e.tid with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add by_tid e.tid (ref [ e ]))
    events;
  let tids =
    List.sort Int.compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [])
  in
  let roots_of_tid tid =
    let evs =
      List.sort
        (fun (a : Trace.event) (b : Trace.event) -> Int.compare a.seq b.seq)
        !(Hashtbl.find by_tid tid)
    in
    let pending : (int, node list ref) Hashtbl.t = Hashtbl.create 8 in
    let push d n =
      match Hashtbl.find_opt pending d with
      | Some l -> l := n :: !l
      | None -> Hashtbl.add pending d (ref [ n ])
    in
    let claim_children d =
      match Hashtbl.find_opt pending (d + 1) with
      | None -> []
      | Some l ->
        let children = !l in
        l := [];
        List.sort by_start children
    in
    List.iter
      (fun (e : Trace.event) ->
        match e.phase with
        | Trace.Instant -> push e.depth { event = e; children = [] }
        | Trace.Complete ->
          let children = claim_children e.depth in
          push e.depth { event = e; children })
      evs;
    Hashtbl.fold (fun _ l acc -> !l @ acc) pending []
  in
  List.concat_map roots_of_tid tids |> List.sort by_start

let forest () = span_forest (Trace.events ())

let rec fold_nodes f acc n = List.fold_left (fold_nodes f) (f acc n) n.children
let fold_forest f acc forest = List.fold_left (fold_nodes f) acc forest

let total_wall_s forest = List.fold_left (fun acc r -> acc +. dur r) 0. forest

(* ---- self-time attribution ---- *)

type agg = {
  key : string;
  agg_count : int;
  total_s : float;
  agg_self_s : float;
}

let ranked ~key_of forest =
  let tbl : (string, agg ref) Hashtbl.t = Hashtbl.create 32 in
  (* Instants (harness log lines mirrored by Events, trace points) are
     not spans: they take no time and must not crowd the rankings. *)
  let add () n =
    match n.event.Trace.phase with
    | Trace.Instant -> ()
    | Trace.Complete -> (
      let key = key_of n.event in
      match Hashtbl.find_opt tbl key with
      | None ->
        Hashtbl.add tbl key
          (ref { key; agg_count = 1; total_s = dur n; agg_self_s = self_s n })
      | Some a ->
        a :=
          {
            !a with
            agg_count = !a.agg_count + 1;
            total_s = !a.total_s +. dur n;
            agg_self_s = !a.agg_self_s +. self_s n;
          })
  in
  fold_forest add () forest;
  Hashtbl.fold (fun _ a acc -> !a :: acc) tbl []
  |> List.sort (fun a b ->
         match Float.compare b.agg_self_s a.agg_self_s with
         | 0 -> String.compare a.key b.key
         | c -> c)

let cat_key (e : Trace.event) = if e.cat = "" then "default" else e.cat
let self_time_by_name forest = ranked ~key_of:(fun e -> e.Trace.name) forest
let self_time_by_category forest = ranked ~key_of:cat_key forest

(* ---- critical path ---- *)

type path_step = {
  step_name : string;
  step_cat : string;
  step_tid : int;
  step_args : (string * string) list;
  dur_s : float;
  step_self_s : float;
  share : float;
}

let longest candidates =
  List.fold_left
    (fun best n ->
      match best with
      | None -> Some n
      | Some b ->
        if dur n > dur b then Some n
        else if dur n < dur b then best
        else if by_start n b < 0 then Some n
        else best)
    None candidates

(* The dominant chain: from the longest root span, repeatedly descend
   into the longest child span; ties resolve to the earliest
   [(ts, seq)]. Empty if the forest holds no Complete span. *)
let critical_path forest =
  match
    longest
      (List.filter (fun n -> n.event.Trace.phase = Trace.Complete) forest)
  with
  | None -> []
  | Some root_node ->
    let root_dur = dur root_node in
    let step n =
      {
        step_name = n.event.Trace.name;
        step_cat = cat_key n.event;
        step_tid = n.event.Trace.tid;
        step_args = n.event.Trace.args;
        dur_s = dur n;
        step_self_s = self_s n;
        share = (if root_dur > 0. then dur n /. root_dur else 1.);
      }
    in
    let rec descend n acc =
      let spans =
        List.filter (fun c -> c.event.Trace.phase = Trace.Complete) n.children
      in
      match longest spans with
      | None -> List.rev (step n :: acc)
      | Some next -> descend next (step n :: acc)
    in
    descend root_node []

(* ---- registry snapshots shared by both renderings ---- *)

let nonzero_counters () =
  List.filter_map
    (fun c ->
      let v = Counter.value c in
      if v = 0 then None else Some (Counter.name c, v))
    (Counter.all ())

let nonzero_gauges () =
  List.filter_map
    (fun g ->
      let v = Gauge.value g in
      if v = 0. then None else Some (Gauge.name g, v))
    (Gauge.all ())

let nonempty_histograms () =
  List.filter_map
    (fun h ->
      let s = Histogram.snapshot h in
      if s.Histogram.count = 0 then None else Some (h, s))
    (Histogram.all ())

(* ---- human rendering ---- *)

let pp_seconds s =
  if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.2fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let pp_share f = Printf.sprintf "%.1f%%" (100. *. f)

let add_table buf ~title ~columns rows =
  if rows <> [] then begin
    Buffer.add_string buf ("\n" ^ title ^ "\n");
    let widths =
      List.mapi
        (fun i c ->
          List.fold_left
            (fun w row -> max w (String.length (List.nth row i)))
            (String.length c) rows)
        columns
    in
    let line cells =
      List.iteri
        (fun i cell ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s" (List.nth widths i) cell))
        cells;
      Buffer.add_char buf '\n'
    in
    line columns;
    line (List.map (fun w -> String.make w '-') widths);
    List.iter line rows
  end

let args_string args =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) args)

let human () =
  let f = forest () in
  let wall = total_wall_s f in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "\n=== zen_obs report ===\n";
  (match critical_path f with
  | [] -> Buffer.add_string buf "\n(no spans recorded)\n"
  | root :: _ as path ->
    add_table buf
      ~title:
        (Printf.sprintf "critical path (root %s, %s; observed wall %s)"
           root.step_name (pp_seconds root.dur_s) (pp_seconds wall))
      ~columns:[ "#"; "name"; "cat"; "dur"; "self"; "share"; "args" ]
      (List.mapi
         (fun i s ->
           [
             string_of_int i;
             s.step_name;
             s.step_cat;
             pp_seconds s.dur_s;
             pp_seconds s.step_self_s;
             pp_share s.share;
             args_string s.step_args;
           ])
         path));
  let agg_rows aggs =
    List.map
      (fun a ->
        [
          a.key;
          string_of_int a.agg_count;
          pp_seconds a.total_s;
          pp_seconds a.agg_self_s;
          (if wall > 0. then pp_share (a.agg_self_s /. wall) else "-");
        ])
      aggs
  in
  add_table buf ~title:"self time by category"
    ~columns:[ "category"; "spans"; "total"; "self"; "share" ]
    (agg_rows (self_time_by_category f));
  add_table buf ~title:"self time by span name"
    ~columns:[ "name"; "count"; "total"; "self"; "share" ]
    (agg_rows (self_time_by_name f));
  add_table buf ~title:"latency quantiles"
    ~columns:[ "histogram"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
    (List.map
       (fun (h, s) ->
         [
           Histogram.name h;
           string_of_int s.Histogram.count;
           pp_seconds (s.Histogram.sum /. float_of_int s.Histogram.count);
           pp_seconds (Histogram.quantile s 0.5);
           pp_seconds (Histogram.quantile s 0.9);
           pp_seconds (Histogram.quantile s 0.99);
           pp_seconds s.Histogram.max;
         ])
       (nonempty_histograms ()));
  add_table buf ~title:"counters" ~columns:[ "name"; "value" ]
    (List.map (fun (n, v) -> [ n; string_of_int v ]) (nonzero_counters ()));
  add_table buf ~title:"gauges" ~columns:[ "name"; "value" ]
    (List.map (fun (n, v) -> [ n; Printf.sprintf "%g" v ]) (nonzero_gauges ()));
  let dropped = Trace.dropped () in
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "\nWARNING: %d trace events dropped at the per-domain buffer cap \
          (%d); the tree, critical path and self times above are partial\n"
         dropped (Trace.buffer_limit ()));
  Buffer.contents buf

(* ---- zen-report/1 ---- *)

let path_step_json s =
  Json.Obj
    [
      ("name", Json.Str s.step_name);
      ("cat", Json.Str s.step_cat);
      ("tid", Json.Int s.step_tid);
      ("dur_s", Json.Float s.dur_s);
      ("self_s", Json.Float s.step_self_s);
      ("share", Json.Float s.share);
      ( "args",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.step_args) );
    ]

let to_json ?(extras = []) () =
  let f = forest () in
  let wall = total_wall_s f in
  let path = critical_path f in
  let agg_json aggs =
    Json.Arr
      (List.map
         (fun a ->
           Json.Obj
             [
               ("key", Json.Str a.key);
               ("count", Json.Int a.agg_count);
               ("total_s", Json.Float a.total_s);
               ("self_s", Json.Float a.agg_self_s);
               ( "share",
                 Json.Float (if wall > 0. then a.agg_self_s /. wall else 0.) );
             ])
         aggs)
  in
  let histograms =
    Json.Arr
      (List.map
         (fun (h, s) ->
           Json.Obj
             [
               ("name", Json.Str (Histogram.name h));
               ("count", Json.Int s.Histogram.count);
               ("sum", Json.Float s.Histogram.sum);
               ("p50", Json.Float (Histogram.quantile s 0.5));
               ("p90", Json.Float (Histogram.quantile s 0.9));
               ("p99", Json.Float (Histogram.quantile s 0.99));
               ("max", Json.Float s.Histogram.max);
             ])
         (nonempty_histograms ()))
  in
  Json.Obj
    ([
       ("schema", Json.Str "zen-report/1");
       ("wall_s", Json.Float wall);
       ( "critical_path",
         match path with
         | [] -> Json.Null
         | root :: _ ->
           Json.Obj
             [
               ("root", Json.Str root.step_name);
               ("root_s", Json.Float root.dur_s);
               ("steps", Json.Arr (List.map path_step_json path));
             ] );
       ( "self_time",
         Json.Obj
           [
             ("by_category", agg_json (self_time_by_category f));
             ("by_name", agg_json (self_time_by_name f));
           ] );
       ("histograms", histograms);
       ( "counters",
         Json.Obj
           (List.map (fun (n, v) -> (n, Json.Int v)) (nonzero_counters ())) );
       ( "gauges",
         Json.Obj
           (List.map (fun (n, v) -> (n, Json.Float v)) (nonzero_gauges ())) );
       ( "trace",
         Json.Obj
           [
             ("events", Json.Int (List.length (Trace.events ())));
             ("dropped", Json.Int (Trace.dropped ()));
             ("buffer_limit", Json.Int (Trace.buffer_limit ()));
           ] );
     ]
    @ extras)

let to_json_string ?extras () = Json.to_string (to_json ?extras ())

(* ---- Chrome trace-event format ---- *)

let chrome_trace () =
  let events = Trace.events () in
  let t0 =
    List.fold_left
      (fun acc (e : Trace.event) -> Float.min acc e.ts)
      infinity events
  in
  let t0 = if t0 = infinity then 0. else t0 in
  let us t = (t -. t0) *. 1e6 in
  let args_json args =
    ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args))
  in
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun (e : Trace.event) -> e.tid) events)
  in
  let thread_names =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            args_json [ ("name", Printf.sprintf "domain %d" tid) ];
          ])
      tids
  in
  let records =
    List.map
      (fun (e : Trace.event) ->
        let common =
          [
            ("name", Json.Str e.name);
            ("cat", Json.Str (cat_key e));
            ("pid", Json.Int 1);
            ("tid", Json.Int e.tid);
            ("ts", Json.Float (us e.ts));
          ]
        in
        match e.phase with
        | Trace.Complete ->
          Json.Obj
            (common
            @ [
                ("ph", Json.Str "X");
                ("dur", Json.Float (e.dur *. 1e6));
                args_json e.args;
              ])
        | Trace.Instant ->
          Json.Obj
            (common
            @ [ ("ph", Json.Str "i"); ("s", Json.Str "t"); args_json e.args ]))
      events
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (thread_names @ records));
         ("displayTimeUnit", Json.Str "ms");
       ])
