(* Zen_obs.Report: span-forest reconstruction round-trips randomly
   generated span trees (emitted exactly as Trace records them —
   children before parents, per-domain seq order), self time sums back
   to the root's wall-clock and its rankings ignore instants, the
   histogram quantile estimate always lands in the same bucket as an
   exact sorted-list oracle (and q = 1 is exactly the max), dropped
   parents flatten instead of losing descendants, and report generation
   is byte-identical across reruns under a deterministic clock. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let with_fresh_obs f =
  Zen_obs.Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Zen_obs.Registry.disable ();
      Zen_obs.Registry.reset ())
    (fun () -> Zen_obs.Registry.with_enabled f)

(* ---- synthetic span forests ----

   A forest shape is turned into the exact event list Trace would
   record for it: one Complete event per span, pushed at span end
   (children before the parent), seq in recording order, ts/dur from a
   counter clock that advances one unit at every span entry and exit. *)

type stree = Node of stree list

let gen_forest =
  QCheck2.Gen.(
    let tree =
      sized_size (int_range 0 20)
      @@ fix (fun self n ->
             if n <= 0 then return (Node [])
             else
               let* kids = list_size (int_range 0 3) (self (n / 4)) in
               return (Node kids))
    in
    list_size (int_range 1 4) tree)

let events_of_forest ?(tid = 0) ?(t0 = 0.) forest =
  let time = ref t0 and seq = ref 0 and counter = ref 0 in
  let out = ref [] (* recording order, newest first *) in
  let expected_children : (string, string list) Hashtbl.t =
    Hashtbl.create 16
  in
  let rec walk depth (Node kids) =
    incr counter;
    let name = Printf.sprintf "s%d.%d" tid !counter in
    let start = !time in
    time := !time +. 1.;
    let child_names = List.map (walk (depth + 1)) kids in
    let stop = !time in
    time := !time +. 1.;
    Hashtbl.add expected_children name child_names;
    out :=
      {
        Zen_obs.Trace.name;
        cat = "t";
        tid;
        ts = start;
        dur = stop -. start;
        depth;
        phase = Zen_obs.Trace.Complete;
        args = [];
        seq =
          (let s = !seq in
           incr seq;
           s);
      }
      :: !out;
    name
  in
  let roots = List.map (walk 0) forest in
  (List.rev !out, roots, expected_children)

let rec node_matches expected (node : Zen_obs.Report.node) name =
  String.equal node.event.Zen_obs.Trace.name name
  &&
  let kids = Hashtbl.find expected name in
  List.length node.children = List.length kids
  && List.for_all2 (node_matches expected) node.children kids

let prop_forest_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"span_forest round-trips synthetic recording-order events"
       ~count:200 gen_forest
       (fun shape ->
         let events, roots, expected = events_of_forest shape in
         let forest = Zen_obs.Report.span_forest events in
         List.length forest = List.length roots
         && List.for_all2 (node_matches expected) forest roots))

let prop_self_time_sums_to_wall =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"self times over a tree sum to the root's duration" ~count:200
       gen_forest
       (fun shape ->
         let events, _, _ = events_of_forest shape in
         let forest = Zen_obs.Report.span_forest events in
         List.for_all
           (fun root ->
             let rec sum n =
               Zen_obs.Report.self_s n
               +. List.fold_left (fun acc c -> acc +. sum c) 0. n.Zen_obs.Report.children
             in
             (* counter clock: all values are small integers, sums are
                exact *)
             sum root = Zen_obs.Report.dur root)
           forest))

(* Log lines mirrored by Events are instants in the forest: one
   before each span closes (a child of it) and one leading root. The
   self-time rankings must aggregate the Complete spans only, with the
   same counts and totals as the forest without them. *)
let with_instants events =
  let log (e : Zen_obs.Trace.event) ~depth =
    { e with name = "log " ^ e.name; cat = "event"; dur = 0.; depth;
             ts = e.ts +. e.dur; phase = Zen_obs.Trace.Instant }
  in
  (match events with [] -> [] | e :: _ -> [ log e ~depth:0 ])
  @ List.concat_map
      (fun (e : Zen_obs.Trace.event) -> [ log e ~depth:(e.depth + 1); e ])
      events
  |> List.mapi (fun seq e -> { e with Zen_obs.Trace.seq })

let prop_rankings_skip_instants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"self-time rankings skip instants" ~count:200
       gen_forest
       (fun shape ->
         let events, _, _ = events_of_forest shape in
         let plain = Zen_obs.Report.span_forest events in
         let mixed = Zen_obs.Report.span_forest (with_instants events) in
         Zen_obs.Report.self_time_by_name mixed
         = Zen_obs.Report.self_time_by_name plain
         && Zen_obs.Report.self_time_by_category mixed
            = Zen_obs.Report.self_time_by_category plain
         && List.for_all
              (fun a -> a.Zen_obs.Report.key <> "event")
              (Zen_obs.Report.self_time_by_category mixed)))

let test_two_tid_forests_merge () =
  let ev1, roots1, exp1 = events_of_forest ~tid:1 [ Node [ Node [] ] ] in
  let ev2, roots2, exp2 =
    events_of_forest ~tid:2 ~t0:1000. [ Node []; Node [] ]
  in
  let forest = Zen_obs.Report.span_forest (ev1 @ ev2) in
  checki "three roots" 3 (List.length forest);
  (* tid 1 starts at t=0, tid 2 at t=1000: roots sort by start time *)
  checkb "roots ordered and shaped" true
    (List.for_all2
       (fun n (expected, name) -> node_matches expected n name)
       forest
       ([ (exp1, List.hd roots1) ]
       @ List.map (fun r -> (exp2, r)) roots2))

let test_dropped_parent_flattens () =
  let events, _, _ = events_of_forest [ Node [ Node [ Node [] ] ] ] in
  (* drop the depth-1 middle span, as a full buffer would *)
  let truncated =
    List.filter (fun e -> e.Zen_obs.Trace.depth <> 1) events
  in
  let forest = Zen_obs.Report.span_forest truncated in
  checki "one root survives" 1 (List.length forest);
  let root = List.hd forest in
  checki "root is the depth-0 span" 0 root.event.Zen_obs.Trace.depth;
  checki "orphaned depth-2 span flattened under it" 1
    (List.length root.children);
  checki "no further nesting" 0
    (List.length (List.hd root.children).Zen_obs.Report.children)

(* ---- critical path ---- *)

let test_critical_path_follows_longest_child () =
  with_fresh_obs @@ fun () ->
  Zen_obs.Clock.set (Zen_obs.Clock.deterministic ~step:0.001 ());
  Fun.protect ~finally:Zen_obs.Clock.reset @@ fun () ->
  Zen_obs.Trace.with_span "root" (fun () ->
      Zen_obs.Trace.with_span "short" (fun () -> ());
      Zen_obs.Trace.with_span "long" (fun () ->
          Zen_obs.Trace.with_span "leaf" (fun () -> ());
          (* pad so "long" clearly dominates "short" *)
          Zen_obs.Trace.with_span "leaf2" (fun () -> ())));
  let path = Zen_obs.Report.critical_path () in
  let names = List.map (fun s -> s.Zen_obs.Report.step_name) path in
  checkb "path = root -> long -> leaf(2)" true
    (match names with
    | [ "root"; "long"; l ] -> l = "leaf" || l = "leaf2"
    | _ -> false);
  let root = List.hd path in
  checkb "root share is 1" true (root.Zen_obs.Report.share = 1.);
  checkb "shares within [0,1] and descending-ish" true
    (List.for_all
       (fun s -> s.Zen_obs.Report.share >= 0. && s.Zen_obs.Report.share <= 1.)
       path)

(* ---- quantiles vs an exact oracle ---- *)

let bounds = Zen_obs.Histogram.exponential_bounds ~lo:0.001 ~factor:2. ~n:10

let bucket_index v =
  let rec go i = function
    | [] -> i
    | b :: rest -> if v <= b then i else go (i + 1) rest
  in
  go 0 bounds

let prop_quantile_same_bucket_as_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"quantile lands in the exact order statistic's bucket; q=1 is max"
       ~count:100
       QCheck2.Gen.(list_size (int_range 1 200) (float_range 1e-5 3.0))
       (fun samples ->
         with_fresh_obs @@ fun () ->
         let h = Zen_obs.Histogram.make ~bounds "t_report.quantile" in
         List.iter (Zen_obs.Histogram.observe h) samples;
         let s = Zen_obs.Histogram.snapshot h in
         let sorted = List.sort Float.compare samples in
         let n = List.length sorted in
         let exact q =
           let rank =
             max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
           in
           List.nth sorted (rank - 1)
         in
         let same_bucket q =
           bucket_index (Zen_obs.Histogram.quantile s q)
           = bucket_index (exact q)
         in
         List.for_all same_bucket [ 0.01; 0.25; 0.5; 0.9; 0.99 ]
         && Zen_obs.Histogram.quantile s 1.0 = List.nth sorted (n - 1)
         && s.Zen_obs.Histogram.max = List.nth sorted (n - 1)))

let test_quantile_empty_and_single () =
  with_fresh_obs @@ fun () ->
  let h = Zen_obs.Histogram.make ~bounds "t_report.single" in
  let s0 = Zen_obs.Histogram.snapshot h in
  checkb "empty quantile is 0" true (Zen_obs.Histogram.quantile s0 0.5 = 0.);
  Zen_obs.Histogram.observe h 0.042;
  let s1 = Zen_obs.Histogram.snapshot h in
  checkb "single observation: every quantile is in its bucket" true
    (List.for_all
       (fun q -> bucket_index (Zen_obs.Histogram.quantile s1 q) = bucket_index 0.042)
       [ 0.; 0.5; 0.99 ]);
  checkb "single observation: q=1 is the value" true
    (Zen_obs.Histogram.quantile s1 1.0 = 0.042)

(* ---- deterministic report generation ---- *)

let deterministic_workload () =
  Zen_obs.Trace.with_span ~cat:"a" "w.root" (fun () ->
      Zen_obs.Trace.with_span ~cat:"b" "w.mid" (fun () ->
          Zen_obs.Trace.instant "w.point";
          Zen_obs.Trace.with_span ~cat:"b" "w.leaf" (fun () -> ()));
      Zen_obs.Trace.with_span ~cat:"c" "w.tail" (fun () -> ()));
  let h = Zen_obs.Histogram.make ~bounds "t_report.det" in
  List.iter (Zen_obs.Histogram.observe h) [ 0.002; 0.01; 0.04; 0.04; 0.3 ]

let render_once () =
  with_fresh_obs @@ fun () ->
  Zen_obs.Clock.set (Zen_obs.Clock.deterministic ~start:100. ~step:0.001 ());
  Fun.protect ~finally:Zen_obs.Clock.reset @@ fun () ->
  deterministic_workload ();
  ( Zen_obs.Report.to_json_string
      ~extras:[ ("tag", Zen_obs.Json.Str "rerun") ]
      (),
    Zen_obs.Report.human () )

let test_report_byte_identical_across_reruns () =
  let j1, h1 = render_once () in
  let j2, h2 = render_once () in
  checks "zen-report/1 JSON byte-identical" j1 j2;
  checks "human report byte-identical" h1 h2;
  (* and the document is valid JSON with the expected schema *)
  match Zen_obs.Json.of_string j1 with
  | Error e -> Alcotest.fail ("report is not valid JSON: " ^ e)
  | Ok doc ->
    checkb "schema tag" true
      (Zen_obs.Json.member "schema" doc
      = Some (Zen_obs.Json.Str "zen-report/1"));
    checkb "extras appended" true
      (Zen_obs.Json.member "tag" doc = Some (Zen_obs.Json.Str "rerun"))

let test_report_empty_is_graceful () =
  with_fresh_obs @@ fun () ->
  match Zen_obs.Json.of_string (Zen_obs.Report.to_json_string ()) with
  | Error e -> Alcotest.fail ("empty report is not valid JSON: " ^ e)
  | Ok doc ->
    checkb "critical path null when nothing recorded" true
      (Zen_obs.Json.member "critical_path" doc = Some Zen_obs.Json.Null);
    checkb "human rendering mentions the absence" true
      (let s = Zen_obs.Report.human () in
       String.length s > 0)

let suite =
  ( "report",
    [
      prop_forest_roundtrip;
      prop_self_time_sums_to_wall;
      prop_rankings_skip_instants;
      Alcotest.test_case "two-tid forests merge by start time" `Quick
        test_two_tid_forests_merge;
      Alcotest.test_case "dropped parent flattens, loses nothing" `Quick
        test_dropped_parent_flattens;
      Alcotest.test_case "critical path follows the longest child" `Quick
        test_critical_path_follows_longest_child;
      prop_quantile_same_bucket_as_oracle;
      Alcotest.test_case "quantile on empty and single snapshots" `Quick
        test_quantile_empty_and_single;
      Alcotest.test_case "report byte-identical across reruns" `Quick
        test_report_byte_identical_across_reruns;
      Alcotest.test_case "report on an empty registry is graceful" `Quick
        test_report_empty_is_graceful;
    ] )
