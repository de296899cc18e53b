(* Zen_obs.Report: span-forest reconstruction round-trips randomly
   generated span trees recorded through Trace on one or two domains,
   self time sums back to the root's wall-clock and the report's
   rankings ignore instants, the
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

(* ---- recorded span forests ----

   A forest shape is recorded through [Trace.with_span] on a clock the
   test drives: it advances one unit at every span entry and exit and
   never on an instant, so starts, durations and their sums are exact
   small integers. *)

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

(* Records [forest] on the calling domain from time [t0], with span
   names prefixed by [prefix]. With [instants], a log line is mirrored
   as an instant before the first root and inside each span just
   before it closes, as [Events] does. Returns the root names and each
   span's child names. *)
let record_forest ?(prefix = "s") ?(t0 = 0.) ?(instants = false) forest =
  let time = ref t0 and counter = ref 0 in
  Zen_obs.Clock.set (fun () -> !time);
  let expected_children : (string, string list) Hashtbl.t =
    Hashtbl.create 16
  in
  let log name =
    if instants then Zen_obs.Trace.instant ~cat:"event" ("log " ^ name)
  in
  let rec walk (Node kids) =
    incr counter;
    let name = Printf.sprintf "%s.%d" prefix !counter in
    Zen_obs.Trace.with_span ~cat:"t" name (fun () ->
        time := !time +. 1.;
        Hashtbl.add expected_children name (List.map walk kids);
        log name);
    time := !time +. 1.;
    name
  in
  log "start";
  let roots = List.map walk forest in
  (roots, expected_children)

(* [f] on a fresh, enabled registry with the test-driven clock. *)
let recorded f =
  with_fresh_obs @@ fun () ->
  Fun.protect ~finally:Zen_obs.Clock.reset f

let report_doc () =
  match Zen_obs.Json.of_string (Zen_obs.Report.to_json_string ()) with
  | Ok doc -> doc
  | Error e -> Alcotest.fail ("report is not valid JSON: " ^ e)

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
         recorded @@ fun () ->
         let roots, expected = record_forest shape in
         let forest = Zen_obs.Report.forest () in
         List.length forest = List.length roots
         && List.for_all2 (node_matches expected) forest roots))

let prop_self_time_sums_to_wall =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"self times over a tree sum to the root's duration" ~count:200
       gen_forest
       (fun shape ->
         recorded @@ fun () ->
         ignore (record_forest shape);
         List.for_all
           (fun root ->
             let rec sum n =
               Zen_obs.Report.self_s n
               +. List.fold_left (fun acc c -> acc +. sum c) 0. n.Zen_obs.Report.children
             in
             (* test-driven clock: all values are small integers, sums
                are exact *)
             sum root = root.event.dur)
           (Zen_obs.Report.forest ())))

(* Log lines mirrored by Events are instants in the forest. The
   self-time rankings of the report must aggregate the Complete spans
   only, with the same counts and totals as the forest without them. *)
let prop_rankings_skip_instants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"self-time rankings skip instants" ~count:200
       gen_forest
       (fun shape ->
         let self_time instants =
           recorded @@ fun () ->
           ignore (record_forest ~instants shape);
           Option.get (Zen_obs.Json.member "self_time" (report_doc ()))
         in
         let plain = self_time false and mixed = self_time true in
         let keys =
           List.filter_map
             (fun a -> Zen_obs.Json.member "key" a)
             (Zen_obs.Json.to_list
                (Option.get (Zen_obs.Json.member "by_category" mixed)))
         in
         mixed = plain && not (List.mem (Zen_obs.Json.Str "event") keys)))

let test_two_tid_forests_merge () =
  recorded @@ fun () ->
  let roots1, exp1 = record_forest ~prefix:"a" [ Node [ Node [] ] ] in
  let roots2, exp2 =
    Domain.join
      (Domain.spawn (fun () ->
           record_forest ~prefix:"b" ~t0:1000. [ Node []; Node [] ]))
  in
  let forest = Zen_obs.Report.forest () in
  checki "three roots" 3 (List.length forest);
  checki "two lanes" 2
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun (n : Zen_obs.Report.node) -> n.event.tid) forest)));
  (* one domain starts at t=0, the other at t=1000: roots sort by start
     time *)
  checkb "roots ordered and shaped" true
    (List.for_all2
       (fun n (expected, name) -> node_matches expected n name)
       forest
       ([ (exp1, List.hd roots1) ]
       @ List.map (fun r -> (exp2, r)) roots2))

(* A full buffer drops the events that close after it filled: a span's
   parents close after it, so a recorded span can lose its ancestors.
   It then stands as a root instead of disappearing. *)
let test_dropped_parent_flattens () =
  recorded @@ fun () ->
  let fill = Zen_obs.Trace.buffer_limit () - 1 in
  for _ = 1 to fill do
    Zen_obs.Trace.with_span "fill" ignore
  done;
  Zen_obs.Trace.with_span "root" (fun () ->
      Zen_obs.Trace.with_span "middle" (fun () ->
          Zen_obs.Trace.with_span "leaf" ignore));
  checki "the leaf's two ancestors dropped" 2 (Zen_obs.Trace.dropped ());
  let forest = Zen_obs.Report.forest () in
  checki "every recorded span survives" (fill + 1) (List.length forest);
  match
    List.filter
      (fun (n : Zen_obs.Report.node) -> n.event.name <> "fill")
      forest
  with
  | [ leaf ] ->
    checks "the orphan is the leaf" "leaf" leaf.event.name;
    checki "flattened to a root at its own depth" 2 leaf.event.depth;
    checki "no further nesting" 0 (List.length leaf.children)
  | l -> Alcotest.fail (Printf.sprintf "%d non-filler roots" (List.length l))

(* ---- critical path ---- *)

let test_critical_path_follows_longest_child () =
  with_fresh_obs @@ fun () ->
  Zen_obs.Clock.set (Fixtures.deterministic_clock ~step:0.001 ());
  Fun.protect ~finally:Zen_obs.Clock.reset @@ fun () ->
  Zen_obs.Trace.with_span "root" (fun () ->
      Zen_obs.Trace.with_span "short" (fun () -> ());
      Zen_obs.Trace.with_span "long" (fun () ->
          Zen_obs.Trace.with_span "leaf" (fun () -> ());
          (* pad so "long" clearly dominates "short" *)
          Zen_obs.Trace.with_span "leaf2" (fun () -> ())));
  let path =
    match Zen_obs.Json.member "critical_path" (report_doc ()) with
    | Some cp ->
      Zen_obs.Json.to_list (Option.get (Zen_obs.Json.member "steps" cp))
    | None -> Alcotest.fail "no critical path"
  in
  let field k step = Option.get (Zen_obs.Json.member k step) in
  let names = List.map (field "name") path in
  checkb "path = root -> long -> leaf(2)" true
    (match names with
    | [ Str "root"; Str "long"; Str l ] -> l = "leaf" || l = "leaf2"
    | _ -> false);
  let share step =
    match field "share" step with
    | Zen_obs.Json.Float f -> f
    | Zen_obs.Json.Int i -> float_of_int i
    | _ -> Alcotest.fail "share is not a number"
  in
  checkb "root share is 1" true (share (List.hd path) = 1.);
  checkb "shares within [0,1] and descending-ish" true
    (List.for_all (fun s -> share s >= 0. && share s <= 1.) path)

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
         let h = Zen_obs.Histogram.make ~bounds "t_report.quantile.seconds" in
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
  let h = Zen_obs.Histogram.make ~bounds "t_report.single.seconds" in
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
  let h = Zen_obs.Histogram.make ~bounds "t_report.det.seconds" in
  List.iter (Zen_obs.Histogram.observe h) [ 0.002; 0.01; 0.04; 0.04; 0.3 ]

let render_once () =
  with_fresh_obs @@ fun () ->
  Zen_obs.Clock.set (Fixtures.deterministic_clock ~start:100. ~step:0.001 ());
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
