(* Zen_obs: counter accuracy under the Domain pool, span nesting and
   durations under a deterministic clock, Report's renderings (both
   JSON documents parse with the library's own strict parser), the
   Chrome trace's per-domain lanes, and the load-bearing guarantee of the
   whole subsystem — observation only: proofs, certificates and
   rewards are byte-identical with instrumentation on, off, or across
   domain counts. *)

open Zen_crypto
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e

let params = Params.default
let family = lazy (Circuits.make params)

(* Each test owns the global registry for its duration: start from a
   clean slate, record with the registry enabled, and leave it disabled
   (the suite runs single-threaded, so this is race-free). *)
let with_fresh_obs f =
  Zen_obs.Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Zen_obs.Registry.disable ();
      Zen_obs.Registry.reset ())
    (fun () -> Zen_obs.Registry.with_enabled f)

(* ---- counters ---- *)

let test_counter_parallel_accuracy () =
  let c = Zen_obs.Counter.make "t_obs.parallel" in
  List.iter
    (fun domains ->
      with_fresh_obs @@ fun () ->
      let pool = Pool.get ~domains in
      ignore
        (Pool.init_array pool 1000 (fun _ -> Zen_obs.Counter.incr c));
      checki
        (Printf.sprintf "1000 increments on %d domains" domains)
        1000 (Zen_obs.Counter.value c))
    [ 1; 2; 4; 8 ]

let test_counter_disabled_is_inert () =
  Zen_obs.Registry.reset ();
  Zen_obs.Registry.disable ();
  let c = Zen_obs.Counter.make "t_obs.disabled" in
  Zen_obs.Counter.add c 7;
  checki "disabled counter stays 0" 0 (Zen_obs.Counter.value c)

let test_counter_idempotent_make () =
  with_fresh_obs @@ fun () ->
  let a = Zen_obs.Counter.make "t_obs.same" in
  let b = Zen_obs.Counter.make "t_obs.same" in
  Zen_obs.Counter.incr a;
  Zen_obs.Counter.incr b;
  checki "both handles hit one counter" 2 (Zen_obs.Counter.value a)

(* ---- spans ---- *)

let test_span_nesting_and_durations () =
  with_fresh_obs @@ fun () ->
  Zen_obs.Clock.set (Fixtures.deterministic_clock ());
  Fun.protect ~finally:Zen_obs.Clock.reset @@ fun () ->
  Zen_obs.Trace.with_span "outer" (fun () ->
      Zen_obs.Trace.with_span "inner" (fun () -> ());
      Zen_obs.Trace.instant "point");
  let events = Zen_obs.Trace.events () in
  let find n =
    List.find (fun e -> String.equal e.Zen_obs.Trace.name n) events
  in
  let outer = find "outer" and inner = find "inner" and pt = find "point" in
  checki "three events" 3 (List.length events);
  checki "outer depth" 0 outer.depth;
  checki "inner depth" 1 inner.depth;
  checkb "durations non-negative" true
    (List.for_all (fun e -> e.Zen_obs.Trace.dur >= 0.) events);
  (* deterministic clock: outer spans inner's two ticks plus its own *)
  checkb "inner inside outer" true
    (inner.ts >= outer.ts && inner.ts +. inner.dur <= outer.ts +. outer.dur);
  checkb "instant has zero duration" true (pt.dur = 0.);
  checkb "instant is Instant" true (pt.phase = Zen_obs.Trace.Instant)

let test_span_records_on_exception () =
  with_fresh_obs @@ fun () ->
  (try Zen_obs.Trace.with_span "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  checki "span recorded despite raise" 1
    (List.length (Zen_obs.Trace.events ()))

(* ---- renderings ---- *)

let parses s =
  match Zen_obs.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("rendering is not valid JSON: " ^ e)

let test_exporters_emit_valid_json () =
  with_fresh_obs @@ fun () ->
  let c = Zen_obs.Counter.make "t_obs.export" in
  Zen_obs.Counter.add c 3;
  let g = Zen_obs.Gauge.make "t_obs.gauge" in
  Zen_obs.Gauge.set_int g 3;
  let h =
    Zen_obs.Histogram.make ~bounds:[ 0.1; 1.0 ] "t_obs.hist.seconds"
  in
  Zen_obs.Histogram.observe h 0.5;
  Zen_obs.Trace.with_span "t_obs.span"
    ~args:[ ("weird", "quote\" slash\\ \x01") ]
    (fun () -> ());
  let doc = parses (Zen_obs.Report.to_json_string ()) in
  checkb "schema tag" true
    (Zen_obs.Json.member "schema" doc = Some (Zen_obs.Json.Str "zen-report/1"));
  let field section key =
    Option.bind (Zen_obs.Json.member section doc) (Zen_obs.Json.member key)
  in
  checkb "counter in the report" true
    (field "counters" "t_obs.export" = Some (Zen_obs.Json.Int 3));
  checkb "gauge in the report" true
    (field "gauges" "t_obs.gauge" = Some (Zen_obs.Json.Int 3));
  let trace = parses (Zen_obs.Report.chrome_trace ()) in
  let events =
    match Zen_obs.Json.member "traceEvents" trace with
    | Some a -> Zen_obs.Json.to_list a
    | None -> Alcotest.fail "no traceEvents key"
  in
  checkb "trace has events" true (events <> []);
  (* the human report never raises and mentions what we recorded *)
  let s = Zen_obs.Report.human () in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  checkb "human report mentions counter" true (contains ~sub:"t_obs.export" s)

(* [Report.human] prints every histogram as durations, so a histogram
   of anything but seconds would render as a wrong time. *)
let test_histograms_are_seconds () =
  List.iter
    (fun h ->
      let name = Zen_obs.Histogram.name h in
      if not (String.ends_with ~suffix:".seconds" name) then
        Alcotest.failf "histogram %s is not in seconds" name)
    (Zen_obs.Histogram.all ())

let tids_of_trace trace =
  List.filter_map
    (fun e ->
      match
        (Zen_obs.Json.member "ph" e, Zen_obs.Json.member "tid" e)
      with
      | Some (Zen_obs.Json.Str "X"), Some (Zen_obs.Json.Int tid) -> Some tid
      | _ -> None)
    (match Zen_obs.Json.member "traceEvents" trace with
    | Some a -> Zen_obs.Json.to_list a
    | None -> [])
  |> List.sort_uniq Int.compare

let workload steps seed =
  List.init steps (fun i ->
      Sc_tx.Insert
        (Utxo.make
           ~addr:(Hash.of_string "t-obs")
           ~amount:(Amount.of_int_exn (i + 1))
           ~nonce:(Hash.of_string (Printf.sprintf "t-obs-%d-%d" seed i))))

let test_chrome_trace_multidomain_lanes () =
  with_fresh_obs @@ fun () ->
  let fam = Lazy.force family in
  let pool = Pool.get ~domains:4 in
  let rsys =
    Zen_snark.Recursive.create ~name:"t-obs-lanes"
      ~base_vks:(Circuits.base_vks fam)
  in
  let _ =
    ok
      (Prover_pool.prove_and_merge ~pool fam rsys
         ~initial:(Sc_state.create params)
         ~steps:(workload 32 11) ~workers:3 ~seed:11)
  in
  let trace = parses (Zen_obs.Report.chrome_trace ()) in
  (* 32 heavyweight single-step futures on 4 domains: the helper domains
     essentially cannot all sit the epoch out. *)
  checkb "at least two distinct tid lanes" true
    (List.length (tids_of_trace trace) >= 2)

(* ---- observation-only: byte-identity with obs on/off/multi-domain ---- *)

let epoch_fingerprint ~obs ~domains ~steps ~seed =
  let fam = Lazy.force family in
  Zen_obs.Registry.reset ();
  if obs then Zen_obs.Registry.enable () else Zen_obs.Registry.disable ();
  Fun.protect
    ~finally:(fun () ->
      Zen_obs.Registry.disable ();
      Zen_obs.Registry.reset ())
  @@ fun () ->
  let pool = Pool.get ~domains in
  let rsys =
    Zen_snark.Recursive.create ~name:"t-obs"
      ~base_vks:(Circuits.base_vks fam)
  in
  let proofs, stats, top =
    ok
      (Prover_pool.prove_and_merge ~pool fam rsys
         ~initial:(Sc_state.create params)
         ~steps:(workload steps seed) ~workers:3 ~seed)
  in
  let cert =
    Withdrawal_certificate.make ~ledger_id:(Hash.of_string "sc") ~epoch_id:0
      ~quality:1 ~bt_list:[]
      ~proofdata:Proofdata.[ Digest Hash.zero; Field Fp.one; Blob "" ]
      ~proof:(Zen_snark.Recursive.final_proof top)
  in
  ( List.map
      (fun tp ->
        Zen_snark.Backend.proof_encode
          (Zen_snark.Recursive.final_proof tp.Prover_pool.transition))
      proofs,
    stats.Prover_pool.rewards,
    Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top),
    Withdrawal_certificate.hash cert )

let prop_obs_is_observation_only =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"proofs/certificates byte-identical with obs on/off, any domains"
       ~count:3
       QCheck2.Gen.(pair (int_range 1 6) (int_range 0 1000))
       (fun (steps, seed) ->
         let reference = epoch_fingerprint ~obs:false ~domains:1 ~steps ~seed in
         List.for_all
           (fun (obs, domains) ->
             reference = epoch_fingerprint ~obs ~domains ~steps ~seed)
           [ (true, 1); (true, 2); (true, 4); (false, 4) ]))

(* ---- harness log on Events ---- *)

let test_harness_log_oldest_first () =
  let h = Zen_sim.Harness.create ~seed:"t-obs" () in
  Zen_sim.Harness.logf h "first %d" 1;
  Zen_sim.Harness.logf h "second %d" 2;
  checkb "dump_log oldest first" true
    (Zen_sim.Harness.dump_log h = [ "first 1"; "second 2" ]);
  checkb "events field agrees" true
    (Zen_obs.Events.items h.log = [ "first 1"; "second 2" ])

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter accurate under parallel_for" `Quick
        test_counter_parallel_accuracy;
      Alcotest.test_case "disabled counter is inert" `Quick
        test_counter_disabled_is_inert;
      Alcotest.test_case "counter make is idempotent" `Quick
        test_counter_idempotent_make;
      Alcotest.test_case "span nesting and durations" `Quick
        test_span_nesting_and_durations;
      Alcotest.test_case "span records on exception" `Quick
        test_span_records_on_exception;
      Alcotest.test_case "exporters emit valid JSON" `Quick
        test_exporters_emit_valid_json;
      Alcotest.test_case "histograms are in seconds" `Quick
        test_histograms_are_seconds;
      Alcotest.test_case "chrome trace has per-domain lanes" `Slow
        test_chrome_trace_multidomain_lanes;
      Alcotest.test_case "harness log oldest first" `Quick
        test_harness_log_oldest_first;
      prop_obs_is_observation_only;
    ] )
