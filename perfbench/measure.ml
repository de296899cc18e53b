(* Timing, statistics, benchmark-side spans, trace analysis and result
   printing shared by the four workloads.

   Every number here is taken from outside the library: the benchmark
   wraps its own calls into each layer's public functions ([call]) and
   reads the counters, histograms and spans the library already
   records. Nothing under lib/ is instrumented for the benchmark. *)

open Zen_crypto

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- Host speed ---- *)

(* The shared box this benchmark was built on runs throughput-bound code
   (SHA-256, hashing) up to 1.8x slower whenever the hyperthread sibling
   of its vCPU is busy, and which vCPU a process lands on changes from
   run to run; CPU time moves with wall time, so neither is steady on
   its own. End-to-end times are therefore given at reference speed:
   right before each timed operation the benchmark times a fixed loop of
   its own — eight independent integer mixing chains, throughput-bound
   like the hashing the workloads do, no library code, so no change to
   the program moves it — and scales the operation's wall time by
   [reference_s] over that loop's time ([timed_ref] also times the loop
   right after and takes the mean). A contended or quiet core
   stretches the loop and the operation alike; on a core running the
   loop in [reference_s] the scaled and raw times agree. *)
let reference_s = 0.0008

let reference_loop () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let e = ref 5 and f = ref 6 and g = ref 7 and h = ref 8 in
  for k = 1 to 150_000 do
    a := ((!a * 0x5bd1e995) + k) lxor (!a lsr 17);
    b := ((!b * 0x27d4eb2d) + k) lxor (!b lsr 13);
    c := (!c + (!c lsl 5)) lxor k;
    d := (!d lxor (!d lsl 7)) + 0x9e3779b9;
    e := (!e * 0x85ebca6b) lxor (!e lsr 16);
    f := (!f + k) lxor (!f lsl 3);
    g := (!g lxor 0x7fffffff) + (!g lsr 11);
    h := ((!h * 31) + k) land 0xffffffff
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d + !e + !f + !g + !h))

(* Reference time over the loop's time (median of three) at the last
   calibration; every calibration is kept for the run's summary. *)
let speed = ref 1.
let speeds = ref []

let calibrate () =
  let loops = List.init 3 (fun _ -> snd (timed reference_loop)) in
  speed := reference_s /. List.nth (List.sort Float.compare loops) 1;
  speeds := !speed :: !speeds

(* [timed_ref f] runs [f] between two calibrations: its result and its
   wall time at reference speed, by the mean of the two, as the host
   speed can change during an operation of a few hundred milliseconds.
   An operation that slows less than the loop when the host slows
   scales by that speed to the power [sensitivity] instead. Times
   measured inside [f] scale by [!speed], the first. *)
let timed_ref ?(sensitivity = 1.) f =
  calibrate ();
  let before = !speed in
  let r, dt = timed f in
  calibrate ();
  (r, dt *. (((before +. !speed) /. 2.) ** sensitivity))

(* Median calibration of the last traced window: per-layer times read
   from spans and histograms are raw and scale by it. *)
let window_speed = ref 1.

(* ---- Benchmark-side calls into the layers ---- *)

(* Attribution self-test hook: the layer named here is slowed by a
   busy-wait of [delay_share] of each call's own duration, inside the
   call's span, so both the outside timing and the trace see it. *)
let delayed_layer = ref ""
let delay_share = 0.25

let spin s =
  let stop = now () +. s in
  while now () < stop do
    ()
  done

(* Seconds spent in each layer's calls since [reset_calls]. *)
let accs : (string, float) Hashtbl.t = Hashtbl.create 32

let reset_calls () = Hashtbl.reset accs

(* [call layer f] is one public call into [layer]: a benchmark span
   around it (recorded only while tracing) and its wall time, at
   reference speed, added to the layer's accumulator (always — two
   clock reads per call). Calls are made from the driving domain
   only. *)
let call layer f =
  Zen_obs.Trace.with_span ~cat:"bench" layer @@ fun () ->
  let t0 = now () in
  let r = f () in
  if String.equal layer !delayed_layer then
    spin (delay_share *. (now () -. t0));
  let total = Option.value (Hashtbl.find_opt accs layer) ~default:0. in
  Hashtbl.replace accs layer (total +. ((now () -. t0) *. !speed));
  r

(* Milliseconds spent in [layer] per operation. *)
let call_ms layer ~ops =
  match Hashtbl.find_opt accs layer with
  | Some total when ops > 0 -> 1000. *. total /. float_of_int ops
  | _ -> 0.

(* The span every measured operation runs in; its self time is the
   part of the operation no layer span covers (the residual). *)
let op_span = "bench.op"
let op f = Zen_obs.Trace.with_span ~cat:"bench" op_span f

(* ---- Statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

(* Samples strictly beyond the nearest-rank [q]-th percentile. *)
let beyond n q = n - int_of_float (Float.ceil (q /. 100. *. float_of_int n))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Set-up time at reference speed, summed over the [step]s of the
   set-up running under [set_up]. *)
let setup_total = ref 0.

(* [step f] is one step of a set-up, timed between calibrations of its
   own: a set-up of a second or more spans host speed changes that one
   pair of calibrations around it would miss. *)
let step f =
  let r, dt = timed_ref f in
  setup_total := !setup_total +. dt;
  r

(* [set_up ~reps f] runs the set-up [f], made of [step]s, [reps] times,
   each from a fully collected heap with the previous result dropped, so
   a later set-up does not pay for collecting an earlier one's world:
   the last result and the median of the set-up times. *)
let set_up ~reps f =
  let rec go k times =
    Gc.full_major ();
    setup_total := 0.;
    let r = f () in
    let times = !setup_total :: times in
    if k <= 1 then (r, median times) else go (k - 1) times
  in
  go reps []

(* Runs [f] with the Zen_obs registry recording from zero, the layer
   accumulators and calibrations reset, then fixes [window_speed]. *)
let traced_window f =
  reset_calls ();
  Zen_obs.Registry.reset ();
  speeds := [];
  Zen_obs.Registry.enable ();
  let r = Fun.protect ~finally:Zen_obs.Registry.disable f in
  if !speeds <> [] then window_speed := median !speeds;
  r

(* ---- Library-recorded metrics ---- *)

let counter name = Zen_obs.Counter.value (Zen_obs.Counter.make name)

(* [Histogram.make] is idempotent by name: this returns the library's
   histogram (its bounds win) once the library has registered it. *)
let hist name =
  Zen_obs.Histogram.snapshot (Zen_obs.Histogram.make ~bounds:[ 1. ] name)

let hist_mean_ms name =
  let s = hist name in
  if s.count = 0 then 0.
  else 1000. *. s.sum /. float_of_int s.count *. !window_speed

let hist_p50_ms name =
  let s = hist name in
  1000. *. Zen_obs.Histogram.quantile s 0.5 *. !window_speed

let pool_busy_ratio () =
  let busy = counter "pool.worker.busy_us"
  and idle = counter "pool.worker.idle_us" in
  ratio busy (busy + idle)

let cache_hit_ratio () =
  let hits = counter "mc.verify.cache.hit"
  and misses = counter "mc.verify.cache.miss" in
  ratio hits (hits + misses)

(* ---- Trace analysis ---- *)

type row = { name : string; count : int; self_s : float }

let add_row tbl name self =
  let c, s = Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.) in
  Hashtbl.replace tbl name (c + 1, s +. self)

(* Self time and span count per span name over the recorded trace,
   split into the subtrees of [op_span] roots on the driving domain
   ([ops] of them) and everything recorded on other domains
   ([background]). The [op_span] row itself is the residual. *)
type breakdown = { ops : int; op_rows : row list; background : row list }

let breakdown () =
  let main_tid = (Domain.self () :> int) in
  let op_tbl = Hashtbl.create 32 and bg_tbl = Hashtbl.create 32 in
  let ops = ref 0 in
  let rec walk tbl (n : Zen_obs.Report.node) =
    if n.event.phase = Zen_obs.Trace.Complete then
      add_row tbl n.event.name (Zen_obs.Report.self_s n);
    List.iter (walk tbl) n.children
  in
  List.iter
    (fun (n : Zen_obs.Report.node) ->
      if n.event.tid <> main_tid then walk bg_tbl n
      else if String.equal n.event.name op_span then begin
        incr ops;
        walk op_tbl n
      end)
    (Zen_obs.Report.forest ());
  let rows tbl =
    Hashtbl.fold (fun name (count, self_s) acc -> { name; count; self_s } :: acc)
      tbl []
    |> List.sort (fun a b -> Float.compare b.self_s a.self_s)
  in
  { ops = !ops; op_rows = rows op_tbl; background = rows bg_tbl }

(* Self milliseconds per operation of the spans named [name], on every
   domain, at reference speed. *)
let row_self_ms b name =
  let total =
    List.fold_left
      (fun acc r -> if String.equal r.name name then acc +. r.self_s else acc)
      0. (b.op_rows @ b.background)
  in
  if b.ops = 0 then 0. else 1000. *. total /. float_of_int b.ops *. !window_speed

let residual_ms b = row_self_ms { b with background = [] } op_span

(* The decomposition table: per span name, calls per operation × self
   cost per call = milliseconds per operation; their sum is the traced
   mean operation time, the [op_span] row is the unexplained residual.
   Work on other domains overlaps the operation and is listed apart.
   Rows are raw wall time; the p50s are at reference speed, so the sum
   is also shown scaled by the traced window's median host speed. *)
let print_decomposition ~workload ~unit_name ~ops_label b ~untraced_p50
    ~traced_p50 =
  let per_op x = if b.ops = 0 then 0. else x /. float_of_int b.ops in
  let row label r =
    Printf.printf "  %-34s %12.2f %14.4f %14.4f\n" label
      (per_op (float_of_int r.count))
      (if r.count = 0 then 0. else 1000. *. r.self_s /. float_of_int r.count)
      (per_op (1000. *. r.self_s))
  in
  let total label v = Printf.printf "  %-34s %12s %14s %14.4f\n" label "" "" v in
  Printf.printf "\ndecomposition (%s, per %s, %d %s traced):\n" workload
    unit_name b.ops ops_label;
  Printf.printf "  %-34s %12s %14s %14s\n" "layer span" "calls/op" "self ms/call"
    "ms/op";
  List.iter
    (fun r ->
      row (if String.equal r.name op_span then "(residual: op span self)" else r.name) r)
    b.op_rows;
  let sum =
    List.fold_left (fun acc r -> acc +. per_op (1000. *. r.self_s)) 0. b.op_rows
  in
  total "sum = traced mean op" sum;
  total "  at reference speed" (sum *. !window_speed);
  total "residual" (residual_ms b);
  total "traced p50 (reference speed)" traced_p50;
  total "untraced p50 (reference speed)" untraced_p50;
  Printf.printf "  tracing overhead: traced p50 / untraced p50 = %.4f\n"
    (if untraced_p50 = 0. then 0. else traced_p50 /. untraced_p50);
  if b.background <> [] then begin
    Printf.printf "  other domains (overlapping the operations):\n";
    List.iter (fun r -> row r.name r) b.background
  end

(* ---- Crypto unit probes (every traced run) ---- *)

(* Median of [reps] measurements, at reference speed. *)
let probe ~reps f =
  calibrate ();
  median (List.init reps (fun _ -> f ())) *. !speed

let crypto_probes () =
  let fp_mul_ns =
    probe ~reps:5 (fun () ->
        let n = 1_000_000 in
        let x = ref (Fp.of_int 7) and y = Fp.of_int 0x1234567 in
        let (), s =
          timed (fun () ->
              for _ = 1 to n do
                x := Fp.mul !x y
              done)
        in
        ignore (Sys.opaque_identity !x);
        1e9 *. s /. float_of_int n)
  in
  let permute_ns =
    probe ~reps:5 (fun () ->
        let n = 20_000 in
        let st = ref [| Fp.of_int 1; Fp.of_int 2; Fp.of_int 3 |] in
        let (), s =
          timed (fun () ->
              for _ = 1 to n do
                st := Poseidon.permute !st
              done)
        in
        ignore (Sys.opaque_identity !st);
        1e9 *. s /. float_of_int n)
  in
  let sha_kib_us =
    let msg = String.make (64 * 1024) 'z' in
    probe ~reps:5 (fun () ->
        let n = 8 in
        let (), s =
          timed (fun () ->
              for _ = 1 to n do
                ignore (Sys.opaque_identity (Sha256.digest msg))
              done)
        in
        1e6 *. s /. float_of_int (n * 64))
  in
  let merkle_us =
    let leaves = List.init 1024 (fun i -> Hash.of_int i) in
    probe ~reps:5 (fun () ->
        let n = 8 in
        let (), s =
          timed (fun () ->
              for _ = 1 to n do
                ignore (Sys.opaque_identity (Merkle.of_leaves leaves))
              done)
        in
        1e6 *. s /. float_of_int (n * 1024))
  in
  [
    ("crypto.fp.mul_ns", fp_mul_ns);
    ("crypto.poseidon.permute_ns", permute_ns);
    ("crypto.sha256.kib_us", sha_kib_us);
    ("crypto.merkle.of_leaves_us_per_leaf", merkle_us);
  ]

(* ---- Metric catalogue and output ---- *)

(* Every end-to-end metric, printed by every untraced run. The
   operation is the workload's unit of work: a world round, a prove
   epoch, a soak phase, a fanin cold block validation. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("live_heap_mw", "Mw");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("rate_per_s", "1/s");
    ("aux_p50_ms", "ms");
  ]

(* Every per-layer metric, printed by every traced run; a layer a
   workload does not exercise reads 0. Times are per operation unless
   the name says per call/leaf. *)
let per_layer =
  [
    ("harness.mine_ms", "ms");
    ("node.submit_ms", "ms");
    ("wallet.build_ms", "ms");
    ("node.forge_ms", "ms");
    ("node.pump_ms", "ms");
    ("node.certify_ms", "ms");
    ("node.certify_p50_ms", "ms");
    ("harness.reorg_ms", "ms");
    ("residual_ms", "ms");
    ("latus.forge_self_ms", "ms");
    ("latus.validate_self_ms", "ms");
    ("latus.certify_self_ms", "ms");
    ("latus.prove_step_self_ms", "ms");
    ("snark.prove_self_ms", "ms");
    ("aggregate.build_self_ms", "ms");
    ("sc_commitment.build_self_ms", "ms");
    ("smt.update_batch_self_ms", "ms");
    ("merkle.of_leaves_self_ms", "ms");
    ("poseidon.perms", "count");
    ("sha256.kib", "KiB");
    ("backend.proves", "count");
    ("backend.verifies", "count");
    ("backend.constraints_proved", "count");
    ("r1cs.constraint_evals", "count");
    ("recursive.merges", "count");
    ("recursive.merge_ms", "ms");
    ("pool.busy_ratio", "ratio");
    ("pool.steals", "count");
    ("verifier.cache_hit_ratio", "ratio");
    ("verifier.verify_ms", "ms");
    ("pipeline.carry_merges", "count");
    ("pipeline.queue_wait_p50_ms", "ms");
    ("mempool.remove_included_p50_ms", "ms");
    ("tx_reject_ratio", "ratio");
    ("prover_pool.retries", "count");
    ("circuits.prove_step_ms.insert", "ms");
    ("circuits.prove_step_ms.remove", "ms");
    ("circuits.prove_step_ms.append_bt", "ms");
    ("sc_tx.apply_steps_ms", "ms");
    ("chain_state.prewarm_ms", "ms");
    ("miner.build_block_ms", "ms");
    ("chain.add_block_ms", "ms");
    ("chain_state.apply_block_ms", "ms");
    ("aggregate.build_ms", "ms");
    ("workload.remine_ms", "ms");
    ("workload.rollback_ratio", "ratio");
    ("workload.skip_ratio", "ratio");
    ("smt.update_batch_us_per_leaf", "us");
    ("decision_mismatch", "count");
    ("trace.overhead_ratio", "ratio");
    ("gc.top_heap_mw", "Mw");
    ("crypto.fp.mul_ns", "ns");
    ("crypto.poseidon.permute_ns", "ns");
    ("crypto.sha256.kib_us", "us");
    ("crypto.merkle.of_leaves_us_per_leaf", "us");
  ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
      (** metric name → value; names outside the catalogue in use are
          ignored, missing per-layer names read 0 *)
}

(* Live heap after a full major collection, in millions of words. The
   workloads take it at a fixed point of their work, so it does not
   depend on how far a run got or on when the collector last ran. *)
let live_heap_mw () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words /. 1e6

let top_heap_mw () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6

(* Prints the catalogue's metrics by name and unit, then the result
   object as the last line of standard output. *)
let print_outcome ~trace o =
  let catalogue = if trace then per_layer else end_to_end in
  let o =
    if trace then { o with values = ("gc.top_heap_mw", top_heap_mw ()) :: o.values }
    else o
  in
  let value (name, _) =
    match List.assoc_opt name o.values with
    | Some v when Float.is_finite v -> v
    | Some _ -> 0.
    | None ->
      if trace then 0.
      else failwith ("end-to-end metric not measured: " ^ name)
  in
  Printf.printf "\n%s metrics:\n" (if trace then "per-layer" else "end-to-end");
  List.iter
    (fun (name, u) -> Printf.printf "  %-40s %16.6f %s\n" name (value (name, u)) u)
    catalogue;
  (match List.sort Float.compare !speeds with
  | [] -> ()
  | s ->
    Printf.printf
      "host speed against reference (times scaled by it): median %.3f, \
       range %.3f-%.3f over %d calibrations\n"
      (List.nth s (List.length s / 2)) (List.hd s) (List.nth s (List.length s - 1))
      (List.length s));
  Printf.printf "correct=%b attempted=%d failed=%d\n" o.correct o.attempted
    o.failed;
  let open Zen_obs.Json in
  let doc =
    Obj
      [
        ("correct", Bool o.correct);
        ("attempted", Int o.attempted);
        ("failed", Int o.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (name, u) ->
                 (name, Obj [ ("value", Float (value (name, u))); ("unit", Str u) ]))
               catalogue) );
      ]
  in
  print_endline (to_string doc)

(* ---- Correctness pins ---- *)

(* perfbench/pins.txt: "workload seed key value" lines, the digests the
   default and held-out seeds must reproduce. *)
let pins_file = "perfbench/pins.txt"

let pin ~workload ~seed key =
  if not (Sys.file_exists pins_file) then None
  else begin
    let ic = open_in pins_file in
    let rec go found =
      match input_line ic with
      | exception End_of_file -> found
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; k; v ]
          when String.equal w workload
               && String.equal s (string_of_int seed)
               && String.equal k key ->
          go (Some v)
        | _ -> go found)
    in
    let r = go None in
    close_in ic;
    r
  end

(* Checks [value] against the pin when the seed has one; always prints
   the value so new pins can be recorded. *)
let check_pin ~workload ~seed key value =
  Printf.printf "pin: %s %d %s %s\n" workload seed key value;
  match pin ~workload ~seed key with
  | None -> true
  | Some v ->
    let ok = String.equal v value in
    if not ok then Printf.printf "PIN MISMATCH %s: expected %s\n" key v;
    ok
