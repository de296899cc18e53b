(* soak: batched state updates at scale, no SNARKs.

   [Zen_sim.Workload.run] (batched commits, O(1) snapshots) on a custom
   profile: 200k zipfian users (z = 1.0), a depth-18 MST, 16 diurnal
   phases per epoch with 40% bursts, mix 50/15/20/15 and a reorg every
   7th phase. Smt.update_batch, Mst, Sc_tx, Sc_state checkpoint/restore
   and Poseidon do all the work. The run repeats the profile with the
   same seed until the time is up; every repeat must reproduce the
   digest. The operation is one phase, timed between consecutive log
   lines. *)

open Zen_crypto
module M = Measure

let profile_string = "u200000:z100:t8000:e2:p16:b40:m50-15-20-15:d18:s8000:r7"

(* The highest percentile leaving at least ten phases beyond it in a
   20-second run (~90-120 phases). *)
let tail_pct = 75.

let profile =
  match Zen_sim.Workload.of_string profile_string with
  | Ok p -> p
  | Error e -> failwith e

(* One profile run, its log lines time-stamped as they arrive. *)
type run = {
  setup_s : float;  (** call to the first phase line *)
  phase_s : float list;  (** previous line to each later phase line *)
  remine_s : float;
      (** phase line to the reorg line that follows, summed over the
          run's reorgs, per 1000 rolled-back txs *)
  applied : int;  (** txs applied in the timed phases *)
  stats : Zen_sim.Workload.stats;
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let applied_of line =
  (* "... phase P: A/B txs applied" *)
  match String.split_on_char ':' line with
  | [ _; rest ] -> (
    match String.split_on_char '/' (String.trim rest) with
    | a :: _ -> int_of_string_opt a
    | [] -> None)
  | _ -> None

let rolled_back_of line =
  (* "... reorg depth D rolled back N txs, ..." *)
  let rec find = function
    | "back" :: n :: _ -> Option.value (int_of_string_opt n) ~default:1
    | _ :: rest -> find rest
    | [] -> 1
  in
  max 1 (find (String.split_on_char ' ' line))

(* Each log line is stamped twice: on arrival, and after the host-speed
   calibration it triggers (and, once, the live-heap sample at the end of
   the first epoch, which fills [heap] when empty). An interval runs from
   one line's second stamp to the next line's first and is scaled by
   the mean of the speeds calibrated at its start and right after its
   end, as [Measure.timed_ref] does. *)
type line = { arrived : float; left : float; speed : float; text : string }

let run_once ?heap ~seed () =
  M.calibrate ();
  let t0 = M.now () and speed0 = !M.speed in
  let lines = ref [] in
  let log text =
    let arrived = M.now () in
    (match heap with
    | Some ({ contents = None } as h) when contains text "epoch 0 done" ->
      h := Some (M.live_heap_mw ())
    | _ -> ());
    M.calibrate ();
    lines := { arrived; left = M.now (); speed = !M.speed; text } :: !lines
  in
  let stats =
    M.op (fun () ->
        match Zen_sim.Workload.run ~batched:true ~snapshots:true ~log ~seed profile with
        | Ok s -> s
        | Error e -> failwith ("soak: " ^ e))
  in
  let lines = List.rev !lines in
  let is_phase l = contains l.text "txs applied"
  and is_reorg l = contains l.text "reorg depth" in
  let rec from_first = function
    | l :: rest when is_phase l -> (l, rest)
    | _ :: rest -> from_first rest
    | [] -> failwith "soak: no phase line"
  in
  let first, after = from_first lines in
  let setup_s = (first.arrived -. t0) *. (speed0 +. first.speed) /. 2. in
  let phase_s = ref [] and applied = ref 0 in
  let remine_s = ref 0. and rolled_back = ref 0 in
  ignore
    (List.fold_left
       (fun prev l ->
         let dt = (l.arrived -. prev.left) *. (prev.speed +. l.speed) /. 2. in
         if is_phase l then begin
           phase_s := dt :: !phase_s;
           applied := !applied + Option.value (applied_of l.text) ~default:0
         end
         else if is_reorg l && is_phase prev then begin
           remine_s := !remine_s +. dt;
           rolled_back := !rolled_back + rolled_back_of l.text
         end;
         l)
       first after);
  {
    setup_s;
    phase_s = !phase_s;
    remine_s = !remine_s *. 1000. /. float_of_int (max 1 !rolled_back);
    applied = !applied;
    stats;
  }

(* Unit cost of a phase-sized batch of SMT writes at the profile's
   depth: fresh leaves into a tree already holding the seed coins. *)
let smt_probe () =
  let n = profile.txs_per_epoch / profile.phases in
  let depth = profile.mst_depth in
  let rng = Rng.create 7 in
  let slot () = Rng.int rng (1 lsl depth) in
  let base =
    Result.get_ok
      (Smt.update_batch (Smt.create ~depth)
         (List.init profile.seed_coins (fun i -> (slot (), Some (Fp.of_int (i + 1))))))
  in
  let batch = List.init n (fun i -> (slot (), Some (Fp.of_int (i + 7)))) in
  M.probe ~reps:5 (fun () ->
      let _, s = M.timed (fun () -> Smt.update_batch base batch) in
      1e6 *. s /. float_of_int n)

let run ~seed ~seconds ~trace =
  let heap = ref None in
  let runs_until ~min deadline =
    let rec go acc =
      if M.now () >= deadline && List.length acc >= min then acc
      else go (run_once ~heap ~seed () :: acc)
    in
    go []
  in
  let phases runs = List.concat_map (fun r -> r.phase_s) runs in
  let digest_ok runs =
    match runs with
    | [] -> false
    | r :: _ ->
      let d = Hash.to_hex r.stats.digest in
      List.for_all (fun r' -> String.equal (Hash.to_hex r'.stats.Zen_sim.Workload.digest) d) runs
      && M.check_pin ~workload:"soak" ~seed "digest" d
  in
  (* Operations are generated transactions. A run whose digest differs
     from the first run's failed all of its own; draws the generator
     could not place are its own retries running out, reported as the
     per-layer skip ratio. *)
  let generated (r : run) = r.stats.applied + r.stats.skipped in
  let attempts runs = List.fold_left (fun a r -> a + generated r) 0 runs in
  let failures runs =
    match runs with
    | [] -> 0
    | r0 :: _ ->
      List.fold_left
        (fun a (r : run) ->
          if Hash.equal r.stats.digest r0.stats.digest then a else a + generated r)
        0 runs
  in
  let skips runs = List.fold_left (fun a (r : run) -> a + r.stats.skipped) 0 runs in
  let start = M.now () in
  if not trace then begin
    (* At least three runs, so set-up is a median of three. *)
    let runs = runs_until ~min:3 (start +. seconds) in
    let phase_s = phases runs in
    let n = List.length phase_s in
    let pct = tail_pct in
    Printf.printf "soak: %d runs of %s, %d phases timed; tail = p%.0f of %d \
                   phases (%d beyond)\n"
      (List.length runs) profile_string n pct n (M.beyond n pct);
    {
      M.correct = digest_ok runs;
      attempted = attempts runs;
      failed = failures runs;
      values =
        [
          ("setup_s", M.median (List.map (fun r -> r.setup_s) runs));
          ("live_heap_mw", Option.value !heap ~default:0.);
          ("op_p50_ms", 1000. *. M.median phase_s);
          ("op_tail_ms", 1000. *. M.percentile phase_s pct);
          ( "rate_per_s",
            float_of_int (List.fold_left (fun a r -> a + r.applied) 0 runs)
            /. List.fold_left ( +. ) 0. phase_s );
          ("aux_p50_ms", 1000. *. M.median (List.map (fun r -> r.remine_s) runs));
        ];
    }
  end
  else begin
    let untraced = runs_until ~min:1 (start +. (seconds /. 2.)) in
    let untraced_p50 = 1000. *. M.median (phases untraced) in
    let traced =
      M.traced_window (fun () -> runs_until ~min:1 (M.now () +. (seconds /. 2.)))
    in
    let traced_p50 = 1000. *. M.median (phases traced) in
    let b = M.breakdown () in
    (* The operation span here wraps a whole profile run, set-up
       included; its rows are expressed per phase. *)
    let nph = List.length traced * profile.phases * profile.epochs in
    let b = { b with M.ops = nph } in
    M.print_decomposition ~workload:"soak" ~unit_name:"phase" ~ops_label:"phases" b
      ~untraced_p50 ~traced_p50;
    let per_op name = M.ratio (M.counter name) nph in
    let all = untraced @ traced in
    let rolled = List.fold_left (fun a r -> a + r.stats.Zen_sim.Workload.rolled_back_txs) 0 traced in
    let applied_all = List.fold_left (fun a r -> a + r.stats.Zen_sim.Workload.applied) 0 traced in
    {
      M.correct = digest_ok all;
      attempted = attempts all;
      failed = failures all;
      values =
        [
          ("residual_ms", M.residual_ms b);
          ("smt.update_batch_self_ms", M.row_self_ms b "smt.update_batch");
          ("merkle.of_leaves_self_ms", M.row_self_ms b "merkle.of_leaves");
          ("poseidon.perms", per_op "crypto.poseidon.permutations");
          ("sha256.kib", per_op "crypto.sha256.bytes" /. 1024.);
          ( "workload.remine_ms",
            1000. *. M.median (List.map (fun r -> r.remine_s) traced) );
          ("workload.rollback_ratio", M.ratio rolled applied_all);
          ("workload.skip_ratio", M.ratio (skips all) (attempts all));
          ("smt.update_batch_us_per_leaf", smt_probe ());
          ( "trace.overhead_ratio",
            if untraced_p50 = 0. then 0. else traced_p50 /. untraced_p50 );
        ]
        @ M.crypto_probes ();
    }
  end
