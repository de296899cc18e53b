(* zendoo-cli: drive the simulation from the command line.

   Subcommands:
     simulate        run a mainchain+sidechain world and print the event log
     schedule        print a withdrawal-epoch schedule (Fig. 3)
     keys            compile the Latus circuit family and show what a
                     sidechain registers with the mainchain
     prove           prove one epoch's steps on a multicore Domain pool
                     (§5.4.1) and print the measured stats
     chaos           run the world under a deterministic fault plan
                     (Zen_sim.Faults) and print a replayable log
     soak            drive the deterministic workload engine
                     (Zen_sim.Workload) against the batched state layer
                     and print throughput *)

open Cmdliner
open Zen_crypto
open Zen_latus
open Zendoo

(* --domains: 0 means "ask the hardware". *)
let resolve_domains d = if d <= 0 then Pool.recommended_domains () else d

(* ---- observability plumbing ----

   [--metrics] prints the human report (Zen_obs.Report.human: critical
   path, self times, latency, counters, gauges) on stdout after the
   run; [--trace-out FILE] writes the Chrome trace; [--report FILE]
   writes the zen-report/1 document and prints the same human report
   (once, even with --metrics). Any one switches the registry on for
   the whole run; with none, recording stays a single disabled-branch
   per site. *)

(* Extra top-level fields for the zen-report/1 document — the command
   body fills this in before returning (worker costs, scoreboard). *)
let report_extras : (string * Zen_obs.Json.t) list ref = ref []

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let with_obs ~metrics ~trace_out ~report f =
  let wanted = metrics || trace_out <> None || report <> None in
  if wanted then Zen_obs.Registry.enable ();
  let code = f () in
  Option.iter
    (fun path ->
      write_file path (Zen_obs.Report.chrome_trace ());
      Printf.eprintf
        "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n"
        path)
    trace_out;
  Option.iter
    (fun path ->
      write_file path
        (Zen_obs.Report.to_json_string ~extras:!report_extras () ^ "\n");
      Printf.eprintf "report written to %s (zen-report/1)\n" path)
    report;
  if metrics || report <> None then print_string (Zen_obs.Report.human ());
  code

(* ---- simulate ---- *)

(* Register [n] Latus sidechains sharing one compiled circuit family
   (the single sidechain keeps its historical name "sc"). Each
   registration mines one MC block, so sidechain [i]'s delay of
   [n - i + 1] activates all [n] one block after the last one. *)
let register_sidechains h ~n ~family ~epoch_len ~submit_len =
  let name i = if n = 1 then "sc" else Printf.sprintf "sc%d" i in
  let rec go i acc =
    if i > n then Ok (List.rev acc)
    else
      match
        Zen_sim.Harness.add_latus h ~name:(name i) ~family ~epoch_len
          ~submit_len ~activation_delay:(n - i + 1) ()
      with
      | Error e -> Error e
      | Ok sc -> go (i + 1) (sc :: acc)
  in
  go 1 []

(* --workload PROFILE: parse early so a bad profile fails before any
   setup; attach after registration so the driver sees every
   sidechain. *)
let parse_workload = function
  | None -> Ok None
  | Some s -> Result.map Option.some (Zen_sim.Workload.of_string s)

let attach_workload h ~workload ~seed =
  match workload with
  | None -> Ok ()
  | Some profile -> Zen_sim.Harness.set_workload h ~profile ~seed

(* The world [simulate] and [chaos] share: check --sidechains, then
   --workload, then [faults] (any error exits 1 after printing it);
   build the harness on the shared pool, fund it with 5 MC blocks,
   register the sidechains (certificates withheld with [withhold]),
   send [fts] forward transfers to a [user_seed] wallet on the first
   sidechain, attach the workload under [workload_seed] and run [ticks]
   rounds. [report] prints what the world came to and returns the exit
   code. *)
let run_world ~seed ~ticks ~epoch_len ~submit_len ~fts ~sidechains ~domains
    ~workload ~faults ~user_seed ~workload_seed ?(withhold = false) report =
  let fail e =
    Printf.eprintf "error: %s\n" e;
    1
  in
  if sidechains < 1 then fail "--sidechains must be at least 1"
  else
    match (parse_workload workload, faults) with
    | Error e, _ | Ok _, Error e -> fail e
    | Ok workload, Ok faults -> (
      (* The process-wide persistent pool: spawned once, reused by every
         operation in the run, joined by the registry's at_exit hook. *)
      let pool = Pool.get ~domains:(resolve_domains domains) in
      let h = Zen_sim.Harness.create ~pool ?faults ~seed () in
      Zen_sim.Harness.fund h ~blocks:5;
      let family = Circuits.make Params.default in
      match
        register_sidechains h ~n:sidechains ~family ~epoch_len ~submit_len
      with
      | Error e -> fail e
      | Ok scs ->
        List.iter (fun sc -> sc.Zen_sim.Harness.withhold_certs <- withhold) scs;
        let user = Sc_wallet.create ~seed:user_seed in
        let user_addr = Sc_wallet.fresh_address user in
        for i = 1 to fts do
          match
            Zen_sim.Harness.forward_transfer h (List.hd scs) ~receiver:user_addr
              ~payback:user_addr
              ~amount:(Amount.of_int_exn (i * 1_000_000))
          with
          | Ok () -> ()
          | Error e -> Zen_sim.Harness.logf h "ft failed: %s" e
        done;
        (match attach_workload h ~workload ~seed:workload_seed with
        | Ok () -> ()
        | Error e -> Zen_sim.Harness.logf h "workload attach failed: %s" e);
        Zen_sim.Harness.tick_n h ticks;
        report h scs ~workload:(workload <> None))

let simulate seed ticks epoch_len submit_len fts withhold sidechains domains
    workload metrics trace_out report =
  with_obs ~metrics ~trace_out ~report @@ fun () ->
  (* the string seed folds to a deterministic workload seed *)
  let workload_seed =
    String.fold_left (fun a c -> ((a * 131) + Char.code c) land max_int) 7 seed
  in
  run_world ~seed ~ticks ~epoch_len ~submit_len ~fts ~sidechains ~domains
    ~workload ~faults:(Ok None) ~user_seed:(seed ^ ".user")
    ~workload_seed ~withhold
  @@ fun h scs ~workload ->
  List.iter print_endline (Zen_sim.Harness.dump_log h);
  print_newline ();
  List.iter
    (fun sc ->
      Printf.printf
        "final %s: MC height %d | SC height %d | balance-on-MC %s | ceased \
         %b | certified epochs [%s]\n"
        sc.Zen_sim.Harness.name
        (Zen_mainchain.Chain.height h.chain)
        (Node.sc_height sc.Zen_sim.Harness.node)
        (Amount.to_string (Zen_sim.Harness.sc_balance_on_mc h sc))
        (Zen_sim.Harness.is_ceased h sc)
        (String.concat ";"
           (List.map string_of_int
              (Node.certified_epochs sc.Zen_sim.Harness.node))))
    scs;
  if workload then
    Printf.printf "workload injected %d txs\n"
      (Zen_sim.Harness.workload_injected h);
  let st = Verifier.Cache.stats () in
  Printf.printf "verify cache: %d hits | %d misses\n" st.Verifier.Cache.hits
    st.Verifier.Cache.misses;
  report_extras := [ ("scoreboard", Zen_sim.Harness.scoreboard_json h) ];
  0

(* ---- schedule ---- *)

let schedule start epoch_len submit_len epochs =
  match
    Sidechain_config.check_schedule ~start_block:start ~epoch_len ~submit_len
  with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok () ->
    let s = { Epoch.start_block = start; epoch_len; submit_len } in
    Printf.printf "%-6s %-16s %-16s %s\n" "epoch" "MC heights" "cert window"
      "ceased if no cert by";
    for e = 0 to epochs - 1 do
      let lo, hi = Epoch.submission_window s ~epoch:e in
      Printf.printf "%-6d %-16s %-16s %d\n" e
        (Printf.sprintf "%d..%d"
           (Epoch.first_height s ~epoch:e)
           (Epoch.last_height s ~epoch:e))
        (Printf.sprintf "%d..%d" lo hi)
        (hi + 1)
    done;
    0

(* ---- keys ---- *)

let keys mst_depth =
  let params = { Params.default with mst_depth } in
  match Params.validate params with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok () ->
    let family = Circuits.make params in
    let show what (k : Circuits.keys) =
      Printf.printf "%-12s vk=%s  %6d constraints\n" what
        (Hash.to_hex (Zen_snark.Backend.vk_digest k.vk))
        k.constraints
    in
    Printf.printf "Latus circuit family (MST depth %d)\n\n" mst_depth;
    Printf.printf "registered with the mainchain at sidechain creation:\n";
    show "wcert_vk" (Circuits.wcert_keys family);
    show "btr/csw_vk" (Circuits.ownership_keys family);
    Printf.printf "\ninternal base circuits (leaves of the recursion):\n";
    List.iter
      (fun vk ->
        Printf.printf "%-12s vk=%s\n" "base"
          (Hash.to_hex (Zen_snark.Backend.vk_digest vk)))
      (Circuits.base_vks family);
    0

(* ---- prove ---- *)

let prove steps domains workers mst_depth seed metrics trace_out report =
  with_obs ~metrics ~trace_out ~report @@ fun () ->
  let params = { Params.default with mst_depth } in
  if steps < 1 then begin
    Printf.eprintf "error: --steps must be at least 1\n";
    1
  end
  else if workers < 1 then begin
    Printf.eprintf "error: --workers must be at least 1\n";
    1
  end
  else
  match Params.validate params with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok () ->
    let domains = resolve_domains domains in
    let family = Circuits.make params in
    let rsys =
      Zen_snark.Recursive.create ~name:"cli"
        ~base_vks:(Circuits.base_vks family)
    in
    let st = Sc_state.create params in
    let workload =
      List.init steps (fun i ->
          Sc_tx.Insert
            (Utxo.make
               ~addr:(Hash.of_string "cli-prove")
               ~amount:(Amount.of_int_exn (i + 1))
               ~nonce:(Hash.of_string (Printf.sprintf "cli-%d-%d" seed i))))
    in
    let pool = Pool.get ~domains in
    let t0 = Unix.gettimeofday () in
    (match
       Prover_pool.prove_and_merge ~pool family rsys ~initial:st
         ~steps:workload ~workers ~seed
     with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok (_proofs, stats, top) ->
        let total = Unix.gettimeofday () -. t0 in
        Printf.printf
          "epoch of %d steps proven on %d domain(s) \
           (recommended on this machine: %d)\n"
          stats.Prover_pool.tasks stats.Prover_pool.domains
          (Pool.recommended_domains ());
        Printf.printf "  task work        %.3f s (sum of per-task wall)\n"
          stats.Prover_pool.total_work;
        Printf.printf "  prove wall       %.3f s (avg concurrency %.2f)\n"
          stats.Prover_pool.wall stats.Prover_pool.concurrency;
        Printf.printf "  prove+merge wall %.3f s\n" total;
        Printf.printf "  epoch proof      depth %d, %d base proofs, %d B, verifies %b\n"
          (Zen_snark.Recursive.depth top)
          (Zen_snark.Recursive.base_count top)
          (Zen_snark.Recursive.proof_size_bytes top)
          (Zen_snark.Recursive.verify rsys top);
        Printf.printf "  proof digest     %s\n"
          (Hash.to_hex
             (Hash.of_string
                (Zen_snark.Backend.proof_encode
                   (Zen_snark.Recursive.final_proof top))));
        Printf.printf "  rewards          %s\n"
          (String.concat " "
             (List.map
                (fun (w, r) -> Printf.sprintf "w%d:%d" w r)
                stats.Prover_pool.rewards));
        report_extras :=
          [ ("workers", Prover_pool.worker_costs_json stats) ];
        0)

(* ---- chaos ---- *)

(* Everything printed here (and written to --log-out) is a pure
   function of (seed, plan): no wall-clock values, no machine state.
   CI runs the command twice and byte-compares the logs. *)
let chaos seed ticks epoch_len submit_len fts sidechains domains workload
    intensity plan_str log_out metrics trace_out report =
  with_obs ~metrics ~trace_out ~report @@ fun () ->
  let plan_result =
    match plan_str with
    | Some s -> Zen_sim.Faults.plan_of_string s
    | None ->
      (* Setup consumes 5 funding rounds, one creation round per
         sidechain and one round per FT before tick_n starts; aim the
         storm's tick faults at the live window. *)
      Ok
        (Zen_sim.Faults.storm ~seed
           ~first_tick:(6 + sidechains + fts)
           ~ticks
           ~epochs:(max 1 (ticks / epoch_len))
           ~workers:4 ~intensity ())
  in
  run_world ~seed:(Printf.sprintf "chaos.%d" seed) ~ticks ~epoch_len
    ~submit_len ~fts ~sidechains ~domains ~workload
    ~faults:
      (Result.map
         (fun plan -> Some (Zen_sim.Faults.create plan))
         plan_result)
    ~user_seed:(Printf.sprintf "chaos.%d.user" seed)
    ~workload_seed:seed
  @@ fun h scs ~workload ->
  let faults = Option.get h.Zen_sim.Harness.faults in
  let plan = Zen_sim.Faults.plan faults in
  let family = Node.family (List.hd scs).Zen_sim.Harness.node in
  (* A small §5.4.1 proving episode under the plan's epoch-0 worker
     faults, digest-compared against the fault-free run: crashes
     must change scheduling, never proof bytes. *)
  let rsys =
    Zen_snark.Recursive.create ~name:"chaos"
      ~base_vks:(Circuits.base_vks family)
  in
  let episode fl =
    let st = Sc_state.create Params.default in
    let workload =
      List.init 8 (fun i ->
          Sc_tx.Insert
            (Utxo.make
               ~addr:(Hash.of_string "chaos-prove")
               ~amount:(Amount.of_int_exn (i + 1))
               ~nonce:(Hash.of_string (Printf.sprintf "chaos-%d-%d" seed i))))
    in
    Prover_pool.prove_and_merge ~faults:fl family rsys ~initial:st
      ~steps:workload ~workers:4 ~seed
  in
  let digest proofs =
    Hash.to_hex
      (Hash.of_string
         (String.concat ""
            (List.map
               (fun tp ->
                 Zen_snark.Backend.proof_encode
                   (Zen_snark.Recursive.final_proof tp.Prover_pool.transition))
               proofs)))
  in
  let worker_faults =
    (* first epoch of the plan with prover faults, so the episode
       actually exercises them when the plan has any *)
    let rec first e =
      if e > 64 then []
      else
        match Zen_sim.Faults.prover_faults faults ~epoch:e with
        | [] -> first (e + 1)
        | l -> l
    in
    first 0
  in
  let retries, identical =
    match (episode worker_faults, episode []) with
    | Ok (faulted, stats, _), Ok (clean, _, _) ->
      (stats.Prover_pool.retries, digest faulted = digest clean)
    | Error _, _ | _, Error _ -> (-1, false)
  in
  (* Certified epochs summed over every sidechain; "ceased" is true
     when any sidechain ceased (for one sidechain both reduce to
     the historical single-chain meaning). *)
  let certified =
    let state = Zen_mainchain.Chain.tip_state h.chain in
    List.fold_left
      (fun acc (sc : Zen_sim.Harness.sidechain) ->
        match Zen_mainchain.Sc_ledger.find state.scs sc.ledger_id with
        | None -> acc
        | Some s -> acc + List.length s.Zen_mainchain.Sc_ledger.certs)
      0 scs
  in
  let any_ceased =
    List.exists (fun sc -> Zen_sim.Harness.is_ceased h sc) scs
  in
  let buf = Buffer.create 4096 in
  let outf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  outf "seed %d\n" seed;
  outf "plan %s\n" (Zen_sim.Faults.plan_to_string plan);
  List.iter (fun l -> outf "%s\n" l) (Zen_sim.Harness.dump_log h);
  if workload then
    outf "workload injected %d txs\n" (Zen_sim.Harness.workload_injected h);
  outf
    "chaos: %d faults injected | %d epochs certified | ceased %b | MC \
     height %d | prover retries %d | proof identical %b\n"
    (Zen_sim.Faults.injected faults)
    certified any_ceased
    (Zen_mainchain.Chain.height h.chain)
    retries identical;
  print_string (Buffer.contents buf);
  Option.iter (fun path -> write_file path (Buffer.contents buf)) log_out;
  report_extras := [ ("scoreboard", Zen_sim.Harness.scoreboard_json h) ];
  0

(* ---- soak ---- *)

(* Run the Zen_sim.Workload engine standalone: hundreds of thousands
   of state transitions per simulated epoch against the batched state
   layer, no SNARKs in the loop. Everything written to --log-out is a
   pure function of (seed, profile): CI replays the command and
   byte-compares. Perf numbers (wall clock, throughput, heap) go to
   stdout only. *)
let soak profile_str seed log_out metrics trace_out report =
  with_obs ~metrics ~trace_out ~report @@ fun () ->
  match Zen_sim.Workload.of_string profile_str with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok profile -> (
    let buf = Buffer.create 4096 in
    let log line =
      Buffer.add_string buf line;
      Buffer.add_char buf '\n'
    in
    match Zen_sim.Workload.run ~log ~seed profile with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok stats ->
      print_string (Buffer.contents buf);
      Option.iter (fun path -> write_file path (Buffer.contents buf)) log_out;
      (* Not in the log: wall clock and heap vary run to run. *)
      Printf.printf
        "soak %s: %d txs in %.2f s (%.0f tx/s) | peak heap %d words\n"
        (Zen_sim.Workload.to_string stats.Zen_sim.Workload.profile)
        stats.Zen_sim.Workload.applied stats.Zen_sim.Workload.wall_s
        (float_of_int stats.Zen_sim.Workload.applied
        /. Float.max 1e-9 stats.Zen_sim.Workload.wall_s)
        stats.Zen_sim.Workload.peak_words;
      0)

(* ---- cmdliner wiring ---- *)

let workload_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"PROFILE"
        ~doc:
          "Attach a deterministic traffic driver: each tick submits \
           profile-mixed transactions (payments, FTs, BTs) to every \
           sidechain node behind a diurnal gate. PROFILE is a builtin \
           ($(b,smoke), $(b,steady), $(b,soak)) or the custom \
           $(b,u..:z..:t..:e..:p..:b..:m..-..-..-..:d..:s..:r..) syntax.")

let seed_t =
  Arg.(value & opt string "cli" & info [ "seed" ] ~doc:"Deterministic seed.")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~doc:
          "Worker domains for proving (1 = sequential, 0 = use \
           Domain.recommended_domain_count). Results are bit-identical \
           for every value.")

let sidechains_t =
  Arg.(
    value & opt int 1
    & info [ "sidechains" ]
        ~doc:
          "Number of Latus sidechains to register (all sharing one \
           compiled circuit family). Every tick forges and certifies \
           each of them against the same mainchain.")

let metrics_t =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Record metrics during the run and print a summary at exit.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run (open in \
           chrome://tracing or ui.perfetto.dev).")

let report_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a zen-report/1 JSON analysis of the run — critical path, \
           per-span self times, latency percentiles, worker costs and (for \
           world runs) the certificate scoreboard — and print its human \
           rendering.")

let simulate_cmd =
  let ticks =
    Arg.(value & opt int 16 & info [ "ticks" ] ~doc:"Simulation rounds.")
  in
  let epoch_len =
    Arg.(value & opt int 4 & info [ "epoch-len" ] ~doc:"Withdrawal epoch length.")
  in
  let submit_len =
    Arg.(value & opt int 2 & info [ "submit-len" ] ~doc:"Certificate window.")
  in
  let fts =
    Arg.(value & opt int 2 & info [ "fts" ] ~doc:"Forward transfers to inject.")
  in
  let withhold =
    Arg.(value & flag & info [ "withhold" ] ~doc:"Withhold certificates (drive ceasing).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a mainchain + Latus sidechain world")
    Term.(
      const simulate $ seed_t $ ticks $ epoch_len $ submit_len $ fts $ withhold
      $ sidechains_t $ domains_t $ workload_t $ metrics_t $ trace_out_t
      $ report_t)

let schedule_cmd =
  let start = Arg.(value & opt int 100 & info [ "start" ] ~doc:"Activation height.") in
  let epoch_len = Arg.(value & opt int 10 & info [ "epoch-len" ] ~doc:"Epoch length.") in
  let submit_len = Arg.(value & opt int 3 & info [ "submit-len" ] ~doc:"Window length.") in
  let epochs = Arg.(value & opt int 5 & info [ "epochs" ] ~doc:"Epochs to print.") in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print a withdrawal-epoch schedule (Fig. 3)")
    Term.(const schedule $ start $ epoch_len $ submit_len $ epochs)

let keys_cmd =
  let depth = Arg.(value & opt int 12 & info [ "mst-depth" ] ~doc:"MST depth.") in
  Cmd.v
    (Cmd.info "keys" ~doc:"Compile the Latus circuits and print registration keys")
    Term.(const keys $ depth)

let prove_cmd =
  let steps =
    Arg.(value & opt int 32 & info [ "steps" ] ~doc:"Transitions in the epoch.")
  in
  let depth = Arg.(value & opt int 12 & info [ "mst-depth" ] ~doc:"MST depth.") in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ]
          ~doc:
            "Incentive-layer parties tasks are dispatched to (§5.4.1) — \
             independent of $(b,--domains), which is hardware parallelism.")
  in
  let seed =
    Arg.(value & opt int 77 & info [ "seed" ] ~doc:"Dispatch seed (§5.4.1).")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Prove one epoch on a multicore Domain pool and print measured \
          wall-clock stats")
    Term.(
      const prove $ steps $ domains_t $ workers $ depth $ seed $ metrics_t
      $ trace_out_t $ report_t)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Storm seed; with --plan, only labels the run.")
  in
  let ticks =
    Arg.(value & opt int 24 & info [ "ticks" ] ~doc:"Simulation rounds.")
  in
  let epoch_len =
    Arg.(
      value & opt int 4 & info [ "epoch-len" ] ~doc:"Withdrawal epoch length.")
  in
  let submit_len =
    Arg.(
      value & opt int 5
      & info [ "submit-len" ]
          ~doc:
            "Certificate window. The default overlaps consecutive windows \
             (submit-len > epoch-len), exercising sequential certification, \
             and tolerates reorgs up to the epoch length.")
  in
  let fts =
    Arg.(value & opt int 2 & info [ "fts" ] ~doc:"Forward transfers to inject.")
  in
  let intensity =
    Arg.(
      value & opt int 25
      & info [ "intensity" ]
          ~doc:"Storm fault probability in percent (0 = no faults).")
  in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Explicit fault plan (e.g. \
             $(b,crash@0:w1,delay@1:+2,reorg@9:d2,skew@5:+120ms)) instead of \
             a seed-derived storm.")
  in
  let log_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-out" ] ~docv:"FILE"
          ~doc:
            "Also write the replayable run log to FILE (byte-identical for \
             the same seed and plan).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the world under a deterministic fault plan and print a \
          replayable log")
    Term.(
      const chaos $ seed $ ticks $ epoch_len $ submit_len $ fts $ sidechains_t
      $ domains_t $ workload_t $ intensity $ plan $ log_out $ metrics_t
      $ trace_out_t $ report_t)

let soak_cmd =
  let profile =
    Arg.(
      value & opt string "smoke"
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Workload profile: $(b,smoke), $(b,steady), $(b,soak) or the \
             custom syntax printed by replays.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  let log_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-out" ] ~docv:"FILE"
          ~doc:
            "Also write the replayable run log to FILE (byte-identical for \
             the same seed and profile).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Drive the deterministic workload engine against the batched \
          state layer and print throughput")
    Term.(
      const soak $ profile $ seed $ log_out $ metrics_t $ trace_out_t
      $ report_t)

let () =
  let doc = "Zendoo cross-chain transfer protocol simulator" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "zendoo-cli" ~doc)
          [ simulate_cmd; schedule_cmd; keys_cmd; prove_cmd; chaos_cmd;
            soak_cmd ]))
