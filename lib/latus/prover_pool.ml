open Zen_crypto
open Zen_snark

type worker_fault = Crash | Slow of int

type task_proof = {
  index : int;
  worker : int;
  attempts : int;
  proof : Backend.proof;
  vk : Backend.verification_key;
  s_from : Fp.t;
  s_to : Fp.t;
  seconds : float;
}

type worker_cost = {
  wc_worker : int;
  busy_s : float;
  wc_proofs : int;
  wc_retries : int;
}

type stats = {
  tasks : int;
  workers : int;
  domains : int;
  total_work : float;
  wall : float;
  concurrency : float;
  retries : int;
  rewards : (int * int) list;
  worker_costs : worker_cost list;
}

let reassignments =
  Zen_obs.Counter.make
    ~help:"Prover tasks re-dispatched away from a crashed worker"
    "latus.prover.reassignments"

let prove_step_s =
  Zen_obs.Histogram.make
    ~help:"per-base-proof proving latency (after any Slow-fault inflation)"
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:8)
    "latus.prove_step.seconds"

(* Swappable clock: tests install [Zen_obs.Clock.deterministic] to make
   the per-task [seconds] and [wall] fields reproducible. *)
let now () = Zen_obs.Clock.now ()

let dispatch ~rng ~workers ~tasks =
  if workers <= 0 then invalid_arg "Prover_pool.dispatch: no workers";
  Array.init tasks (fun _ -> Rng.int rng workers)

let ( let* ) = Result.bind

(* One §5.4.1 proving task: honour the seeded dispatch (re-dispatching
   away from crashed workers via the task's derived rng), prove,
   spot-verify, account. A pure function of its index, so it may run on
   any domain. *)
let run_task ~family ~fault_of ~crashed ~survivors ~attempt_budget ~rng
    ~assignment ~snaps index =
  let state, step = snaps.(index) in
  let task_rng = Rng.derive rng index in
  let rec attempt k w =
    if crashed w then begin
      Zen_obs.Counter.incr reassignments;
      Zen_obs.Trace.instant ~cat:"fault"
        ~args:
          [
            ("step", string_of_int index);
            ("worker", string_of_int w);
            ("attempt", string_of_int k);
          ]
        "latus.prover.crash";
      if k >= attempt_budget then
        Error
          (Printf.sprintf "prover pool: task %d exceeded its attempt budget (%d)"
             index attempt_budget)
      else attempt (k + 1) survivors.(Rng.int task_rng (Array.length survivors))
    end
    else begin
      let t = now () in
      Zen_obs.Trace.with_span ~cat:"latus"
        ~args:
          [
            ("step", string_of_int index);
            ("worker", string_of_int w);
            ("attempt", string_of_int k);
          ]
        "latus.prove_step"
      @@ fun () ->
      match Circuits.prove_step family state step with
      | Error e -> Error e
      | Ok (proof, vk, s_from, s_to) ->
        let public = Recursive.base_public ~s_from ~s_to ~extra:[||] in
        if not (Backend.verify vk ~public proof) then
          Error "prover pool: worker submitted an invalid proof"
        else
          let seconds = now () -. t in
          let seconds =
            match fault_of w with
            | Some (Slow f) when f > 1 -> seconds *. float_of_int f
            | _ -> seconds
          in
          Zen_obs.Histogram.observe prove_step_s seconds;
          Ok { index; worker = w; attempts = k; proof; vk; s_from; s_to; seconds }
    end
  in
  attempt 1 assignment.(index)

let stats_of ~workers ~domains ~wall proofs =
  let rewards = Array.make workers 0 in
  let busy = Array.make workers 0.0 in
  let worker_retries = Array.make workers 0 in
  let retries, total_work =
    List.fold_left
      (fun (retries, acc) tp ->
        rewards.(tp.worker) <- rewards.(tp.worker) + 1;
        busy.(tp.worker) <- busy.(tp.worker) +. tp.seconds;
        worker_retries.(tp.worker) <- worker_retries.(tp.worker) + tp.attempts - 1;
        (retries + tp.attempts - 1, acc +. tp.seconds))
      (0, 0.0) proofs
  in
  {
    tasks = List.length proofs;
    workers;
    domains;
    total_work;
    wall;
    concurrency = (if wall > 0.0 then total_work /. wall else 1.0);
    retries;
    rewards = Array.to_list rewards |> List.mapi (fun i r -> (i, r));
    worker_costs =
      List.init workers (fun w ->
          {
            wc_worker = w;
            busy_s = busy.(w);
            wc_proofs = rewards.(w);
            wc_retries = worker_retries.(w);
          });
  }

let worker_costs_json stats =
  Zen_obs.Json.Arr
    (List.map
       (fun wc ->
         Zen_obs.Json.Obj
           [
             ("worker", Zen_obs.Json.Int wc.wc_worker);
             ("busy_s", Zen_obs.Json.Float wc.busy_s);
             ("proofs", Zen_obs.Json.Int wc.wc_proofs);
             ("retries", Zen_obs.Json.Int wc.wc_retries);
           ])
       stats.worker_costs)

let prove_and_merge ?(pool = Pool.sequential) ?(faults = [])
    ?(attempt_budget = 3) family rsys ~initial ~steps ~workers ~seed =
  Zen_obs.Trace.with_span ~cat:"latus"
    ~args:
      [
        ("steps", string_of_int (List.length steps));
        ("domains", string_of_int (Pool.domains pool));
        ("faults", string_of_int (List.length faults));
      ]
    "latus.prove_and_merge"
  @@ fun () ->
  if attempt_budget < 1 then
    invalid_arg "Prover_pool.prove_and_merge: attempt_budget";
  let fault_of w = List.assoc_opt w faults in
  let crashed w = fault_of w = Some Crash in
  let survivors =
    Array.init workers Fun.id |> Array.to_list
    |> List.filter (fun w -> not (crashed w))
    |> Array.of_list
  in
  let* () =
    if workers > 0 && Array.length survivors = 0 then
      Error "prover pool: no surviving workers (all crashed)"
    else Ok ()
  in
  (* The incentive layer: the dispatch is drawn from the seeded rng
     before anything executes, so worker assignment, rewards and
     retries do not depend on scheduling. *)
  let rng = Rng.create seed in
  let assignment = dispatch ~rng ~workers ~tasks:(List.length steps) in
  (* The pre-state of each step: after this, every proving task is
     independent of the others. *)
  let* _, snaps = Sc_tx.trace initial steps in
  let snaps = Array.of_list snaps in
  let t0 = now () in
  (* Pipelined execution: every task is a future, so base proofs run
     concurrently while this domain folds finished ones — in index
     order — through the incremental merge tree. The tree shape (hence
     the proof bytes) is the balanced Fig. 10 tree and the reported
     error is the first failing index, whatever the domain count; only
     scheduling and the timing fields vary. *)
  let futures =
    Array.init (Array.length snaps) (fun index ->
        Pool.async pool (fun () ->
            run_task ~family ~fault_of ~crashed ~survivors ~attempt_budget ~rng
              ~assignment ~snaps index))
  in
  let inc = Recursive.Incremental.create rsys in
  let* proofs_rev =
    Array.fold_left
      (fun acc fut ->
        let* out = acc in
        let* tp = Pool.await fut in
        let* transition =
          Recursive.of_base rsys ~vk:tp.vk ~s_from:tp.s_from ~s_to:tp.s_to
            ~extra:[||] tp.proof
        in
        Recursive.Incremental.push inc transition;
        Ok (tp :: out))
      (Ok []) futures
  in
  let proofs = List.rev proofs_rev in
  let* top = Recursive.Incremental.finish inc in
  let wall = now () -. t0 in
  Ok (proofs, stats_of ~workers ~domains:(Pool.domains pool) ~wall proofs, top)
