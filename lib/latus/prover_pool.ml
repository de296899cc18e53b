open Zen_crypto
open Zen_snark

type worker_fault = Crash | Slow of int

type task_proof = {
  index : int;
  worker : int;
  attempts : int;
  transition : Recursive.transition_proof;
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

(* Prover tasks re-dispatched away from a crashed worker. *)
let reassignments = Zen_obs.Counter.make "latus.prover.reassignments"

let dispatch ~rng ~workers ~tasks =
  if workers <= 0 then invalid_arg "Prover_pool.dispatch: no workers";
  Array.init tasks (fun _ -> Rng.int rng workers)

let ( let* ) = Result.bind

(* Where task [index] lands: its seeded assignment, re-dispatched away
   from crashed workers with the task's derived rng, one attempt of the
   budget per try. A function of the seed, the index and the faults
   alone — never of a proof — so every route is drawn before proving. *)
let route ~crashed ~survivors ~attempt_budget ~rng ~assignment index =
  let task_rng = Rng.derive rng index in
  let rec attempt k w =
    if not (crashed w) then Ok (w, k)
    else begin
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
  in
  attempt 1 assignment.(index)

(* The routes of the records in order, up to the first task whose
   routing fails; then that failure. *)
let rec routed route index = function
  | [] -> ([], Ok ())
  | record :: rest -> (
    match route index with
    | Error e -> ([], Error e)
    | Ok wk ->
      let ok, failure = routed route (index + 1) rest in
      ((wk, record) :: ok, failure))

let stats_of ~workers ~domains ~wall proofs =
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let cost w =
    let mine = List.filter (fun tp -> tp.worker = w) proofs in
    {
      wc_worker = w;
      busy_s = sum (fun tp -> tp.seconds) mine;
      wc_proofs = List.length mine;
      wc_retries = List.fold_left (fun acc tp -> acc + tp.attempts - 1) 0 mine;
    }
  in
  let worker_costs = List.init workers cost in
  let total_work = sum (fun tp -> tp.seconds) proofs in
  {
    tasks = List.length proofs;
    workers;
    domains;
    total_work;
    wall;
    concurrency = (if wall > 0.0 then total_work /. wall else 1.0);
    retries = List.fold_left (fun acc wc -> acc + wc.wc_retries) 0 worker_costs;
    rewards = List.map (fun wc -> (wc.wc_worker, wc.wc_proofs)) worker_costs;
    worker_costs;
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
    Array.of_list
      (List.filter (fun w -> not (crashed w)) (List.init workers Fun.id))
  in
  let* () =
    if workers > 0 && Array.length survivors = 0 then
      Error "prover pool: no surviving workers (all crashed)"
    else Ok ()
  in
  let rng = Rng.create seed in
  let assignment = dispatch ~rng ~workers ~tasks:(List.length steps) in
  let* _, records = Sc_tx.trace initial steps in
  let routes, unrouted =
    routed (route ~crashed ~survivors ~attempt_budget ~rng ~assignment) 0
      records
  in
  let t0 = Zen_obs.Clock.now () in
  let pipeline = Proof_pipeline.create ~pool ~family ~rsys in
  List.iter (fun (_, r) -> Proof_pipeline.enqueue pipeline ~epoch:0 r) routes;
  let top = Proof_pipeline.await_epoch pipeline ~epoch:0 in
  let wall = Zen_obs.Clock.now () -. t0 in
  let leaves = Proof_pipeline.leaf_results pipeline ~epoch:0 in
  (* The task whose routing failed comes after every routed one, so a
     failed base proof among those is the first error. *)
  let* top =
    match unrouted with
    | Ok () -> top
    | Error e ->
      let base_error = function Error e, _ -> Some e | Ok _, _ -> None in
      Error (Option.value ~default:e (List.find_map base_error leaves))
  in
  (* Only now is any reward credited: every proof has verified. *)
  let proofs =
    List.mapi
      (fun index (((worker, attempts), _), (r, seconds)) ->
        let seconds =
          match fault_of worker with
          | Some (Slow f) when f > 1 -> seconds *. float_of_int f
          | _ -> seconds
        in
        { index; worker; attempts; transition = Result.get_ok r; seconds })
      (List.combine routes leaves)
  in
  Ok (proofs, stats_of ~workers ~domains:(Pool.domains pool) ~wall proofs, top)
