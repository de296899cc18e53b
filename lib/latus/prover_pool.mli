(** Distributed proof generation (paper §5.4.1 "Performance and
    Incentives").

    Generating a base SNARK per transition and merging them is too
    heavy for a single forger, so the paper sketches a dispatching
    scheme: proving tasks are assigned randomly to interested parties
    who work in parallel and are rewarded per valid submission.

    This module realizes the scheme on real hardware. It has two
    layers, deliberately kept separate:

    - the {e incentive} layer — {!dispatch} assigns every task to one
      of [workers] parties uniformly at random from a seeded generator,
      and each valid submission earns that party a reward. This
      assignment is deterministic in the seed and independent of how
      the work is actually scheduled;
    - the {e hardware} layer — a {!Pool.t} of OCaml domains executes
      the tasks concurrently. The epoch's steps are first applied
      natively to capture each task's state snapshot — which is what
      makes the tasks independent — then proven as pool futures, each
      proof spot-verified as it would be on submission and folded into
      the epoch proof as soon as its predecessors are in.

    Every output (proof bytes, task order, rewards, error selection) is
    bit-identical for every domain count; only the wall-clock numbers in
    {!stats} change. Experiment E13 measures exactly that. *)

open Zen_crypto
open Zen_snark

type worker_fault =
  | Crash  (** the worker never returns its tasks *)
  | Slow of int  (** the worker's proving time is inflated by a factor *)

type task_proof = {
  index : int;  (** position of the step within the epoch *)
  worker : int;  (** the §5.4.1 party whose submission was credited *)
  attempts : int;  (** dispatch attempts consumed (1 = no retry) *)
  proof : Backend.proof;
  vk : Backend.verification_key;
  s_from : Fp.t;
  s_to : Fp.t;
  seconds : float;  (** wall-clock spent proving this task *)
}

type worker_cost = {
  wc_worker : int;  (** §5.4.1 party id *)
  busy_s : float;
      (** summed proving wall-clock of the tasks credited to this
          worker (after any [Slow] inflation) *)
  wc_proofs : int;  (** valid submissions, same as the reward count *)
  wc_retries : int;
      (** dispatch attempts burnt before the tasks this worker finally
          proved landed on it (crashes elsewhere in the chain) *)
}

type stats = {
  tasks : int;
  workers : int;  (** incentive-layer parties tasks were dispatched to *)
  domains : int;  (** hardware parallelism actually used *)
  total_work : float;  (** sum of per-task proving wall-clock *)
  wall : float;
      (** elapsed wall-clock of the overlapped prove+merge phase *)
  concurrency : float;
      (** [total_work /. wall] — average number of tasks in flight.
          Not a speedup: on an oversubscribed machine per-task times
          inflate with contention, so compare [wall] against a
          1-domain run to measure real gain (experiment E13 does). *)
  retries : int;
      (** dispatch attempts beyond the first, summed over all tasks —
          0 when no worker faults were injected *)
  rewards : (int * int) list;
      (** worker id → valid submissions; only the worker whose proof
          actually verified is credited, so a crashed worker earns 0 *)
  worker_costs : worker_cost list;
      (** per-worker cost accounting, one entry per worker id in order —
          busy time, credited proofs and retry attribution; the
          [busy_s] values sum to [total_work] *)
}

val dispatch : rng:Rng.t -> workers:int -> tasks:int -> int array
(** [dispatch.(i)] is the worker assigned to task [i]; uniform random
    assignment as §5.4.1 suggests. Drawn sequentially from [rng]
    {e before} any parallel execution (see the {!Rng} seeding
    discipline). *)

val worker_costs_json : stats -> Zen_obs.Json.t
(** The {!stats.worker_costs} table as a JSON array
    ([{worker, busy_s, proofs, retries}] per worker) — the shape the
    CLI embeds under ["workers"] in a ["zen-report/1"] document. *)

val prove_and_merge :
  ?pool:Pool.t ->
  ?faults:(int * worker_fault) list ->
  ?attempt_budget:int ->
  Circuits.family ->
  Recursive.system ->
  initial:Sc_state.t ->
  steps:Sc_tx.step list ->
  workers:int ->
  seed:int ->
  (task_proof list * stats * Recursive.transition_proof, string) result
(** Proves every step of the epoch under a random dispatch and folds
    the base proofs into the single epoch proof (Fig. 11). Every
    proving task becomes a {!Pool.future} on [pool] (default
    {!Pool.sequential}), and completed base proofs are folded — in step
    order — through {!Recursive.Incremental} while later tasks are
    still proving, so merging overlaps proving instead of waiting for
    the last base proof. The returned proofs are in step order and each
    has been verified; the epoch proof's bytes equal the level-by-level
    balanced fold of the wrapped base proofs. On failure
    the reported error is the first failing step in epoch order. All of
    this is independent of the domain count: only [stats.wall] (the
    overlapped prove+merge) and the per-task timings vary.

    [faults] (worker id → fault, default none) injects §5.4.1 worker
    misbehaviour deterministically: a [Crash]ed worker never returns
    its tasks, so each is re-dispatched to a surviving worker — drawn
    from [Rng.derive] of the task index, hence reproducible for every
    domain count — burning one of [attempt_budget] attempts (default 3)
    per try; [Slow] inflates the reported proving time without
    affecting the result. Proof bytes, task order and error selection
    are identical to the fault-free run — only [worker], [attempts],
    [retries] and the timing fields change — so a certificate built
    from a faulted epoch is byte-identical to the clean one. All
    workers crashed, or a task exhausting its budget, is an [Error]. *)
