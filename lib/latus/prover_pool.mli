(** Distributed proof generation (paper §5.4.1 "Performance and
    Incentives").

    Generating a base SNARK per transition and merging them is too
    heavy for a single forger, so the paper sketches a dispatching
    scheme: proving tasks are assigned randomly to interested parties
    who work in parallel and are rewarded per valid submission.

    This module is that incentive layer: {!dispatch} assigns every
    task to one of [workers] parties uniformly at random from a seeded
    generator, crashed parties' tasks are re-dispatched, and each valid
    submission earns its party a reward. The work itself runs through
    a {!Proof_pipeline}, the node's prover, on a {!Pool.t} of OCaml
    domains. Every output (proof bytes, task order, rewards, error
    selection) is bit-identical for every domain count; only the
    wall-clock numbers in {!stats} change (experiment E13). *)

open Zen_crypto
open Zen_snark

type worker_fault =
  | Crash  (** the worker never returns its tasks *)
  | Slow of int  (** the worker's proving time is inflated by a factor *)

type task_proof = {
  index : int;  (** position of the step within the epoch *)
  worker : int;  (** the §5.4.1 party whose submission was credited *)
  attempts : int;  (** dispatch attempts consumed (1 = no retry) *)
  transition : Recursive.transition_proof;  (** the wrapped base proof *)
  seconds : float;
      (** wall-clock spent proving and wrapping this task (after any
          [Slow] inflation) *)
}

type worker_cost = {
  wc_worker : int;  (** §5.4.1 party id *)
  busy_s : float;  (** summed [seconds] of the tasks credited to it *)
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
      (** [total_work /. wall] — average number of tasks in flight, not
          a speedup: per-task times inflate with contention, so compare
          [wall] against a 1-domain run (experiment E13 does). *)
  retries : int;
      (** dispatch attempts beyond the first, summed over all tasks —
          0 when no worker faults were injected *)
  rewards : (int * int) list;
      (** worker id → valid submissions; a crashed worker earns 0 *)
  worker_costs : worker_cost list;  (** one entry per worker id, in order *)
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
    the base proofs into the single epoch proof (Fig. 11). The steps
    are applied once, by {!Sc_tx.trace} from [initial]; the routed
    records are {!Proof_pipeline.enqueue}d on a fresh pipeline over
    [pool] (default {!Pool.sequential}) and the epoch is awaited, so
    merging overlaps proving. The proofs are returned in step order,
    and a reward is credited only once every proof has verified. The
    epoch proof's bytes are those of the level-by-level balanced fold
    of the wrapped base proofs. On
    failure the reported error is the first failing step in epoch
    order, whatever the domain count.

    [faults] (worker id → fault, default none) injects §5.4.1 worker
    misbehaviour deterministically: a [Crash]ed worker never returns
    its tasks, so each is re-dispatched to a surviving worker — drawn
    from [Rng.derive] of the task index — burning one of
    [attempt_budget] attempts (default 3) per try; [Slow] inflates the
    reported proving time. Proof bytes, task order and error selection
    are those of the fault-free run — only [worker], [attempts],
    [retries] and the timing fields change. All workers crashed, or a
    task exhausting its budget, is an [Error]. *)
