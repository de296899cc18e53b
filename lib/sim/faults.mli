(** Deterministic fault injection for the epoch pipeline.

    A fault {e plan} is plain data: a list of faults, each pinned to a
    tick or an epoch. The harness consults the plan at fixed points of
    its round structure and the prover pool re-dispatches around
    crashed workers, so a run is a pure function of [(seed, plan)] —
    replaying the same pair yields a byte-identical event log and
    byte-identical certificates. There is no probabilistic firing at
    injection time: all randomness is spent up front, in {!storm},
    which expands a seed into a concrete plan.

    Faults covered (the ones the Zendoo epoch pipeline must survive):
    prover-worker crashes and slowdowns ({!Zen_latus.Prover_pool}),
    dropped / delayed / duplicated certificate submissions, per-epoch
    certificate withholding (drives ceasing, Def. 4.2), adversarial
    side-branch mining that forces reorgs of configurable depth
    (§5.1 "Mainchain forks resolution"), and clock skew through
    {!Zen_obs.Clock}. *)

open Zen_latus

type cert_fault =
  | Drop  (** the built certificate never reaches the mempool *)
  | Delay of int  (** submission postponed by that many ticks *)
  | Duplicate of int
      (** resubmitted that many extra times, one per tick; 1 to 16,
          and {!fault_of_string} rejects more as out of range *)
  | Withhold  (** the node never builds the certificate (ceasing path) *)

type fault =
  | Crash_worker of { epoch : int; worker : int }
  | Slow_worker of { epoch : int; worker : int; factor : int }
  | Cert_fault of { epoch : int; fault : cert_fault }
  | Reorg of { tick : int; depth : int }
      (** at [tick], an adversary mines a side branch that abandons the
          top [depth] blocks of the best chain *)
  | Clock_skew of { tick : int; millis : int }
      (** at [tick], {!Zen_obs.Clock.skew} jumps the clock forward *)

type plan = fault list

val fault_to_string : fault -> string
val fault_of_string : string -> (fault, string) result

val plan_to_string : plan -> string
(** Compact, comma-separated codec — ["none"] for the empty plan, e.g.
    ["crash@2:w1,delay@3:+2,reorg@17:d2,skew@5:+120ms"]. Round-trips
    through {!plan_of_string}; this is the CLI/CI exchange format. *)

val plan_of_string : string -> (plan, string) result

val storm :
  seed:int ->
  ?first_tick:int ->
  ?ticks:int ->
  ?epochs:int ->
  ?workers:int ->
  ?intensity:int ->
  unit ->
  plan
(** Expands a seed into a concrete storm plan: per epoch a certificate
    fault and/or worker fault with probability [intensity]% (default
    25), and for each of the [ticks] rounds starting at [first_tick]
    (default 1 — set it past any setup rounds the harness consumes) a
    reorg or clock skew with a fraction of that. The same arguments
    always produce the same plan — print it with {!plan_to_string} to
    rerun or shrink by hand. [intensity 0] is the empty plan. *)

(** {2 Runtime} *)

type t
(** A plan in execution: remembers which one-shot faults have fired and
    counts injections. Mutable, but deterministically driven — the
    harness is single-threaded. *)

val create : seed:int -> plan -> t
val seed : t -> int
val plan : t -> plan

val injected : t -> int
(** Faults that actually fired so far. *)

val fire : t -> string -> bool
(** [fire t key] is [true] the first time only (and counts an
    injection) — idempotence guard for hooks that are consulted every
    tick. *)

val cert_fault : t -> epoch:int -> cert_fault option
(** The planned certificate fault for that epoch, if any. *)

val reorg_at : t -> tick:int -> int option
(** Planned reorg depth at that tick. *)

val skew_at : t -> tick:int -> int option
(** Planned clock-skew millis at that tick. *)

val prover_faults : t -> epoch:int -> (int * Prover_pool.worker_fault) list
(** Worker faults for that epoch, in the shape
    {!Prover_pool.prove_and_merge} takes as [?faults]. *)
