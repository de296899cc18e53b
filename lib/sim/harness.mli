(** A one-process world: mainchain + miners + Latus sidechains.

    Drives the round structure the examples and scenario tests share:
    each {!tick} mines one MC block from the shared mempool, lets every
    sidechain node forge against the new tip, and auto-submits any
    certificate that becomes ready. Adversarial knobs (certificate
    withholding, fork injection) exercise the ceasing and reorg paths
    of the protocol. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

type sidechain = {
  name : string;
  ledger_id : Hash.t;
  config : Sidechain_config.t;
  node : Node.t;
  mutable withhold_certs : bool;
      (** adversarial: stop submitting certificates (drives ceasing) *)
}

type score = {
  mutable submitted : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable withheld : int;
  mutable cert_errors : int;
}
(** Flight-recorder row: certificate outcomes for one
    (sidechain, epoch) pair. A [Delay]ed certificate counts once under
    [delayed] when postponed (its eventual delivery is not re-counted);
    [duplicated] counts the extra copies a [Duplicate] fault queued. *)

type t = {
  mutable chain : Chain.t;
  mutable mempool : Mempool.t;
  mc_wallet : Wallet.t;
  miner_addr : Hash.t;
  pool : Pool.t;
      (** worker pool handed to mining/validation (batch certificate
          verification, commitment builds) and, by default, to every
          sidechain node *)
  mutable time : int;
  mutable sidechains_rev : sidechain list;
      (** newest first (constant-time registration); {!tick} drives
          them in registration order, its reverse *)
  mutable next_sc_nonce : int;
      (** monotonic creation-tx nonce — never reused, so derived ledger
          ids stay collision-free even if sidechains are ever removed *)
  log : Zen_obs.Events.t;
      (** human-readable event log, also mirrored into the trace as
          instant events; read it through {!dump_log} (oldest first) *)
  faults : Faults.t option;  (** the fault plan in execution, if any *)
  mutable pending_certs : (int * Tx.t) list;
      (** certificate submissions a Delay/Duplicate fault postponed:
          [(deliver_at_tick, tx)] *)
  scores : (string * int, score) Hashtbl.t;
      (** the flight recorder, keyed by (sidechain name, epoch) —
          filled lazily as certificate events happen *)
  mutable reorgs : (int * int) list;
      (** every reorg the harness processed, as [(tick, depth)], newest
          first; [depth] is the number of blocks disconnected *)
  mutable workload : workload_driver option;
      (** live-traffic driver, attached by {!set_workload} *)
}

and workload_driver

val create :
  ?pool:Pool.t ->
  ?aggregate:bool ->
  ?pipeline:bool ->
  ?faults:Faults.t ->
  seed:string ->
  unit ->
  t
(** A fresh world at height 0 with an empty mempool, mining with
    {!Pow.trivial} so runs spend no time on proof of work; [pool]
    defaults to {!Pool.sequential}. Everything downstream is
    deterministic in [seed] (and, with [faults], in the fault plan: the
    same [(seed, plan)] pair replays to a byte-identical event log —
    for every domain count of [pool]). Every mined block that carries a
    certificate folds its certificate proofs into one
    {!Zen_snark.Aggregate} ({!Miner.build_block}), and sidechain nodes
    always prove through {!Zen_latus.Proof_pipeline}.

    [aggregate] and [pipeline] are leftover labels for the benchmark in
    [perfbench/]: [true] does nothing, [false] raises
    [Invalid_argument] (ROADMAP item 1). *)

val mine : t -> unit
(** One MC block from the current mempool. Every certificate the miner
    skips leaves the pool, logged as a purged stale certificate: its
    window closed, its quality is beaten or its epoch is not next, and
    its node rebuilds and resubmits while the epoch can still be
    certified. On a reorg outcome the
    mempool is rebuilt from the {!Chain.Reorg} lists via
    {!Mempool.reinject_disconnected}, so abandoned transactions are
    re-mined instead of silently lost. *)

val force_reorg : t -> depth:int -> unit
(** Adversarial fork injection: mines [depth + 1] coinbase-only blocks
    on a side branch forking [depth] blocks below the tip, so the
    branch overtakes and the harness processes a reorg of that depth
    (clamped to the chain height). Also available in fault plans as
    [reorg@tick:dN]. *)

val submit : t -> Tx.t -> unit
(** Adds a transaction to the mempool (included by the next {!mine}).
    A certificate the miner then skips leaves the pool, as one a node
    submitted through {!tick} does. *)

val fund : t -> blocks:int -> unit
(** Mines empty blocks so the harness wallet has mature coins. *)

val add_latus :
  t ->
  name:string ->
  ?params:Params.t ->
  ?family:Circuits.family ->
  epoch_len:int ->
  submit_len:int ->
  activation_delay:int ->
  unit ->
  (sidechain, string) result
(** Registers a new Latus sidechain (creation tx mined immediately);
    activation at [tip + activation_delay]. [family] lets several
    sidechains share one compiled circuit family (compilation is the
    expensive part). The node folds epoch proofs on the harness pool. *)

val set_workload :
  t -> profile:Workload.profile -> seed:int -> (unit, string) result
(** Attaches a live-traffic driver: each subsequent {!tick} draws one
    transaction kind per sidechain from the profile's mix (BTR folded
    into BT at this layer) behind a diurnal gate shaped by the
    profile's phases/burst, and submits a real signed transaction to
    that node — payments and BTs from a per-sidechain workload wallet,
    FTs (also the funding fallback) from the harness wallet. Injection
    and its log lines are a pure function of [(seed, profile)]; with no
    workload attached, ticks behave exactly as before. *)

val workload_injected : t -> int
(** Transactions the workload driver has submitted so far. *)

val forward_transfer :
  t -> sidechain -> receiver:Hash.t -> payback:Hash.t -> amount:Amount.t ->
  (unit, string) result
(** Builds, submits and mines an FT from the harness wallet. *)

val tick : t -> unit
(** Mine one MC block, forge each sidechain once (slot = time), pump
    each node's proving pipeline (folding background proofs completed
    since the last tick), and submit any certificate that is ready
    (unless withheld). With a fault plan installed, the tick first
    injects whatever the plan pins to this round — clock skew,
    adversarial reorg, postponed certificate deliveries — and
    certificate submission honours any Drop/Delay/Duplicate/Withhold
    fault for the epoch being certified. *)

val tick_n : t -> int -> unit
(** [tick] [n] times. *)

val sc_balance_on_mc : t -> sidechain -> Amount.t
(** The sidechain's balance as the mainchain ledger sees it (what the
    §4.1.2.2 safeguard protects). *)

val is_ceased : t -> sidechain -> bool
(** Whether the MC considers the sidechain ceased at the current tip
    (no certificate inside a submission window, Fig. 3). *)

val scoreboard_json : t -> Zen_obs.Json.t
(** The flight recorder as JSON — per-(sidechain, epoch) certificate
    outcomes (submitted/dropped/delayed/duplicated/withheld/errors),
    every reorg with its depth, the MC verification-cache hit rate,
    the certificate-aggregation counters ([mc.aggregate.*], read from
    the {!Zen_obs} registry, so they count only while it is enabled,
    as under the CLI's [--report]) and the
    proving pipeline's per-certificate certify-path accounting
    ([pipeline.certs]: leaves folded and carry merges run at certify
    time — both deterministic in the seed). The shape the CLI embeds
    under ["scoreboard"] in a ["zen-report/1"] document. Rows are
    sorted by (sidechain, epoch), so the output is deterministic. *)

val logf : t -> ('a, unit, string, unit) format4 -> 'a
(** printf into the world's event log. *)

val dump_log : t -> string list
(** Oldest first. *)
