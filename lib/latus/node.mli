(** A Latus sidechain node (paper §5): follows the mainchain, forges
    sidechain blocks with MC block references, maintains the MST state,
    produces per-step transition proofs and recursively composes them,
    and emits withdrawal certificates at epoch boundaries.

    The node observes the mainchain directly (the parent-child model of
    §3): it reads a {!Zen_mainchain.Chain.t} and reacts to its best
    chain, including rollback of sidechain blocks whose MC references
    were reorged away (§5.1 property 2). *)

open Zen_crypto
open Zen_mainchain
open Zendoo

type t

val wcert_schema : Proofdata.schema
(** Latus WCert proofdata: [H(SB_last); MST root; mst_delta]
    (§5.5.3.1). *)

val config_for :
  ledger_id:Hash.t ->
  start_block:int ->
  epoch_len:int ->
  submit_len:int ->
  Circuits.family ->
  (Sidechain_config.t, string) result
(** The mainchain registration record for a Latus sidechain using this
    circuit family. *)

val create :
  config:Sidechain_config.t ->
  params:Params.t ->
  family:Circuits.family ->
  forger:Sc_wallet.t ->
  ?pool:Pool.t ->
  unit ->
  (t, string) result
(** The forger wallet must hold at least one key. [pool] (default
    {!Pool.sequential}) supplies the domains the {!Proof_pipeline}
    proves and folds on: {!forge} applies steps natively and enqueues
    proving tasks that complete in the background between ticks (call
    {!pump} to drain), leaving the certify path only the
    ≤ ⌈log₂ n⌉ carry merges. Proofs and certificates are bit-identical
    for every domain count. The node does not own the pool — the caller
    shuts it down.

    Block records of epochs more than 8 behind the mainchain's last
    accepted certificate are pruned: certificate rebuilds after shallow
    reorgs stay inside that margin, and withdrawals replay from the kept
    per-epoch archives. *)

val family : t -> Circuits.family

val tip_state : t -> Sc_state.t
(** State after the last forged block (before any epoch reset). *)

val next_block_state : t -> Sc_state.t
(** State the next block will build on (epoch reset applied). *)

val sc_height : t -> int
val mc_synced_height : t -> int
val blocks : t -> Sc_block.t list
(** Oldest first. *)

val submit_tx : t -> Sc_tx.t -> (unit, string) result
(** Validates against the current state and queues the transaction —
    O(1) admission into an id-indexed FIFO ({!Sc_mempool});
    resubmitting a pooled txid is an accepted no-op. *)

val mempool_size : t -> int
(** O(1). *)

val forge :
  t ->
  mc:Chain.t ->
  slot:int ->
  ?enforce_leader:bool ->
  unit ->
  (Sc_block.t option, string) result
(** One forging round: first reconciles with the MC best chain
    (rolling back sidechain blocks whose references were reorged
    away), then forges a block carrying any new MC references (clipped
    at the withdrawal-epoch boundary) and pending transactions.
    Returns [None] when there is nothing to include or, with
    [enforce_leader], when the forger does not lead this slot. *)

val build_certificate : t -> mc:Chain.t -> (Tx.t option, string) result
(** Builds the withdrawal certificate for the earliest completed,
    not-yet-certified epoch: recursively composes the epoch's
    transition proofs, checks the §5.5.3.1 statement natively, and
    wraps it for mainchain submission. [None] when no epoch is ready. *)

val certified_epochs : t -> int list

val certificate_target : t -> mc:Chain.t -> int
(** The epoch {!build_certificate} will actually target: the
    mainchain's earliest uncertified epoch when that lags the node's
    archive (a built certificate was lost to a reorg or never landed —
    the node rebuilds and resubmits it), otherwise one past the newest
    epoch the node has archived. *)

val state_at_epoch_end : t -> epoch:int -> Sc_state.t option

val create_withdrawal_request :
  t ->
  kind:Mainchain_withdrawal.kind ->
  utxo:Utxo.t ->
  receiver:Hash.t ->
  reference_block:Hash.t ->
  ?as_of_epoch:int ->
  unit ->
  (Mainchain_withdrawal.t, string) result
(** Builds a BTR or CSW for [utxo] against the committed state of
    [as_of_epoch] (default: the latest certified epoch). When an older
    epoch is used, the node first replays the mst_delta chain
    (Appendix A) to confirm the slot was never touched since. *)

(** {2 Proving pipeline} *)

val pump : t -> unit
(** Drain point between ticks: folds every background proof that has
    completed into its epoch's incremental merge tree. With a sequential pool this is where the deferred proofs
    actually run, spreading the work across ticks instead of bursting at
    the epoch boundary. The harness calls this once per sidechain per
    tick, after forging. *)

val certificate_stats : t -> Proof_pipeline.certificate_stats list
(** Per-certificate certify-path accounting, oldest first: how many base transitions each epoch proof
    covers and how many merges actually ran at certify time. Both
    fields are deterministic in the seed. *)
