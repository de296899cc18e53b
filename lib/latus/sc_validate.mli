(** Follower-side validation of Latus blocks.

    A sidechain node that did not forge a block must be able to verify
    everything about it before adopting it (§5.1): the forger's
    signature and (optionally) slot leadership, the MC block references
    — contiguity, membership/absence proofs against the referenced
    headers, presence on the local MC view, epoch-boundary clipping —
    the deterministic derivation of FTTx/BTRTx from the references, the
    validity of every carried transaction, and the committed post-state
    hash. *)

open Zen_crypto
open Zen_mainchain
open Zendoo

type context = {
  config : Sidechain_config.t;
  params : Params.t;
  prev_state : Sc_state.t;
      (** state the block builds on (epoch reset already applied) *)
  prev_hash : Hash.t;  (** expected parent block hash *)
  prev_height : int;  (** parent height; -1 for the first block *)
  mc_synced : int;  (** highest MC height referenced so far *)
  expected_leader : Hash.t option;
      (** enforce slot leadership when [Some] *)
}

val sync_txs : Mc_ref.t list -> Sc_tx.t list
(** The synchronized transactions a block's MC references imply, in
    reference order: per reference, one FTTx for its forward transfers
    and one BTRTx for its backward-transfer requests, each only when
    non-empty. The forger and the follower both derive them here. *)

val validate :
  context -> mc:Chain.t -> Sc_block.t -> (Sc_state.t, string) result
(** Full check; returns the post-state on success (its hash equals the
    block's [state_hash]). *)
