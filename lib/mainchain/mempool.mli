(** Transaction pools for either chain: a FIFO of candidate
    transactions indexed by txid.

    Admission is cheap (structural); full validation happens when a
    block is built and when it is applied, so invalid or conflicting
    transactions are dropped at selection time. *)

open Zen_crypto

(** Entries carry their txid, since every block connect filters the
    whole pool by id; a txid set dedups, and the size is carried. *)
module type S = sig
  type elt
  type t

  val empty : t
  val add : t -> elt -> t
  (** O(1); duplicates (by txid) are ignored. *)

  val remove : t -> Hash.t -> t
  (** Drops one transaction by txid (no-op when absent). *)

  val remove_txs : t -> elt list -> t
  (** Drops the given transactions (typically a block's) by txid. *)

  val reinject_front : t -> elt list -> t
  (** Reorg recovery: [recovered] (oldest first) returns to the
      {e front} of the FIFO, minus any transaction already pooled or
      repeated, so a reorg can never double-queue one. *)

  val txs : t -> elt list
  (** FIFO order (oldest first). *)

  val size : t -> int
end

module Make (T : sig type t val txid : t -> Hash.t end) :
  S with type elt = T.t

(** {2 The mainchain pool} *)

include S with type elt = Tx.t

val remove_included : t -> Block.t -> t
(** Drops everything the block included. *)

val reinject_disconnected :
  t -> disconnected:Block.t list -> connected:Block.t list -> t
(** Rebuilds the pool after a reorg (a {!Chain.Reorg} outcome carries
    both lists): every non-coinbase transaction of the [disconnected]
    branch that the [connected] branch did not re-include returns to the
    pool, oldest block first, so nothing a reorg abandoned is silently
    lost.
    Validity is re-checked at the usual places (miner selection, block
    application) — a recovered transaction that became invalid on the
    new branch is simply never selected. *)
