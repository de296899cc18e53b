(** A minimal mainchain mempool: FIFO of candidate transactions.

    Admission is cheap (structural); full validation happens when the
    miner builds a template and when blocks are applied, so invalid or
    conflicting transactions are dropped at selection time. *)

open Zen_crypto

type t

val empty : t
val add : t -> Tx.t -> t
(** Duplicates (by txid) are ignored. *)

val remove_included : t -> Block.t -> t
(** Drops everything the block included. *)

val remove : t -> Hash.t -> t
(** Drops one transaction by txid (no-op when absent). *)

val reinject_disconnected :
  t -> disconnected:Block.t list -> connected:Block.t list -> t
(** Rebuilds the pool after a reorg ({!Chain.reorg_diff} supplies both
    lists): every non-coinbase transaction of the [disconnected] branch
    that the [connected] branch did not re-include returns to the pool,
    oldest block first, so nothing a reorg abandoned is silently lost.
    Validity is re-checked at the usual places (miner selection, block
    application) — a recovered transaction that became invalid on the
    new branch is simply never selected. *)

val txs : t -> Tx.t list
(** FIFO order. *)

val mem : t -> Hash.t -> bool
val size : t -> int
