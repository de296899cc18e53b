(** The mainchain block tree with Nakamoto fork choice.

    Every validated block keeps its post-state; the tip is the block
    with the most cumulative work (first-seen wins ties), so a fork
    overtaking the current tip triggers a reorg simply by re-pointing
    — the semantics sidechain binding relies on (paper §5.1 "Mainchain
    forks resolution"). *)

open Zen_crypto

type t

type outcome =
  | Extended_tip
  | Side_branch  (** valid, stored, but not the best chain *)
  | Reorg of { old_tip : Hash.t; depth : int }
      (** the new block's branch overtook; [depth] is the number of
          blocks abandoned from the old best chain *)

val create : ?params:Chain_state.params -> time:int -> unit -> t
val params : t -> Chain_state.params

val tip_hash : t -> Hash.t
val tip_state : t -> Chain_state.t
val height : t -> int

val block : t -> Hash.t -> Block.t option

val add_block : ?pool:Pool.t -> t -> Block.t -> (t * outcome, string) result
(** Validates against the parent's state and inserts. Duplicate blocks
    are rejected; unknown parents are an error (no orphan pool — the
    simulation delivers blocks in order per peer). The header is hashed
    once: the duplicate check's hash is handed to
    {!Chain_state.apply_block}. [pool] is handed to
    {!Chain_state.apply_block} for batch proof verification and the
    commitment rebuild; outcomes are identical for every domain
    count.

    A {!Reorg}'s [depth] walks back from the old tip only to the
    common ancestor, looked up in the new tip's height index: it costs
    the abandoned blocks plus one, not the chain's length. Visited
    blocks count into [mc.scan.ancestors]. *)

val on_best_chain : t -> Hash.t -> bool
(** Whether a block hash lies on the current best chain. *)

val reorg_diff : t -> old_tip:Hash.t -> Block.t list * Block.t list
(** [(disconnected, connected)] relative to the current tip, both
    oldest first: the blocks of the abandoned branch from [old_tip]
    down to (excluding) the common ancestor, and the best-chain blocks
    that replaced them. Call it right after an {!add_block} that
    returned {!Reorg} — the transactions of [disconnected] minus those
    re-included by [connected] are what a mempool must recover. *)
