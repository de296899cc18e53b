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
  | Reorg of {
      old_tip : Hash.t;
      disconnected : Block.t list;
      connected : Block.t list;
    }
      (** the new block's branch overtook. Both lists are oldest first:
          [disconnected] holds the old best chain's blocks above the
          common ancestor, [connected] the new best chain's blocks that
          replaced them (the new block last). The reorg's depth is
          [List.length disconnected]; the transactions of
          [disconnected] minus those [connected] re-included are what
          a mempool must recover ({!Mempool.reinject_disconnected}). *)

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

    A {!Reorg}'s lists come from one fork walk: back from the old tip
    to the common ancestor, found in the new tip's height index, then
    down from the new tip to that ancestor's height. It costs the
    abandoned blocks plus one (counted into [mc.scan.ancestors]) and
    the connected blocks, not the chain's length. *)

val on_best_chain : t -> Hash.t -> bool
(** Whether a block hash lies on the current best chain. *)
