(** Block-template construction and mining.

    Selects mempool transactions greedily against a trial state (so a
    template never contains an invalid or conflicting transaction),
    pays subsidy + fees to the miner address, and seals the block with
    proof of work. *)

open Zen_crypto

val build_block :
  ?pool:Pool.t ->
  ?aggregate:bool ->
  Chain.t ->
  time:int ->
  miner_addr:Hash.t ->
  candidates:Tx.t list ->
  (Block.t * Tx.t list, string) result
(** Returns the sealed block and the candidate transactions that were
    skipped (each invalid against the evolving trial state). [pool]
    batch-verifies the candidates' proofs up front
    ({!Chain_state.prewarm_verifier}) and parallelises the commitment
    build; selection is identical for every domain count.

    With [aggregate] (default false), the selected certificates' proofs
    are folded into one {!Zen_snark.Aggregate} carried in the block, so
    validators verify a single proof regardless of sidechain count.
    The prover-side cost (one constant-size wrap per certificate plus
    the merge tree, fanned out on [pool]) is paid here; transaction
    selection is unchanged. If the block has no certificates or any
    leaf cannot be formed, the block ships without an aggregate —
    absence is the valid per-certificate fallback. *)

val mine_empty :
  Chain.t -> time:int -> miner_addr:Hash.t -> (Block.t, string) result
