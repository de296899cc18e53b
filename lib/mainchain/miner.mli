(** Block-template construction and mining.

    Selects mempool transactions greedily against a trial state (so a
    template never contains an invalid or conflicting transaction),
    pays subsidy + fees to the miner address, folds the block's
    certificate proofs into one aggregate, and seals the block with
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
    build and the aggregate; selection is identical for every domain
    count. Every candidate is trial-applied, so the cost grows with the
    candidate list; [mc.scan.candidates] counts them.

    A block with at least one certificate carries one
    {!Zen_snark.Aggregate} of all their proofs, so validators verify a
    single proof per block; a block without certificates carries none.
    If a leaf cannot be formed or the build fails, the block ships
    without an aggregate, the valid per-certificate fallback.

    [aggregate] is a leftover label for the benchmark in [perfbench/]:
    [true] does nothing, [false] raises [Invalid_argument] (ROADMAP
    item 1). *)

val mine_empty :
  Chain.t -> time:int -> miner_addr:Hash.t -> (Block.t, string) result
