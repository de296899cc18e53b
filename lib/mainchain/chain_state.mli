(** The mainchain state machine: full validation and application of
    transactions and blocks.

    States are persistent values — applying a block returns a new state
    sharing structure with the old one, so every block in the tree
    keeps its post-state and reorgs are pointer switches (handled by
    {!Chain}). *)

open Zen_crypto
open Zendoo

type params = {
  pow : Pow.params;
  subsidy : Amount.t;  (** block reward *)
  coinbase_maturity : int;
}

val default_params : params

type t = {
  params : params;
  height : int;
  tip_hash : Hash.t;
  time : int;
  utxos : Utxo_set.t;
  scs : Sc_ledger.t;
  hash_by_height : Height_index.t;
      (** persistent height → block-hash index (O(log n) lookup; the
          structure is shared across branch states) *)
}

val of_genesis : params -> Block.t -> t

val block_hash_at : t -> int -> Hash.t option
(** Hash of this chain's block at the given height — O(log height),
    called once per certificate verification. *)

val apply_tx :
  ?settled:Hash.Set.t ->
  t ->
  height:int ->
  block_hash:Hash.t ->
  Tx.t ->
  (t * Amount.t, string) result
(** Validates and applies one non-coinbase transaction; returns the new
    state and the transaction fee. Used by block validation and by the
    miner's template construction. [settled] (default empty) carries
    the {!Verifier.job_key}s already discharged by an enclosing block's
    verified certificate aggregate — see {!Sc_ledger.accept_cert}. *)

val apply_block : ?pool:Pool.t -> t -> Block.t -> (t, string) result
(** Full block validation: structure, linkage, every transaction, and
    the coinbase reward bound (subsidy + fees). [pool] parallelises the
    commitment rebuild and the up-front batch verification of the
    block's certificate/withdrawal proofs ({!prewarm_verifier});
    per-transaction decisions are unchanged for every domain count.

    When the block carries a certificate aggregate, validation runs
    exactly {e one} SNARK verification for all its certificates: the
    expected leaves are recomputed from this state, coverage (count and
    merge root) is checked, and the aggregate proof is verified through
    the cache; the per-certificate verifications are then skipped as
    settled. Any aggregate defect — wrong coverage, unverifiable leaf,
    rejected proof — rejects the block (never a silent fallback).
    Accept/reject decisions are identical to the per-certificate path
    by construction. Blocks without an aggregate validate exactly as
    before. The aggregated path counts into [mc.aggregate.blocks],
    [.certs_settled], [.proof_checks] and [.rejected] ({!Zen_obs}
    counters; the CI smoke job asserts [proof_checks = blocks], i.e.
    one proof per block). *)

val prewarm_verifier : ?pool:Pool.t -> t -> Tx.t list -> unit
(** [Verifier.verify_batch] over the SNARK verifications that applying
    the transactions to this state would run, populating the
    verification cache so a subsequent sequential application never
    re-verifies. A no-op when the cache is disabled (results would be
    thrown away). *)

val sc_balance : t -> Hash.t -> Amount.t option
