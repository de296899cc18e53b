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
  ?settled:string Hash.Map.t ->
  t ->
  height:int ->
  block_hash:Hash.t ->
  Tx.t ->
  (t * Amount.t, string) result
(** Validates and applies one non-coinbase transaction; returns the new
    state and the transaction fee. A transfer is checked for distinct
    inputs, then input by input for lookup, owner and signature; its
    sighash is computed at the first signature check, so a transfer
    refused before one is never hashed. Used by block validation and by the
    miner's template construction. [settled] (default empty) maps the
    certificates an enclosing block's verified aggregate covers to the
    proof bytes their leaves bound — see {!Sc_ledger.accept_cert}. *)

val apply_block :
  ?pool:Pool.t -> ?block_hash:Hash.t -> t -> Block.t -> (t, string) result
(** Full block validation: structure, linkage, every transaction, and
    the coinbase reward bound (subsidy + fees). [block_hash], when the
    caller already computed it, must be {!Block.hash} of the block;
    {!Block.validate_structure} then uses it instead of hashing the
    header again. [pool] parallelises the
    commitment rebuild and the up-front batch verification of the
    block's certificate/withdrawal proofs ({!prewarm_verifier});
    per-transaction decisions are unchanged for every domain count.

    When the block carries a certificate aggregate, validation runs
    exactly {e one} SNARK verification for all its certificates: the
    expected leaves are recomputed from this state, the merge root is
    checked against them (the count was checked with the structure),
    and the aggregate proof is verified through
    the cache; the per-certificate verifications are then skipped as
    settled, each only for the proof bytes its leaf bound. Each
    certificate, tree node and length frame is hashed once: no job key
    is built for a settled certificate, and its txid only for the tx
    root unless it pays backward transfers. Any aggregate defect —
    wrong coverage, unverifiable leaf, rejected proof — rejects the
    block (never a silent fallback).
    Accept/reject decisions are identical to the per-certificate path
    by construction. Blocks without an aggregate validate exactly as
    before. The aggregated path counts into [mc.aggregate.blocks],
    [.certs_settled], [.proof_checks] and [.rejected] (a defect found
    after the structure check; {!Zen_obs}
    counters; the CI smoke job asserts [proof_checks = blocks], i.e.
    one proof per block). *)

val prewarm_verifier : ?pool:Pool.t -> t -> Tx.t list -> unit
(** [Verifier.verify_batch] over the SNARK verifications that applying
    the transactions to this state, in a block at height
    [t.height + 1], would run, populating the verification cache so a
    subsequent sequential application never re-verifies. The jobs are
    {!Sc_ledger.wcert_job} and {!Sc_ledger.withdrawal_job}, the ones
    application runs. A certificate whose submission window is not open
    at that height gets no job: {!Sc_ledger.accept_cert} refuses it on
    the height alone, before verifying, so no order of the block's
    transactions reaches its verification. The jobs built count into
    [mc.scan.prewarm_jobs]. *)

val sc_balance : t -> Hash.t -> Amount.t option
