(** Mainchain blocks: header with transaction root and the
    SCTxsCommitment (paper §4.1.3), plus the transaction body. *)

open Zen_crypto
open Zendoo

type header = {
  prev : Hash.t;
  height : int;
  time : int;
  nonce : int;
  tx_root : Hash.t;
  sc_txs_commitment : Hash.t;
  cert_aggregate : Hash.t;
      (** {!Zen_snark.Aggregate.digest} of the block's certificate
          aggregate, or {!Hash.zero} when the block carries none — in
          the header so PoW covers it and header-only consumers agree
          on block hashes *)
}

type t = {
  header : header;
  txs : Tx.t list;
  aggregate : Zen_snark.Aggregate.t option;
      (** one recursive proof folding every certificate proof in [txs];
          when present, block validation verifies it instead of the
          per-certificate proofs *)
}

val header_hash : header -> Hash.t
val hash : t -> Hash.t

val sc_commitment_of_txs :
  ?pool:Pool.t -> Tx.t list -> (Sc_commitment.t, string) result
(** Groups the block's sidechain actions (FT outputs, BTRs, at most one
    certificate per sidechain; CSWs excluded per §4.1.3) into the
    commitment structure. [pool] parallelises the entry hashes; the
    commitment tree is built in the caller (bit-identical for every
    domain count). *)

val assemble :
  ?pool:Pool.t ->
  ?aggregate:Zen_snark.Aggregate.t ->
  prev:Hash.t ->
  height:int ->
  time:int ->
  txs:Tx.t list ->
  pow:Pow.params ->
  unit ->
  (t, string) result
(** Computes roots (including the aggregate commitment when one is
    given), mines the nonce, returns the sealed block. *)

val genesis : time:int -> t
(** The fixed genesis block (empty, zero parent). *)

val validate_structure :
  ?pool:Pool.t ->
  ?block_hash:Hash.t ->
  pow:Pow.params ->
  t ->
  (Hash.t, string) result
(** Context-free checks: PoW, tx root, commitment root, header/body
    aggregate-commitment consistency (count must match the block's
    certificates), exactly one leading coinbase, at most one
    certificate per sidechain. Returns the block's {!hash}, which the
    PoW check computes. A caller that already hashed the header passes
    that {!hash} as [block_hash], and the header is not hashed again;
    it must be [hash b]. *)
