(** The Merkle State Tree (paper §5.2, Fig. 9) plus the [mst_delta]
    machinery of Appendix A.

    Wraps the sparse Merkle tree with UTXO semantics: slots hold UTXO
    commitments, positions come from [MST_Position], and the tree
    remembers which slots changed since the last withdrawal-certificate
    snapshot so the delta bit vector can be emitted. The full UTXOs are
    kept alongside (the tree stores only commitments) so wallets and
    provers can open leaves. *)

open Zen_crypto
open Zendoo

type t

val create : Params.t -> t

val of_utxos : ?pool:Pool.t -> Params.t -> Utxo.t list -> (t, string) result
(** Batch constructor: equivalent to folding {!insert} over the list
    into {!create}, but built bottom-up via {!Smt.of_bindings} — with a
    [pool], the tree is hashed across domains (bit-identical result for
    every domain count). All positions count as modified, exactly as
    after individual inserts. Fails on an [MST_Position] collision. *)

val depth : t -> int
val root : t -> Fp.t
val occupied : t -> int

val get : t -> int -> Utxo.t option
val find_utxo : t -> Utxo.t -> int option
(** The slot of this exact UTXO if it is currently in the tree. *)

val insert : t -> Utxo.t -> (t * int, string) result
(** Fails when [MST_Position] maps to an occupied slot — the collision
    failure mode of §5.3.2. Returns the slot used. *)

val remove : t -> Utxo.t -> (t * int, string) result
(** Fails unless this exact UTXO occupies its slot. *)

type op = Op_insert of Utxo.t | Op_remove of Utxo.t

val apply_ops : t -> op list -> (t, string) result
(** Batched mutation: semantically identical to folding {!insert} /
    {!remove} over the ops left to right (same result, same first
    error — ordering matters, e.g. a remove frees its slot for a later
    insert), but the tree is rehashed in one merged
    {!Smt.update_batch} traversal, costing one root-path rehash per
    {e distinct} touched slot instead of one per op. Either the whole
    batch applies or the state is unchanged. *)

val balance_of : t -> Hash.t -> Amount.t
(** Total value held by an address — the stake function for leader
    election. *)

val utxos_of : t -> Hash.t -> (int * Utxo.t) list

val all_utxos : t -> (int * Utxo.t) list
(** Every occupied slot, in position order. *)

val total_value : t -> Amount.t

val prove_slot : t -> int -> Smt.proof
val verify_slot :
  root:Fp.t -> pos:int -> utxo:Utxo.t option -> depth:int -> Smt.proof -> bool

(** {2 Delta tracking (Appendix A)} *)

val modified_since_snapshot : t -> int list
(** Positions written (in either direction) since the last snapshot. *)

val delta_bits : t -> Bytes.t
(** The [mst_delta] bit vector: bit [p] set iff slot [p] was modified
    since the snapshot. Length [2^depth / 8]. *)

val snapshot : t -> t
(** Clears the modification set — called when a withdrawal certificate
    commits the current state. *)

val delta_bit : Bytes.t -> int -> bool
(** Reads one position out of an [mst_delta] vector. *)
