(** The Merkle State Tree (paper §5.2, Fig. 9) plus the [mst_delta]
    machinery of Appendix A.

    Wraps the sparse Merkle tree with UTXO semantics: slots hold UTXO
    commitments, positions come from [MST_Position], and the tree
    remembers which slots changed since the last withdrawal-certificate
    snapshot so the delta bit vector can be emitted. The full UTXOs are
    kept alongside (the tree stores only commitments) so wallets and
    provers can open leaves. *)

open Zen_crypto

type t

val create : Params.t -> t

val depth : t -> int
val root : t -> Fp.t
val occupied : t -> int

val get : t -> int -> Utxo.t option
val find_utxo : t -> Utxo.t -> int option
(** The slot of this exact UTXO if it is currently in the tree. *)

type op = Op_insert of Utxo.t | Op_remove of Utxo.t

val apply_ops : t -> op list -> (t, string) result
(** The only way the tree changes. The ops take effect left to right,
    so ordering matters: a remove frees its slot for a later insert.
    [Op_insert u] fails with ["mst: slot collision"] when
    [MST_Position] maps [u] to an occupied slot (the collision failure
    mode of §5.3.2); [Op_remove u] fails with ["mst: utxo not present"]
    unless this exact UTXO occupies its slot. The first failing op
    decides the error, and either the whole list applies or the state
    is unchanged. The tree is rehashed in one merged
    {!Smt.update_batch} traversal, one root-path rehash per
    {e distinct} touched slot; a single-op list is the single-slot
    write. Every touched slot counts as modified for the delta. *)

val utxos_of : t -> Hash.t -> (int * Utxo.t) list

val all_utxos : t -> (int * Utxo.t) list
(** Every occupied slot, in position order. *)

val prove_slot : t -> int -> Smt.proof
(** The slot's Merkle path; a slot holding [u] opens against {!root}
    with leaf [Utxo.commitment u] ({!Smt.verify}). *)

(** {2 Delta tracking (Appendix A)} *)

val delta_bits : t -> Bytes.t
(** The [mst_delta] bit vector: bit [p] set iff slot [p] was modified
    since the snapshot. Length [2^depth / 8]. *)

val snapshot : t -> t
(** Clears the modification set — called when a withdrawal certificate
    commits the current state. *)

val delta_bit : Bytes.t -> int -> bool
(** Reads one position out of an [mst_delta] vector. *)
