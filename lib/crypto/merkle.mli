(** Merkle hash trees with membership proofs (paper Fig. 2, Def. 2.2).

    Built over {!Hash.t} leaves; the leaf layer is padded with
    {!Hash.zero} to the next power of two. Interior nodes are
    [Hash.tagged "mht.node" [left; right]], leaves are hashed with a
    distinct tag so a leaf can never be confused with an interior node
    (second-preimage hardening). *)

type t

type proof
(** A membership ("Merkle") proof: the sibling path from a leaf to the
    root. Size and verification time are O(log n) in the leaf count —
    experiment E1 measures exactly this. *)

val of_leaves : ?pool:Pool.t -> Hash.t list -> t
(** Builds a tree over data-block hashes. The empty list yields a
    well-defined sentinel tree whose root commits to emptiness.
    [pool] parallelizes each level of the build across domains
    (default {!Pool.sequential}); the resulting tree is bit-identical
    for every domain count. *)

val of_data : ?pool:Pool.t -> string list -> t
(** Convenience: hashes each data block first. *)

val root : t -> Hash.t
val depth : t -> int

val prove : t -> int -> proof
(** [prove t i] is the membership proof for the [i]-th leaf.
    Raises [Invalid_argument] when out of range. *)

val verify : root:Hash.t -> leaf:Hash.t -> proof -> bool
(** Recomputes the root from the leaf and the sibling path. *)

val proof_index : proof -> int
val proof_length : proof -> int
val proof_size_bytes : proof -> int

val proof_to_siblings : proof -> Hash.t list
val proof_of_siblings : index:int -> Hash.t list -> proof

val leaf_hash : Hash.t -> Hash.t
(** The tagged hash applied to each leaf before tree construction. *)
