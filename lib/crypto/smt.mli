(** Fixed-depth sparse Merkle tree over {!Fp} with Poseidon nodes.

    The backing structure of the Latus Merkle State Tree (paper Fig. 9,
    §5.2): a complete binary tree of depth [D] whose 2^D leaf slots are
    either a field element or the distinguished Null value. Empty
    subtrees are shared and their hashes precomputed per level, so a
    tree over 2^32 slots with k occupied leaves takes O(k·D) memory.

    The structure is persistent: {!update_batch}, the only write,
    returns a new tree sharing all unmodified branches with the old
    one, which is what makes sidechain state snapshots per block
    essentially free. *)

type t

val create : depth:int -> t
(** The all-empty tree. [depth] must be in [[1, 60]]. *)

val depth : t -> int

val root : t -> Fp.t
val occupied : t -> int
(** Number of non-empty leaves. *)

val get : t -> int -> Fp.t option
(** [get t pos] is the leaf at [pos], or [None] when the slot is empty.
    Raises [Invalid_argument] when out of range. *)

val update_batch : t -> (int * Fp.t option) list -> (t, string) result
(** [update_batch t [(pos, v); …]] applies k slot writes ([Some v]
    occupies, replacing any previous value; [None] empties, a no-op on
    an empty slot) in one merged traversal: every node on the union of
    the k root paths is rehashed exactly once. The result is that of
    applying the writes one at a time, left to right — duplicated
    positions resolve last-write-wins — and untouched subtrees are
    shared with [t]. For a batch of k writes over a depth-D tree this
    costs O(k·(D − log₂ k)) hashes rather than O(k·D); a single write
    rehashes its one root path. Errors on an out-of-range position,
    leaving nothing written. *)

val empty_leaf_hash : Fp.t
(** The hash placed in empty slots, H(Null) in the paper's Fig. 9. *)

type proof
(** Path of sibling hashes for one slot; proves membership of the
    current leaf value (or emptiness of the slot). *)

val prove : t -> int -> proof
val proof_siblings : proof -> Fp.t list

val verify : root:Fp.t -> pos:int -> leaf:Fp.t option -> depth:int -> proof -> bool
(** [verify ~root ~pos ~leaf ~depth proof] checks that slot [pos]
    contains [leaf] (with [None] meaning "empty") under [root]. *)

val leaf_hash : Fp.t option -> Fp.t
