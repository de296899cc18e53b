(** Persistent height → block-hash index.

    Chain states are persistent values sharing structure across
    branches, so the index must support O(log n) functional append and
    lookup — an array would cost O(n) copy per block, and the list the
    seed used made every lookup O(height) (paid once per certificate
    verification). *)

open Zen_crypto

type t

val empty : t

val append : t -> Hash.t -> t
(** Records the hash of the block at the next height (0 for {!empty}). *)

val get : t -> int -> Hash.t option
(** The hash recorded for the given height; [None] out of range. *)
