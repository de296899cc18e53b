(** 32-byte digests: the universal identifier type of the system.

    Block hashes, transaction ids, sidechain ids, addresses, nullifiers
    and Merkle roots are all [Hash.t] values. The underlying function is
    {!Sha256} with domain-separation tags so that hashes of different
    object kinds can never collide structurally. *)

type t

val size : int
(** 32. *)

val of_raw : string -> t
(** Wraps an existing 32-byte digest. Raises [Invalid_argument] on any
    other length. *)

val to_raw : t -> string

val zero : t
(** The all-zero digest, used as the "null" sentinel (empty Merkle slot,
    genesis parent). *)

val of_string : string -> t
(** [of_string s] hashes arbitrary bytes. *)

val tagged : string -> string list -> t
(** [tagged tag parts] hashes [tag] and [parts] with length framing, the
    domain-separated constructor used for every protocol object. The
    preimage is [len(tag) ^ tag ^ len(p1) ^ p1 ^ ...], where [len s]
    is [Printf.sprintf "%08x" (String.length s)]: eight lowercase hex
    digits below 2{^32} bytes, more from there on. The frames are fed
    to SHA-256 part by part, never concatenated, and count toward
    [crypto.sha256.bytes] like the parts. *)

val of_int : int -> t
(** Digest of an integer's decimal rendering (test helper). *)

val to_hex : t -> string
val short_hex : t -> string
(** First 8 hex characters, for logs. *)

val to_fp : t -> Fp.t
(** Projects a digest into the SNARK field (first 8 bytes, reduced). *)

val equal : t -> t -> bool
val compare : t -> t -> int

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
