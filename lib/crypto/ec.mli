(** The secp256k1 elliptic curve y² = x³ + 7 over F_p, on a dedicated
    field layer: ten 26-bit limbs per element and the
    p = 2^256 − 2^32 − 977 fold instead of generic modular arithmetic
    (after libsecp256k1's 10x26 field). Scalars mod the group order n
    are {!Scalar}s, fixed-width and always reduced; points cross the
    boundary only as bytes ([encode], [decode]).

    Points are affine with canonical coordinates, so encoding and
    comparison need no inversion. Scalar multiplication runs in Jacobian
    coordinates and inverts once at the end; [mul_g] adds from a table
    of affine multiples of G built on first use, and [sg_minus_ep_eq]
    checks a Schnorr equation with shared doublings and no inversion.

    Nothing here is constant-time: timing depends on secret scalars.
    This code serves a simulation, and side channels are out of scope. *)

type point
(** A point on the curve, including the point at infinity. *)

val infinity : point
val g : point
(** The standard generator. *)

val is_infinity : point -> bool
val equal : point -> point -> bool

(** Scalars mod the group order n (prime), held as their 32 big-endian
    bytes and always below n. *)
module Scalar : sig
  type t

  val reduce : string -> t
  (** 32 big-endian bytes, reduced mod n. Raises [Invalid_argument] for
      any other length. *)

  val of_bytes : string -> t option
  (** Canonical decoding: [None] unless 32 bytes below n. *)

  val to_bytes : t -> string
  (** 32 big-endian bytes. *)

  val is_zero : t -> bool
  val add : t -> t -> t
  val mul : t -> t -> t
end

val add : point -> point -> point
val double : point -> point
val neg : point -> point
val mul : Scalar.t -> point -> point

val mul_g : Scalar.t -> point
(** [mul_g k = mul k g], from the fixed-base table: 64 mixed additions
    and no doubling. *)

val sg_minus_ep_eq : s:Scalar.t -> e:Scalar.t -> point -> point -> bool
(** [sg_minus_ep_eq ~s ~e p r] is whether s·G − e·p = r; false when
    [r] is infinity. *)

val encode : point -> string
(** 65-byte uncompressed encoding (0x04 ‖ x ‖ y); a single 0x00 byte for
    infinity. *)

val decode : string -> point option
(** Inverse of [encode]. [None] for any other input, including
    coordinates ≥ p and points off the curve; never raises. *)

(** The base field F_p. Elements are mutable limb arrays; each
    operation writes its first argument, which may alias an input. *)
module Field : sig
  type t

  val create : unit -> t
  (** Zero. *)

  val of_bytes : string -> t
  (** 32 big-endian bytes: any value below 2^256, reduced lazily. *)

  val of_limbs : int array -> t
  (** Ten raw limbs, each within the bound every operation accepts:
      limbs 0–8 below 2^28, limb 9 below 2^22. Raises
      [Invalid_argument] otherwise. A test hook: the field tests feed
      the operations non-canonical inputs at that bound, which
      {!of_bytes} cannot build. *)

  val to_bytes : t -> string
  (** The canonical value, below p, as 32 big-endian bytes. *)

  val add : t -> t -> t -> unit
  val sub : t -> t -> t -> unit
  val mul : t -> t -> t -> unit
  val sq : t -> t -> unit

  val inv : t -> t -> unit
  (** Fermat inversion; the inverse of zero is zero. *)
end
