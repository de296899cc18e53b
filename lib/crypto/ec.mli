(** The secp256k1 elliptic curve y² = x³ + 7 over F_p, on a dedicated
    field layer: ten 26-bit limbs per element and the
    p = 2^256 − 2^32 − 977 fold instead of generic modular arithmetic
    (after libsecp256k1's 10x26 field). {!Bignum} appears only at the
    boundary ([of_affine], [to_affine], [mul]'s scalar, [p], [n]).

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

val p : Bignum.t
(** Base field modulus. *)

val n : Bignum.t
(** Group order (prime). *)

val is_infinity : point -> bool
val equal : point -> point -> bool

val of_affine : Bignum.t -> Bignum.t -> point
(** Raises [Invalid_argument] if the coordinates are not on the curve. *)

val to_affine : point -> (Bignum.t * Bignum.t) option
(** [None] for the point at infinity. *)

val add : point -> point -> point
val double : point -> point
val neg : point -> point
val mul : Bignum.t -> point -> point
(** Scalar multiplication; the scalar is reduced mod [n]. *)

val mul_g : Bignum.t -> point
(** [mul_g k = mul k g], from the fixed-base table: 64 mixed additions
    and no doubling. *)

val sg_minus_ep_eq : s:Bignum.t -> e:Bignum.t -> point -> point -> bool
(** [sg_minus_ep_eq ~s ~e p r] is whether s·G − e·p = r; false when
    [r] is infinity. *)

val on_curve : Bignum.t -> Bignum.t -> bool

val encode : point -> string
(** 65-byte uncompressed encoding (0x04 ‖ x ‖ y); a single 0x00 byte for
    infinity. *)

val decode : string -> point option
(** Inverse of [encode]. [None] for any other input, including
    coordinates ≥ p and points off the curve; never raises. *)

val scalar_ring : Bignum.Modring.ring
(** Arithmetic mod [n], for building signature schemes on top. *)

(** The base field F_p. Elements are mutable limb arrays; each
    operation writes its first argument, which may alias an input. *)
module Field : sig
  type t

  val create : unit -> t
  (** Zero. *)

  val of_bignum : Bignum.t -> t
  (** Any value below 2^256, reduced lazily. *)

  val of_limbs : int array -> t
  (** Ten raw limbs, each within the bound every operation accepts:
      limbs 0–8 below 2^28, limb 9 below 2^22. Raises
      [Invalid_argument] otherwise. *)

  val to_bignum : t -> Bignum.t
  (** The canonical value, below [p]. *)

  val add : t -> t -> t -> unit
  val sub : t -> t -> t -> unit
  val mul : t -> t -> t -> unit
  val sq : t -> t -> unit

  val inv : t -> t -> unit
  (** Fermat inversion; the inverse of zero is zero. *)
end
