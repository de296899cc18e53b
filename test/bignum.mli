(** Arbitrary-precision natural numbers.

    Little-endian limb representation in base [2^26]; every value is
    normalized (no trailing zero limbs). All numbers are non-negative;
    [sub a b] raises [Invalid_argument] when [a < b].

    This module is the arithmetic substrate of the reference curve and
    Schnorr scheme in [Ec_oracle], which the production [Ec] and
    [Schnorr] are tested against; see {!Bignum.Modring} for modular
    arithmetic with Barrett reduction. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument]
    on negative input. *)

val to_int : t -> int
(** Raises [Invalid_argument] if the value does not fit in an [int]. *)

val of_hex : string -> t
(** Parses a big-endian hexadecimal string (case-insensitive, optional
    embedded spaces). Raises [Invalid_argument] on other characters. *)

val to_hex : t -> string
(** Big-endian lowercase hexadecimal, no leading zeros ("0" for zero). *)

val of_bytes_be : string -> t
(** Interprets a byte string as a big-endian natural. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian bytes, left-padded with zeros to [len] when given.
    Raises [Invalid_argument] if the value needs more than [len] bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val bit : t -> int -> bool
(** [bit x i] is the [i]-th bit (little-endian). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. *)

val rem : t -> t -> t

val gcd : t -> t -> t

val pp : Format.formatter -> t -> unit

(** Modular arithmetic in the ring Z/mZ with precomputed Barrett
    reduction. Elements are plain {!t} values in [[0, m)]. *)
module Modring : sig
  type ring

  val create : t -> ring
  (** Raises [Invalid_argument] if the modulus is zero or one. *)

  val modulus : ring -> t
  val reduce : ring -> t -> t
  val add : ring -> t -> t -> t
  val sub : ring -> t -> t -> t
  val mul : ring -> t -> t -> t
  val sq : ring -> t -> t
  val pow : ring -> t -> t -> t

  val inv_prime : ring -> t -> t
  (** Multiplicative inverse assuming the modulus is prime (Fermat).
      Raises [Division_by_zero] on zero. *)

  val sqrt_3mod4 : ring -> t -> t option
  (** Square root assuming modulus [m ≡ 3 (mod 4)]; [None] if the
      argument is a non-residue. *)
end
