(** Prime field F_p with p = 2^61 − 1 (the Mersenne prime M61).

    This is the arithmetic field of the simulated SNARK: R1CS constraint
    systems, the Poseidon sponge, and every in-circuit value live here.
    Elements are canonical OCaml [int]s in [[0, p)]; the Mersenne shape
    of the modulus gives branch-light reduction with no bignums. *)

type t = private int

val p : int
(** The modulus, [2^61 - 1]. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Reduces any [int] (negative inputs map to their residue). *)

val to_int : t -> int

val of_bytes_le : string -> t
(** Folds up to the first 8 bytes (little-endian) into a field element. *)

val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val sq : t -> t
val pow : t -> int -> t
(** [pow a e] for [e >= 0]. *)

val inv : t -> t
(** Multiplicative inverse. Raises [Division_by_zero] on zero. *)

val to_string : t -> string
