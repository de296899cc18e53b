(** Coin amounts in indivisible base units ("zatoshi").

    Arithmetic is checked: amounts are non-negative 62-bit integers and
    every operation that could overflow or underflow returns a result
    type. The withdrawal safeguard (paper §4.1.2.2) depends on these
    invariants holding everywhere. *)

type t = private int

val zero : t
val max_supply : t
(** 21 million coins × 10^8 units, Bitcoin-style. *)

val of_int : int -> (t, string) result
val of_int_exn : int -> t
(** Raises [Invalid_argument] on negative or > max_supply. *)

val to_int : t -> int

val add : t -> t -> (t, string) result
(** Fails above [max_supply]. *)

val sub : t -> t -> (t, string) result
(** Fails below zero — the safeguard's primitive. *)

val sum : t list -> (t, string) result

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool

val is_zero : t -> bool

val to_fp : t -> Zen_crypto.Fp.t
(** Embedding into the SNARK field (amounts fit in 51 bits). *)

val amount_bits : int
(** Bit width used by in-circuit range checks (51). *)

val to_string : t -> string
