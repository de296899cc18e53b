(** Binary wire-format primitives.

    A small, explicit serialization kit used by every codec in the
    repository: length-prefixed byte strings, little-endian fixed
    integers, lists and options with count prefixes. Readers consume a
    cursor and fail with a descriptive error instead of raising, so a
    malformed network message can never crash a node. *)

(** {2 Writing} *)

type writer

val writer : unit -> writer
val contents : writer -> string

val u8 : writer -> int -> unit
(** Raises [Invalid_argument] outside [0, 255]. *)

val u32 : writer -> int -> unit
(** Little-endian, 4 bytes; raises outside [0, 2^32). *)

val u63 : writer -> int -> unit
(** Little-endian, 8 bytes, non-negative OCaml int. *)

val bool : writer -> bool -> unit
val fixed : writer -> string -> unit
(** Raw bytes, no length prefix (caller knows the size). *)

val varbytes : writer -> string -> unit
(** u32 length prefix + bytes. *)

val hash : writer -> Hash.t -> unit
val fp : writer -> Fp.t -> unit

val list : writer -> ('a -> unit) -> 'a list -> unit
(** u32 count prefix, then each element through the callback. *)

val option : writer -> ('a -> unit) -> 'a option -> unit

(** {2 Reading} *)

type reader

val reader : string -> reader
val remaining : reader -> int

val read_u8 : reader -> (int, string) result
val read_u32 : reader -> (int, string) result
val read_u63 : reader -> (int, string) result
val read_bool : reader -> (bool, string) result
val read_fixed : reader -> int -> (string, string) result
val read_varbytes : ?max:int -> reader -> (string, string) result
(** Rejects a claimed length above [max] (default 2^24) or above the
    bytes actually remaining — before allocating anything. *)

val read_hash : reader -> (Hash.t, string) result
val read_fp : reader -> (Fp.t, string) result

val read_list :
  ?max:int ->
  ?min_elem_size:int ->
  reader ->
  (reader -> ('a, string) result) ->
  ('a list, string) result
(** Rejects a claimed count above [max] (default 2^20), or one whose
    minimum encoded size — [count * min_elem_size] bytes (default 1
    byte per element) — exceeds the remaining input, so a tiny crafted
    message cannot drive the element loop on a huge count. Pass a
    larger [min_elem_size] when every element has a known fixed floor;
    [0] disables the bound (only for elements that can be empty). *)

val read_option :
  reader -> (reader -> ('a, string) result) -> ('a option, string) result

val expect_end : reader -> (unit, string) result
(** Fails when trailing bytes remain — every top-level decoder should
    finish with this. *)

(** {2 Framing} *)

val encode : (writer -> 'a -> unit) -> 'a -> string
(** Writes one value into a fresh writer and returns its bytes. *)

val decode : (reader -> ('a, string) result) -> string -> ('a, string) result
(** Reads one value from the whole string, then {!expect_end}: trailing
    bytes are an error. *)

val ( let* ) : ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result
