(** SHA-256 (FIPS 180-4), pure OCaml.

    Used for block/transaction identifiers, proof-of-work, addresses and
    key derivation throughout the mainchain and sidechain substrates. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit

val feed_bytes : ctx -> Bytes.t -> unit
(** [feed] for a byte buffer, which may be reused once this returns. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot hash of a string; returns 32 raw bytes. *)

val digest_list : string list -> string
(** Hash of the concatenation of the inputs (without copying them into
    one buffer first). *)

val hmac : key:string -> string -> string
(** HMAC-SHA256. *)

val to_hex : string -> string
(** Hex rendering of a raw digest (or any byte string). *)
