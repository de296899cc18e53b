(** Forward transfers: mainchain → sidechain (paper Def. 4.1, §4.1.1).

    On the mainchain an FT is an unspendable transaction output that
    destroys coins and records receiver metadata whose semantics only
    the destination sidechain understands. *)

open Zen_crypto

type t = {
  ledger_id : Hash.t;  (** destination sidechain *)
  receiver_metadata : string;
      (** opaque to the mainchain; Latus encodes
          (receiver address ‖ payback address) here *)
  amount : Amount.t;
}

val make : ledger_id:Hash.t -> receiver_metadata:string -> amount:Amount.t -> t

val hash : t -> Hash.t
val encode : t -> string
