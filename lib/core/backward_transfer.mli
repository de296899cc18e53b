(** Backward transfers: sidechain → mainchain (paper Def. 4.3).

    A BT names a mainchain receiver address and an amount; it only
    takes effect when carried to the mainchain inside a withdrawal
    certificate whose SNARK proof vouches for it. *)

open Zen_crypto

type t = { receiver_addr : Hash.t; amount : Amount.t }

val make : receiver_addr:Hash.t -> amount:Amount.t -> t

val encode : t -> string

val list_root : t list -> Hash.t
(** [MH(BTList)] — the Merkle root the mainchain enforces as part of
    [wcert_sysdata] (paper §4.1.2). *)

val list_root_fp : t list -> Zen_crypto.Fp.t
(** {!list_root} as a field element, the form a certificate proof that
    binds its BT list would take; nothing proves that binding yet. *)

val to_fp_pair : t -> Fp.t * Fp.t
(** (receiver, amount) as field elements, for in-circuit accumulation. *)
