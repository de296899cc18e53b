(** Latus unspent outputs: [(addr, amount, nonce)] (paper §5.2).

    The MST slot of a UTXO is a deterministic, state-independent
    function of its nonce ([MST_Position]); two distinct UTXOs may
    collide on a slot, which surfaces as forward-transfer failure or
    transaction invalidity exactly as §5.3.2 anticipates. *)

open Zen_crypto
open Zendoo

type t = { addr : Hash.t; amount : Amount.t; nonce : Hash.t }

val make : addr:Hash.t -> amount:Amount.t -> nonce:Hash.t -> t

val derive_nonce : source:Hash.t -> index:int -> Hash.t
(** Nonce for the [index]-th output created by the object identified by
    [source] (a transaction id or forward-transfer hash). *)

val commitment : t -> Fp.t
(** The field-element leaf value committed in the MST:
    Poseidon(addr, amount, nonce). *)

val position : mst_depth:int -> t -> int
(** [MST_Position]: slot index derived from the nonce alone. *)

val nullifier : t -> Hash.t
(** The mainchain-facing unique identifier of the coins (Defs. 4.5/4.6). *)

val equal : t -> t -> bool

val encode : t -> string
(** Fixed 72-byte serialization (addr ‖ amount ‖ nonce) — the form a
    Latus BTR/CSW carries in its proofdata. *)

val decode : string -> t option
