(** Mainchain-managed withdrawals (paper §4.1.2.1): backward transfer
    requests (BTR) and ceased-sidechain withdrawals (CSW).

    The two operations share one structure (Defs. 4.5 and 4.6) — a
    receiver, an amount, a nullifier identifying the claimed coins, and
    a sidechain-defined SNARK proof — but differ in effect: a CSW pays
    out directly on the mainchain, a BTR only requests processing by
    the sidechain. *)

open Zen_crypto
open Zen_snark

type kind = Btr | Csw

type t = {
  kind : kind;
  ledger_id : Hash.t;
  receiver : Hash.t;
  amount : Amount.t;
  nullifier : Hash.t;
  proofdata : Proofdata.t;
  proof : Backend.proof;
}

val make :
  kind:kind ->
  ledger_id:Hash.t ->
  receiver:Hash.t ->
  amount:Amount.t ->
  nullifier:Hash.t ->
  proofdata:Proofdata.t ->
  proof:Backend.proof ->
  t

val hash : t -> Hash.t

val sysdata :
  reference_block:Hash.t ->
  nullifier:Hash.t ->
  receiver:Hash.t ->
  amount:Amount.t ->
  Fp.t array
(** [btr_sysdata = (H(B_w), nullifier, receiver, amount)] as the first
    four public-input elements; [reference_block] is the MC block that
    carried the sidechain's latest withdrawal certificate. *)

val public_input : t -> reference_block:Hash.t -> Fp.t array
(** sysdata ‖ MH(proofdata). *)
