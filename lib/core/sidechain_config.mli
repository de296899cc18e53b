(** Sidechain registration parameters (paper §4.2 "Bootstrapping
    Sidechains").

    Fixed at creation and immutable for the sidechain's lifetime; in
    particular the verification-key triplet defines forever how the
    mainchain authenticates the sidechain's backward communication. *)

open Zen_crypto
open Zen_snark

type t = {
  ledger_id : Hash.t;
  start_block : int;  (** MC height where withdrawal epoch 0 begins *)
  epoch_len : int;  (** withdrawal-epoch length, in MC blocks *)
  submit_len : int;
      (** certificate submission window at the start of the next epoch *)
  wcert_vk : Backend.verification_key;
  btr_vk : Backend.verification_key option;
      (** [None] disables mainchain-managed backward-transfer requests *)
  csw_vk : Backend.verification_key option;
      (** [None] disables ceased-sidechain withdrawals *)
  wcert_proofdata : Proofdata.schema;
  btr_proofdata : Proofdata.schema;
  csw_proofdata : Proofdata.schema;
}

val make :
  ledger_id:Hash.t ->
  start_block:int ->
  epoch_len:int ->
  submit_len:int ->
  wcert_vk:Backend.verification_key ->
  ?btr_vk:Backend.verification_key ->
  ?csw_vk:Backend.verification_key ->
  ?wcert_proofdata:Proofdata.schema ->
  ?btr_proofdata:Proofdata.schema ->
  ?csw_proofdata:Proofdata.schema ->
  unit ->
  (t, string) result
(** Validates the schedule with {!check_schedule} and that each
    verification key expects the unified 5-element public input (see
    {!Verifier}). *)

val check_schedule :
  start_block:int -> epoch_len:int -> submit_len:int -> (unit, string) result
(** The withdrawal-epoch bounds every registered sidechain satisfies:
    [epoch_len >= 2], [submit_len >= 1] and [start_block >= 0], checked
    in that order. [submit_len] may exceed [epoch_len] (consecutive
    submission windows then overlap). *)

val hash : t -> Hash.t

val derive_ledger_id : creator:Hash.t -> nonce:int -> Hash.t
(** The conventional id derivation for a creation transaction. *)
