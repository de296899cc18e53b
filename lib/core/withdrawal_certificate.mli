(** Withdrawal certificates (paper Def. 4.4): the sidechain heartbeat
    and backward-transfer carrier.

    The mainchain-enforced part of the SNARK public input,
    [wcert_sysdata = (quality, MH(BTList), H(B_prev_last), H(B_last))],
    is assembled here so the verifying and proving sides can never
    disagree on its encoding. *)

open Zen_crypto
open Zen_snark

type t = private {
  ledger_id : Hash.t;
  epoch_id : int;
  quality : int;
  bt_list : Backward_transfer.t list;
  proofdata : Proofdata.t;
  proof : Backend.proof;
  id : Hash.t;  (** {!hash}, computed by {!make}. *)
}
(** Private: fields are readable everywhere, but only {!make} builds a
    certificate, so [id] always agrees with the other fields. That is
    what makes {!hash} safe as a cache key — a record whose [id] came
    from another certificate would share that certificate's verifier
    cache entry. *)

val make :
  ledger_id:Hash.t ->
  epoch_id:int ->
  quality:int ->
  bt_list:Backward_transfer.t list ->
  proofdata:Proofdata.t ->
  proof:Backend.proof ->
  t

val hash : t -> Hash.t
(** Certificate identifier (excluding the proof bytes, which are
    recomputable from the statement in this backend): the [cctp.wcert]
    digest of the ledger id, epoch, quality, BT-list root and proofdata
    encoding. Computed once by {!make}; this is a field read. *)

val total_withdrawn : t -> (Amount.t, string) result
(** Sum of the certificate's backward transfers — what the safeguard
    subtracts from the sidechain balance. *)

val sysdata :
  quality:int ->
  bt_root:Hash.t ->
  end_prev_epoch:Hash.t ->
  end_epoch:Hash.t ->
  Fp.t array
(** [wcert_sysdata] as the first four public-input field elements. *)

val public_input :
  t -> end_prev_epoch:Hash.t -> end_epoch:Hash.t -> Fp.t array
(** The full 5-element public input: sysdata ‖ MH(proofdata). *)
