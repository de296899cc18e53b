(** Certifier-committee certificate validation — the baseline design of
    the authors' previous proposal [Garoffolo & Viglione 2018, ref 12
    in the paper], which Zendoo §4.1.2 explicitly replaces.

    A committee of [m] certifiers is registered in the mainchain; a
    withdrawal certificate is valid when at least [threshold] distinct
    committee members have signed it. Mainchain verification therefore
    costs [O(threshold)] signature checks — against Zendoo's constant
    one SNARK verification — and its safety needs an honest-majority
    assumption among certifiers. Experiment E7 compares both curves. *)

open Zen_crypto
open Zendoo

type committee

val committee_of_seed : seed:string -> size:int -> committee
(** Deterministic committee with per-member Schnorr keys. *)

type endorsement

type certificate = {
  ledger_id : Hash.t;
  epoch_id : int;
  bt_list : Backward_transfer.t list;
  endorsements : endorsement list;
}

val make_certificate :
  committee ->
  signers:int list ->
  ledger_id:Hash.t ->
  epoch_id:int ->
  bt_list:Backward_transfer.t list ->
  certificate

val verify :
  committee -> threshold:int -> certificate -> (unit, string) result
(** Checks distinctness of signers, membership, and [threshold] valid
    signatures — the mainchain-side cost being measured. *)
