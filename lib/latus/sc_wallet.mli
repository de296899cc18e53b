(** Sidechain wallet: UTXO scanning over the MST, and construction of
    payment / backward-transfer transactions with the nonce discipline
    {!Sc_tx.validate} expects. The keys are a {!Zen_mainchain.Wallet}
    key ring whose seed is prefixed with ["latus."]. *)

open Zen_crypto
open Zendoo

type t

val create : seed:string -> t
val fresh_address : t -> Hash.t
val addresses : t -> Hash.t list

val balance : t -> Sc_state.t -> Amount.t

val utxos : t -> Sc_state.t -> Utxo.t list
(** This wallet's UTXOs, largest first. *)

val build_payment :
  t ->
  Sc_state.t ->
  to_:Hash.t ->
  amount:Amount.t ->
  (Sc_tx.t, string) result
(** Selects one or two inputs covering [amount], pays change back to
    the wallet. Fails when no 1–2-input combination covers the amount
    (chain several payments in that case), and when the outputs would
    share an MST slot or land on an occupied slot the inputs do not
    free: output slots derive from the inputs alone, so {!Sc_tx.validate}
    would refuse such a payment. *)

val build_backward_transfer :
  t ->
  Sc_state.t ->
  utxo:Utxo.t ->
  mc_receiver:Hash.t ->
  (Sc_tx.t, string) result
(** Spends exactly [utxo] into a BT for the mainchain (§5.3.3). *)

val secret_for : t -> Hash.t -> Schnorr.secret_key option
(** The signing key behind an address — used by the forger to seal
    blocks it leads. *)
