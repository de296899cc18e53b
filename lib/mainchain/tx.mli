(** Mainchain transactions.

    A UTXO model in the style of Bitcoin (paper Def. 3.1), extended
    with the four sidechain actions of §4.1.3: forward transfers ride
    as unspendable outputs of regular transfers; sidechain creation,
    withdrawal certificates, backward transfer requests and ceased
    sidechain withdrawals are dedicated transaction kinds. *)

open Zen_crypto
open Zendoo

type outpoint = { txid : Hash.t; vout : int }

type coin_output = { addr : Hash.t; amount : Amount.t }

type output =
  | Coin of coin_output
  | Ft of Forward_transfer.t
      (** unspendable: destroys coins on this chain (§4.1.1) *)

type input = {
  outpoint : outpoint;
  pk : Schnorr.public_key;  (** must hash to the spent output's address *)
  signature : Schnorr.signature;
}

type t =
  | Coinbase of { height : int; reward : coin_output }
  | Transfer of { inputs : input list; outputs : output list }
  | Sc_create of Sidechain_config.t
  | Certificate of Withdrawal_certificate.t
  | Withdrawal_request of Mainchain_withdrawal.t
      (** BTR or CSW, distinguished by its [kind] *)

val txid : t -> Hash.t

val sighash : inputs:outpoint list -> outputs:output list -> Hash.t
(** The message a transfer's signatures commit to: all outpoints and
    all outputs (so neither can be altered after signing). *)

val transfer_value_out : output list -> (Amount.t, string) result
(** Total of coin outputs plus forward transfers. *)

val forward_transfers : t -> Forward_transfer.t list

val outpoint_encode : outpoint -> string
