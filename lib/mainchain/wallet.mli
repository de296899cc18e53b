(** A mainchain wallet: key management, balance scanning and
    transaction construction (transfers, forward transfers, sidechain
    creation funding). Used by the examples and the workload
    generators. *)

open Zen_crypto
open Zendoo

type t

val create : seed:string -> t
(** Deterministic wallet; [fresh_address] derives key [i] from the
    seed. *)

val fresh_address : t -> Hash.t
(** Derives the next address (mutates the key counter). *)

val addresses : t -> Hash.t list
(** Oldest first. *)

val change_address : t -> Hash.t
(** The newest address, where change goes. Raises [Invalid_argument]
    before the first {!fresh_address}. *)

val balance : t -> Chain_state.t -> Amount.t
(** Spendable balance at the chain tip (maturity respected). Reads
    every coin of the wallet's addresses. *)

val build_transfer :
  t ->
  Chain_state.t ->
  outputs:Tx.output list ->
  fee:Amount.t ->
  (Tx.t, string) result
(** Coin selection over the wallet's spendable UTXOs, adds a change
    output back to the wallet, signs every input. Selection is greedy,
    largest first: coins in amount-descending order, ties by outpoint
    key ({!Tx.outpoint_encode}) descending, until [outputs] plus [fee]
    is covered; ["wallet: insufficient funds"] when the spendable
    coins run out first. The coins come from
    {!Utxo_set.coins_by_value}, so the cost is the coins picked plus
    the immature coins skipped on the way, not what the addresses
    hold; each counts into [mc.scan.wallet_coins]. *)

val build_forward_transfer :
  t ->
  Chain_state.t ->
  ledger_id:Hash.t ->
  receiver_metadata:string ->
  amount:Amount.t ->
  fee:Amount.t ->
  (Tx.t, string) result

val sign_for : t -> addr:Hash.t -> msg:string -> (Schnorr.public_key * Schnorr.signature) option
(** Signs with the key owning [addr], if this wallet has it. *)

val secret_for : t -> Hash.t -> Schnorr.secret_key option
(** The signing key behind an address, if this wallet has it. *)
