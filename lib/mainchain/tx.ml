open Zen_crypto
open Zendoo

type outpoint = { txid : Hash.t; vout : int }
type coin_output = { addr : Hash.t; amount : Amount.t }

type output = Coin of coin_output | Ft of Forward_transfer.t

type input = {
  outpoint : outpoint;
  pk : Schnorr.public_key;
  signature : Schnorr.signature;
}

type t =
  | Coinbase of { height : int; reward : coin_output }
  | Transfer of { inputs : input list; outputs : output list }
  | Sc_create of Sidechain_config.t
  | Certificate of Withdrawal_certificate.t
  | Withdrawal_request of Mainchain_withdrawal.t

let outpoint_encode o = Hash.to_raw o.txid ^ Printf.sprintf "%08x" o.vout

let coin_output_encode (c : coin_output) =
  Hash.to_raw c.addr ^ string_of_int (Amount.to_int c.amount)

let output_encode = function
  | Coin c -> "C" ^ coin_output_encode c
  | Ft ft -> "F" ^ Forward_transfer.encode ft

let txid = function
  | Coinbase { height; reward } ->
    Hash.tagged "mc.tx.coinbase"
      [ string_of_int height; coin_output_encode reward ]
  | Transfer { inputs; outputs } ->
    Hash.tagged "mc.tx.transfer"
      (List.map (fun i -> outpoint_encode i.outpoint ^ Schnorr.pk_encode i.pk)
         inputs
      @ List.map output_encode outputs)
  | Sc_create config ->
    Hash.tagged "mc.tx.sc_create" [ Hash.to_raw (Sidechain_config.hash config) ]
  | Certificate cert ->
    Hash.tagged "mc.tx.cert" [ Hash.to_raw (Withdrawal_certificate.hash cert) ]
  | Withdrawal_request w ->
    Hash.tagged "mc.tx.withdrawal" [ Hash.to_raw (Mainchain_withdrawal.hash w) ]

let sighash ~inputs ~outputs =
  Hash.tagged "mc.sighash"
    (List.map outpoint_encode inputs @ List.map output_encode outputs)

let transfer_value_out outputs =
  Amount.sum
    (List.map
       (function Coin c -> c.amount | Ft (ft : Forward_transfer.t) -> ft.amount)
       outputs)

let forward_transfers = function
  | Transfer { outputs; _ } ->
    List.filter_map (function Ft ft -> Some ft | Coin _ -> None) outputs
  | Coinbase _ | Sc_create _ | Certificate _ | Withdrawal_request _ -> []
