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

(* The raw txid, then [vout] as [Printf "%08x"] would print it: for
   [vout] in [0, 2^32) the 8 lowercase hex digits are written straight
   into the key's buffer; outside that range (more digits, or a
   negative index) the [Printf] form is kept. Every UTXO key,
   duplicate-input check, sighash and txid goes through here. *)
let hex_digits = "0123456789abcdef"

let outpoint_encode o =
  let raw = Hash.to_raw o.txid in
  let v = o.vout in
  if v < 0 || v >= 0x1_0000_0000 then raw ^ Printf.sprintf "%08x" v
  else begin
    let n = String.length raw in
    let b = Bytes.create (n + 8) in
    Bytes.blit_string raw 0 b 0 n;
    for i = 0 to 7 do
      Bytes.unsafe_set b (n + i) hex_digits.[(v lsr (28 - (4 * i))) land 15]
    done;
    Bytes.unsafe_to_string b
  end

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
