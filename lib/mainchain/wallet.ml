open Zen_crypto
open Zendoo

type key = { sk : Schnorr.secret_key; pk : Schnorr.public_key; addr : Hash.t }

(* [keys] is newest first. *)
type t = { seed : string; mutable keys : key list; mutable next : int }

let create ~seed = { seed; keys = []; next = 0 }

let fresh_address t =
  let sk, pk = Schnorr.of_seed (Printf.sprintf "%s.%d" t.seed t.next) in
  let key = { sk; pk; addr = Schnorr.pk_hash pk } in
  t.keys <- key :: t.keys;
  t.next <- t.next + 1;
  key.addr

let addresses t = List.rev_map (fun k -> k.addr) t.keys
let key_for t addr = List.find_opt (fun k -> Hash.equal k.addr addr) t.keys
let secret_for t addr = Option.map (fun k -> k.sk) (key_for t addr)

(* Change reuses the newest key to keep the wallet small. *)
let change_address t =
  match t.keys with
  | k :: _ -> k.addr
  | [] -> invalid_arg "Wallet.change_address: no key yet"

(* Coins examined by coin selection: every coin picked plus every
   immature coin skipped on the way. *)
let coins_examined = Zen_obs.Counter.make "mc.scan.wallet_coins"

(* The wallet's spendable coins in selection order, read from the
   index only as far as the caller goes. *)
let spendable_by_value t (state : Chain_state.t) =
  Seq.filter
    (fun (_, (c : Utxo_set.coin)) ->
      Zen_obs.Counter.incr coins_examined;
      state.height + 1 > c.spendable_after)
    (Utxo_set.coins_by_value state.utxos (addresses t))

let balance t state =
  Seq.fold_left
    (fun acc (_, (c : Utxo_set.coin)) ->
      match Amount.add acc c.amount with Ok v -> v | Error _ -> acc)
    Amount.zero (spendable_by_value t state)

let sign_for t ~addr ~msg =
  Option.map (fun k -> (k.pk, Schnorr.sign k.sk msg)) (key_for t addr)

let build_transfer t state ~outputs ~fee =
  let ( let* ) = Result.bind in
  let* target = Tx.transfer_value_out outputs in
  let* need = Amount.add target fee in
  (* Greedy largest-first selection, reading coins only until [need]
     is covered. *)
  let rec pick acc total coins =
    if Amount.( <= ) need total then Ok (acc, total)
    else
      match coins () with
      | Seq.Nil -> Error "wallet: insufficient funds"
      | Seq.Cons ((o, (c : Utxo_set.coin)), rest) ->
        let* total = Amount.add total c.amount in
        pick ((o, c) :: acc) total rest
  in
  let* picked, total = pick [] Amount.zero (spendable_by_value t state) in
  let* change = Amount.sub total need in
  let outputs =
    if Amount.is_zero change then outputs
    else
      outputs @ [ Tx.Coin { Tx.addr = change_address t; amount = change } ]
  in
  let outpoints = List.map fst picked in
  let sighash = Tx.sighash ~inputs:outpoints ~outputs in
  let* inputs =
    List.fold_left
      (fun acc (outpoint, (coin : Utxo_set.coin)) ->
        let* inputs = acc in
        match sign_for t ~addr:coin.addr ~msg:(Hash.to_raw sighash) with
        | None -> Error "wallet: missing key for selected coin"
        | Some (pk, signature) ->
          Ok ({ Tx.outpoint; pk; signature } :: inputs))
      (Ok []) picked
  in
  Ok (Tx.Transfer { inputs = List.rev inputs; outputs })

let build_forward_transfer t state ~ledger_id ~receiver_metadata ~amount ~fee =
  build_transfer t state
    ~outputs:
      [ Tx.Ft (Forward_transfer.make ~ledger_id ~receiver_metadata ~amount) ]
    ~fee
