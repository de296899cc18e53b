open Zen_crypto
open Zendoo
module Wallet = Zen_mainchain.Wallet

(* The mainchain wallet's key ring under its own seed space: key [i] of
   seed [s] derives from [latus.s.i]. *)
type t = Wallet.t

let create ~seed = Wallet.create ~seed:("latus." ^ seed)
let fresh_address = Wallet.fresh_address
let addresses = Wallet.addresses
let secret_for = Wallet.secret_for

(* Newest key first, so equal amounts keep that order through the
   stable sort. *)
let utxos t (state : Sc_state.t) =
  List.concat_map
    (fun addr -> List.map snd (Mst.utxos_of state.mst addr))
    (List.rev (addresses t))
  |> List.sort (fun (a : Utxo.t) (b : Utxo.t) ->
         Amount.compare b.amount a.amount)

let balance t state =
  List.fold_left
    (fun acc (u : Utxo.t) ->
      match Amount.add acc u.amount with Ok v -> v | Error _ -> acc)
    Amount.zero (utxos t state)

let ( let* ) = Result.bind

(* Pick at most two coins covering the target (largest-first greedy). *)
let select_inputs t state amount =
  match utxos t state with
  | [] -> Error "sc wallet: no funds"
  | first :: _ when Amount.( <= ) amount first.Utxo.amount -> Ok [ first ]
  | first :: rest -> (
    let* missing = Amount.sub amount first.amount in
    match
      List.find_opt (fun (u : Utxo.t) -> Amount.( <= ) missing u.amount) rest
    with
    | Some second -> Ok [ first; second ]
    | None -> Error "sc wallet: amount not coverable by two inputs")

let build_payment t (state : Sc_state.t) ~to_ ~amount =
  let* inputs = select_inputs t state amount in
  let* total =
    Amount.sum (List.map (fun (u : Utxo.t) -> u.amount) inputs)
  in
  let* change = Amount.sub total amount in
  let seed = Sc_tx.payment_seed inputs in
  let out0 =
    Utxo.make ~addr:to_ ~amount ~nonce:(Sc_tx.output_nonce ~seed ~index:0)
  in
  let outputs =
    if Amount.is_zero change then [ out0 ]
    else
      [
        out0;
        Utxo.make ~addr:(Wallet.change_address t) ~amount:change
          ~nonce:(Sc_tx.output_nonce ~seed ~index:1);
      ]
  in
  (* Output nonces, hence MST slots, derive from the inputs alone: a
     payment whose outputs share a slot, or land on one the inputs do
     not free, would be refused, so it is not signed. *)
  let slot = Utxo.position ~mst_depth:(Mst.depth state.mst) in
  let freed = List.map slot inputs in
  let* () =
    match List.map slot outputs with
    | [ a; b ] when a = b -> Error "sc wallet: outputs share an MST slot"
    | slots ->
      if
        List.exists
          (fun pos -> Mst.get state.mst pos <> None && not (List.mem pos freed))
          slots
      then Error "sc wallet: output lands on an occupied MST slot"
      else Ok ()
  in
  let sighash = Sc_tx.payment_sighash ~inputs ~outputs in
  let* witnesses =
    List.fold_left
      (fun acc (u : Utxo.t) ->
        let* ws = acc in
        match Wallet.sign_for t ~addr:u.addr ~msg:(Hash.to_raw sighash) with
        | None -> Error "sc wallet: missing key"
        | Some w -> Ok (ws @ [ w ]))
      (Ok []) inputs
  in
  Ok (Sc_tx.Payment { inputs; witnesses; outputs })

let build_backward_transfer t (_state : Sc_state.t) ~utxo ~mc_receiver =
  let bt =
    Backward_transfer.make ~receiver_addr:mc_receiver
      ~amount:utxo.Utxo.amount
  in
  let sighash = Sc_tx.bt_sighash ~input:utxo ~bt in
  match Wallet.sign_for t ~addr:utxo.Utxo.addr ~msg:(Hash.to_raw sighash) with
  | None -> Error "sc wallet: not our utxo"
  | Some w ->
    Ok (Sc_tx.Backward_transfer_tx { bt_input = utxo; bt_witness = w; bt })
