open Zen_crypto
open Zendoo

type payment = {
  inputs : Utxo.t list;
  witnesses : (Schnorr.public_key * Schnorr.signature) list;
  outputs : Utxo.t list;
}

type backward = {
  bt_input : Utxo.t;
  bt_witness : Schnorr.public_key * Schnorr.signature;
  bt : Backward_transfer.t;
}

type t =
  | Payment of payment
  | Forward_transfers_tx of { mcid : Hash.t; fts : Forward_transfer.t list }
  | Backward_transfer_tx of backward
  | Backward_transfer_requests_tx of {
      mcid : Hash.t;
      btrs : Mainchain_withdrawal.t list;
    }

let txid = function
  | Payment { inputs; outputs; _ } ->
    Hash.tagged "latus.tx.pay"
      (List.map Utxo.encode inputs @ List.map Utxo.encode outputs)
  | Forward_transfers_tx { mcid; fts } ->
    Hash.tagged "latus.tx.ft"
      (Hash.to_raw mcid :: List.map Forward_transfer.encode fts)
  | Backward_transfer_tx { bt_input; bt; _ } ->
    Hash.tagged "latus.tx.bt"
      [ Utxo.encode bt_input; Backward_transfer.encode bt ]
  | Backward_transfer_requests_tx { mcid; btrs } ->
    Hash.tagged "latus.tx.btr"
      (Hash.to_raw mcid
      :: List.map (fun b -> Hash.to_raw (Mainchain_withdrawal.hash b)) btrs)

let payment_seed inputs =
  Hash.tagged "latus.pay.seed" (List.map Utxo.encode inputs)

let output_nonce ~seed ~index = Utxo.derive_nonce ~source:seed ~index

let payment_sighash ~inputs ~outputs =
  Hash.tagged "latus.pay.sighash"
    (List.map Utxo.encode inputs @ List.map Utxo.encode outputs)

let bt_sighash ~input ~bt =
  Hash.tagged "latus.bt.sighash"
    [ Utxo.encode input; Backward_transfer.encode bt ]

let ft_metadata ~receiver ~payback = Hash.to_raw receiver ^ Hash.to_raw payback

let parse_ft_metadata s =
  if String.length s <> 64 then None
  else
    Some (Hash.of_raw (String.sub s 0 32), Hash.of_raw (String.sub s 32 32))

type step =
  | Remove of Utxo.t
  | Insert of Utxo.t
  | Append_bt of Backward_transfer.t

(* An FT mints the receiver's coin, or bounces its amount back as a BT
   (§5.3.2) when the metadata is malformed or the coin's MST slot is
   taken. A rejected FT with unparseable metadata still needs a payback
   target; the zero address burns the coins on the mainchain side,
   which is the strictest safe interpretation. *)
let ft_steps (state : Sc_state.t) (ft : Forward_transfer.t) =
  let bounce receiver_addr =
    [ Append_bt (Backward_transfer.make ~receiver_addr ~amount:ft.amount) ]
  in
  match parse_ft_metadata ft.receiver_metadata with
  | None -> bounce Hash.zero
  | Some (receiver, payback) ->
    let nonce =
      Utxo.derive_nonce ~source:(Forward_transfer.hash ft) ~index:0
    in
    let utxo = Utxo.make ~addr:receiver ~amount:ft.amount ~nonce in
    let pos = Utxo.position ~mst_depth:(Mst.depth state.mst) utxo in
    (match Mst.get state.mst pos with
    | Some _ -> bounce payback
    | None -> [ Insert utxo ])

(* A BTR spends its coin into a BT to the MC receiver, or does nothing
   when the request names no coin of the current state. *)
let btr_steps (state : Sc_state.t) (btr : Mainchain_withdrawal.t) =
  match btr.proofdata with
  | [ Proofdata.Blob blob ] -> (
    match Utxo.decode blob with
    | Some utxo
      when Amount.equal utxo.amount btr.amount
           && Mst.find_utxo state.mst utxo <> None ->
      [
        Remove utxo;
        Append_bt
          (Backward_transfer.make ~receiver_addr:btr.receiver
             ~amount:btr.amount);
      ]
    | Some _ | None -> [])
  | _ -> []

let ( let* ) = Result.bind

let check_witness ~sighash (utxo : Utxo.t) (pk, signature) =
  if not (Hash.equal (Schnorr.pk_hash pk) utxo.addr) then
    Error "sc tx: key does not own the input"
  else if not (Schnorr.verify pk (Hash.to_raw sighash) signature) then
    Error "sc tx: invalid signature"
  else Ok ()

let validate_payment (state : Sc_state.t) (p : payment) =
  let n_in = List.length p.inputs and n_out = List.length p.outputs in
  let* () =
    if n_in >= 1 && n_in <= 2 && n_out >= 1 && n_out <= 2 then Ok ()
    else Error "payment: arity must be 1-2 inputs and 1-2 outputs"
  in
  let* () =
    if List.length p.witnesses = n_in then Ok ()
    else Error "payment: one witness per input required"
  in
  (* Distinct inputs, all present in the MST. *)
  let* () =
    match p.inputs with
    | [ a; b ] when Utxo.equal a b -> Error "payment: duplicate input"
    | _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc u ->
        let* () = acc in
        if Mst.find_utxo state.mst u = None then
          Error "payment: input not in state"
        else Ok ())
      (Ok ()) p.inputs
  in
  let sighash = payment_sighash ~inputs:p.inputs ~outputs:p.outputs in
  let* () =
    List.fold_left2
      (fun acc u w ->
        let* () = acc in
        check_witness ~sighash u w)
      (Ok ()) p.inputs p.witnesses
  in
  (* Nonce discipline binds fresh outputs to the spent inputs. *)
  let seed = payment_seed p.inputs in
  let* () =
    List.fold_left
      (fun (acc, i) (u : Utxo.t) ->
        ( (let* () = acc in
           if Hash.equal u.nonce (output_nonce ~seed ~index:i) then Ok ()
           else Error "payment: output nonce not derived from inputs"),
          i + 1 ))
      (Ok (), 0) p.outputs
    |> fst
  in
  let* value_in =
    Amount.sum (List.map (fun (u : Utxo.t) -> u.amount) p.inputs)
  in
  let* value_out =
    Amount.sum (List.map (fun (u : Utxo.t) -> u.amount) p.outputs)
  in
  if Amount.( <= ) value_out value_in then Ok ()
  else Error "payment: outputs exceed inputs"

let validate_bt (state : Sc_state.t) (b : backward) =
  let* () =
    if Mst.find_utxo state.mst b.bt_input = None then
      Error "bt: input not in state"
    else Ok ()
  in
  let* () =
    if Amount.equal b.bt.amount b.bt_input.amount then Ok ()
    else Error "bt: amount must equal the spent utxo"
  in
  check_witness
    ~sighash:(bt_sighash ~input:b.bt_input ~bt:b.bt)
    b.bt_input b.bt_witness

(* The merged commit: MST inserts/removes go through one
   [Mst.apply_ops] traversal, BT appends fold separately (they touch
   the accumulator, not the tree, so the two commute). Ordering within
   each component is preserved, which keeps the result — and the first
   error — identical to applying the steps one at a time. *)
let apply_steps ?(batched = true) (state : Sc_state.t) steps =
  if not batched then
    invalid_arg "Sc_tx.apply_steps: ~batched:false (the per-key fold) is gone";
  let mst_ops =
    List.filter_map
      (function
        | Remove u -> Some (Mst.Op_remove u)
        | Insert u -> Some (Mst.Op_insert u)
        | Append_bt _ -> None)
      steps
  in
  let* mst = Mst.apply_ops state.mst mst_ops in
  let state =
    List.fold_left
      (fun st step ->
        match step with
        | Append_bt bt -> Sc_state.append_bt st bt
        | Remove _ | Insert _ -> st)
      state steps
  in
  Ok (Sc_state.with_mst state mst)

let apply_step state step = apply_steps state [ step ]

type traced = { pre : Sc_state.t; step : step; post : Sc_state.t }

(* The one step fold: applies each step once, consing its [traced]
   record onto [out] (so [out] comes back reversed). *)
let rec trace_onto state out = function
  | [] -> Ok (state, out)
  | step :: rest ->
    let* post = apply_step state step in
    trace_onto post ({ pre = state; step; post } :: out) rest

let trace state steps =
  let* state, out = trace_onto state [] steps in
  Ok (state, List.rev out)

(* MC-defined transactions: each outcome reads the state its
   predecessors left, so the fold traces as it goes. An item whose
   steps fail is dropped whole (unreachable for an accepted FT: its
   outcome saw the slot free). *)
let trace_outcomes state items steps_of =
  List.fold_left
    (fun (st, out) item ->
      match trace_onto st out (steps_of st item) with
      | Ok traced -> traced
      | Error _ -> (st, out))
    (state, []) items

let transition state tx =
  let* state', out =
    match tx with
    | Payment p ->
      let* () = validate_payment state p in
      (* Outputs must land in free, pairwise-distinct slots once the
         inputs are removed: the MST steps themselves check that. *)
      trace_onto state []
        (List.map (fun u -> Remove u) p.inputs
        @ List.map (fun u -> Insert u) p.outputs)
    | Backward_transfer_tx b ->
      let* () = validate_bt state b in
      trace_onto state [] [ Remove b.bt_input; Append_bt b.bt ]
    | Forward_transfers_tx { fts; _ } ->
      Ok (trace_outcomes state fts ft_steps)
    | Backward_transfer_requests_tx { btrs; _ } ->
      Ok (trace_outcomes state btrs btr_steps)
  in
  Ok (state', List.rev out)

let validate state tx =
  match tx with
  | Payment _ | Backward_transfer_tx _ ->
    Result.map (fun (_ : Sc_state.t * _) -> ()) (transition state tx)
  | Forward_transfers_tx _ | Backward_transfer_requests_tx _ ->
    (* MC-defined transactions: outcomes are computed, not validated;
       consistency with the MC block is checked by Mc_ref. *)
    Ok ()

let apply state tx = Result.map fst (transition state tx)
