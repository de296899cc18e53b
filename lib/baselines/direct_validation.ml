open Zen_latus

let replay_epoch ~params:_ ~initial ~txs =
  List.fold_left
    (fun acc tx -> Result.bind acc (fun st -> Sc_tx.apply st tx))
    (Ok initial) txs

(* Exact wire sizes: what the MC would actually have to download. *)
let epoch_data_bytes ~txs =
  List.fold_left
    (fun a tx -> a + String.length (Sc_wire.encode_tx tx))
    0 txs
