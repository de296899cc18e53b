open Zen_crypto

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type t = {
  params : Params.t;
  tree : Smt.t;
  utxos : Utxo.t Int_map.t; (* openings of occupied slots *)
  modified : Int_set.t; (* slots written since the last snapshot *)
}

let create params =
  {
    params;
    tree = Smt.create ~depth:params.mst_depth;
    utxos = Int_map.empty;
    modified = Int_set.empty;
  }

let depth t = t.params.mst_depth
let root t = Smt.root t.tree
let occupied t = Smt.occupied t.tree
let get t pos = Int_map.find_opt pos t.utxos

let find_utxo t utxo =
  let pos = Utxo.position ~mst_depth:t.params.mst_depth utxo in
  match get t pos with
  | Some u when Utxo.equal u utxo -> Some pos
  | Some _ | None -> None

type op = Op_insert of Utxo.t | Op_remove of Utxo.t

(* The only write: the opening map and modification set evolve op by
   op (so a remove frees its slot for a later insert, and the first
   failing op decides the error), but the tree itself is committed in
   one merged [Smt.update_batch] traversal at the end. *)
let apply_ops t ops =
  let staged =
    List.fold_left
      (fun acc op ->
        match acc with
        | Error _ -> acc
        | Ok (utxos, modified, writes) -> (
          match op with
          | Op_insert u ->
            let pos = Utxo.position ~mst_depth:t.params.mst_depth u in
            if Int_map.mem pos utxos then Error "mst: slot collision"
            else
              Ok
                ( Int_map.add pos u utxos,
                  Int_set.add pos modified,
                  (pos, Some (Utxo.commitment u)) :: writes )
          | Op_remove u -> (
            let pos = Utxo.position ~mst_depth:t.params.mst_depth u in
            match Int_map.find_opt pos utxos with
            | Some u' when Utxo.equal u' u ->
              Ok
                ( Int_map.remove pos utxos,
                  Int_set.add pos modified,
                  (pos, None) :: writes )
            | Some _ | None -> Error "mst: utxo not present")))
      (Ok (t.utxos, t.modified, []))
      ops
  in
  match staged with
  | Error e -> Error e
  | Ok (utxos, modified, writes_rev) -> (
    match Smt.update_batch t.tree (List.rev writes_rev) with
    | Error e -> Error ("mst: " ^ e)
    | Ok tree -> Ok { t with tree; utxos; modified })

let utxos_of t addr =
  Int_map.fold
    (fun pos (u : Utxo.t) acc ->
      if Hash.equal u.addr addr then (pos, u) :: acc else acc)
    t.utxos []

let all_utxos t = Int_map.bindings t.utxos

let prove_slot t pos = Smt.prove t.tree pos

let delta_bits t =
  let nbytes = max 1 ((1 lsl t.params.mst_depth) / 8) in
  let b = Bytes.make nbytes '\000' in
  Int_set.iter
    (fun pos ->
      let byte = pos / 8 and bit = pos mod 8 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit))))
    t.modified;
  b

let snapshot t = { t with modified = Int_set.empty }

let delta_bit bits pos =
  let byte = pos / 8 and bit = pos mod 8 in
  byte < Bytes.length bits
  && Char.code (Bytes.get bits byte) land (1 lsl bit) <> 0
