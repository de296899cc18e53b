let max_depth = 60

type node =
  | Empty (* a fully-empty subtree; hash comes from the per-level table *)
  | Leaf of Fp.t
  | Node of { h : Fp.t; l : node; r : node }

type t = { depth : int; tree : node; occupied : int }

let leaf_hash = function
  | None -> Poseidon.hash2 Fp.zero Fp.zero
  | Some v -> Poseidon.hash2 v Fp.one

let empty_leaf_hash = leaf_hash None

(* empties.(h) = hash of a fully-empty subtree of height h. *)
let empties =
  let a = Array.make (max_depth + 1) empty_leaf_hash in
  for h = 1 to max_depth do
    a.(h) <- Poseidon.hash2 a.(h - 1) a.(h - 1)
  done;
  a

let node_hash_at height = function
  | Empty -> empties.(height)
  | Leaf v -> leaf_hash (Some v)
  | Node { h; _ } -> h

let create ~depth =
  if depth < 1 || depth > max_depth then invalid_arg "Smt.create: depth";
  { depth; tree = Empty; occupied = 0 }

let depth t = t.depth
let capacity t = 1 lsl t.depth
let root t = node_hash_at t.depth t.tree
let occupied t = t.occupied

let check_pos t pos =
  if pos < 0 || pos >= capacity t then invalid_arg "Smt: position out of range"

let get t pos =
  check_pos t pos;
  let rec go node h =
    match node with
    | Empty -> None
    | Leaf v -> Some v
    | Node { l; r; _ } ->
      if (pos lsr (h - 1)) land 1 = 0 then go l (h - 1) else go r (h - 1)
  in
  go t.tree t.depth

module Im = Map.Make (Int)

(* ---- Writes ----

   The only way a tree changes. One merged traversal for k updates: the batch is grouped by subtree
   at every level, so a node on the path to several updated slots is
   rehashed once instead of once per slot. Untouched subtrees are
   shared with the input tree. *)

let update_batch t updates =
  match updates with
  | [] -> Ok t
  | _ ->
    let cap = capacity t in
    if List.exists (fun (p, _) -> p < 0 || p >= cap) updates then
      Error "smt: position out of range"
    else begin
      Zen_obs.Trace.with_span ~cat:"crypto"
        ~args:[ ("updates", string_of_int (List.length updates)) ]
        "smt.update_batch"
      @@ fun () ->
      (* Last write wins per position, as if the writes were applied
         one at a time, left to right. *)
      let final =
        List.fold_left (fun m (p, v) -> Im.add p v m) Im.empty updates
      in
      let sorted = Im.bindings final in
      (* [go node h base ups] rebuilds the height-[h] subtree rooted at
         leaf range [base, base + 2^h) under the updates [ups] (sorted,
         all within range), returning the new subtree and the change in
         occupied-leaf count. *)
      let rec go node h base ups =
        match ups with
        | [] -> (node, 0)
        | _ ->
          if h = 0 then begin
            let was = match node with Leaf _ -> 1 | _ -> 0 in
            match ups with
            | [ (_, Some v) ] -> (Leaf v, 1 - was)
            | [ (_, None) ] -> (Empty, -was)
            | _ -> assert false (* positions are deduplicated above *)
          end
          else begin
            let l, r =
              match node with
              | Empty -> (Empty, Empty)
              | Node { l; r; _ } -> (l, r)
              | Leaf _ -> assert false (* leaves only live at height 0 *)
            in
            let mid = base + (1 lsl (h - 1)) in
            let l_ups, r_ups = List.partition (fun (p, _) -> p < mid) ups in
            let l, dl = go l (h - 1) base l_ups in
            let r, dr = go r (h - 1) mid r_ups in
            let node =
              match (l, r) with
              | Empty, Empty -> Empty
              | _ ->
                let hl = node_hash_at (h - 1) l
                and hr = node_hash_at (h - 1) r in
                Node { h = Poseidon.hash2 hl hr; l; r }
            in
            (node, dl + dr)
          end
      in
      let tree, d = go t.tree t.depth 0 sorted in
      Ok { t with tree; occupied = t.occupied + d }
    end

type proof = { position : int; siblings : Fp.t list (* leaf-to-root order *) }

let prove t pos =
  check_pos t pos;
  let rec go node h acc =
    if h = 0 then acc
    else begin
      let l, r =
        match node with
        | Empty -> (Empty, Empty)
        | Node { l; r; _ } -> (l, r)
        | Leaf _ -> assert false
      in
      if (pos lsr (h - 1)) land 1 = 0 then
        go l (h - 1) (node_hash_at (h - 1) r :: acc)
      else go r (h - 1) (node_hash_at (h - 1) l :: acc)
    end
  in
  { position = pos; siblings = go t.tree t.depth [] }

let proof_position p = p.position
let proof_siblings p = p.siblings

let verify ~root ~pos ~leaf ~depth proof =
  proof.position = pos
  && List.length proof.siblings = depth
  &&
  let rec go h acc = function
    | [] -> Fp.equal acc root
    | sib :: rest ->
      let acc =
        if (pos lsr h) land 1 = 0 then Poseidon.hash2 acc sib
        else Poseidon.hash2 sib acc
      in
      go (h + 1) acc rest
  in
  go 0 (leaf_hash leaf) proof.siblings

let fold t ~init ~f =
  let rec go node h base acc =
    match node with
    | Empty -> acc
    | Leaf v -> f acc base v
    | Node { l; r; _ } ->
      let acc = go l (h - 1) base acc in
      go r (h - 1) (base + (1 lsl (h - 1))) acc
  in
  go t.tree t.depth 0 init
