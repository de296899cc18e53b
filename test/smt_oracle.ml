(* The reference sparse Merkle tree [Zen_crypto.Smt] must agree with: a
   position → value map whose writes apply one at a time, and subtree
   hashes computed recursively from the definition (paper Fig. 9). An
   all-empty subtree of height h hashes to the h-th entry of the
   empty-subtree table, a leaf holding v to H(v, 1), any other node to
   H(left, right). There is no stored tree, no sharing between
   versions and no batching, so each step is easy to check by eye. *)

open Zen_crypto
module Int_map = Map.Make (Int)

type t = { depth : int; slots : Fp.t Int_map.t }

let create ~depth = { depth; slots = Int_map.empty }

let leaf_hash = function
  | None -> Poseidon.hash2 Fp.zero Fp.zero
  | Some v -> Poseidon.hash2 v Fp.one

(* empty_subtree.(h) is the hash of an all-empty subtree of height h. *)
let empty_subtree =
  let a = Array.make 61 (leaf_hash None) in
  for h = 1 to 60 do
    a.(h) <- Poseidon.hash2 a.(h - 1) a.(h - 1)
  done;
  a

let write t (pos, v) =
  if pos < 0 || pos >= 1 lsl t.depth then Error "smt: position out of range"
  else
    Ok
      {
        t with
        slots =
          (match v with
          | Some x -> Int_map.add pos x t.slots
          | None -> Int_map.remove pos t.slots);
      }

let apply t writes =
  List.fold_left (fun acc w -> Result.bind acc (fun t -> write t w)) (Ok t)
    writes

let occupied t = Int_map.cardinal t.slots
let get t pos = Int_map.find_opt pos t.slots

(* [subtree_hash t h i] hashes the height-[h] subtree whose leaves are
   slots [i·2^h, (i+1)·2^h). Partial applications share one memo
   table, so hashing the root and every sibling of a tree costs each
   occupied node once. *)
let subtree_hash t =
  let memo = Hashtbl.create 64 in
  let rec go h i =
    let lo = i lsl h in
    match Int_map.find_first_opt (fun p -> p >= lo) t.slots with
    | None -> empty_subtree.(h)
    | Some (p, _) when p >= lo + (1 lsl h) -> empty_subtree.(h)
    | Some (_, v) when h = 0 -> leaf_hash (Some v)
    | Some _ -> (
      match Hashtbl.find_opt memo (h, i) with
      | Some x -> x
      | None ->
        let x = Poseidon.hash2 (go (h - 1) (2 * i)) (go (h - 1) ((2 * i) + 1)) in
        Hashtbl.add memo (h, i) x;
        x)
  in
  go

let root t = subtree_hash t t.depth 0

(* The sibling hashes on [pos]'s root path, leaf to root. *)
let siblings_with hash t pos =
  List.init t.depth (fun h -> hash h ((pos lsr h) lxor 1))

let siblings t pos = siblings_with (subtree_hash t) t pos

(* Whether [smt] is the oracle's tree: equal depth, root and occupancy,
   the same value in every slot, the same proof path for every slot,
   and a proof that verifies for every occupied slot. Walks all
   2^depth slots, so meant for small depths. *)
let agrees smt t =
  let hash = subtree_hash t in
  Smt.depth smt = t.depth
  && Fp.equal (Smt.root smt) (hash t.depth 0)
  && Smt.occupied smt = occupied t
  && List.for_all
       (fun pos ->
         Option.equal Fp.equal (Smt.get smt pos) (get t pos)
         && List.equal Fp.equal
              (Smt.proof_siblings (Smt.prove smt pos))
              (siblings_with hash t pos))
       (List.init (1 lsl t.depth) Fun.id)
  && Int_map.for_all
       (fun pos v ->
         Smt.verify ~root:(Smt.root smt) ~pos ~leaf:(Some v) ~depth:t.depth
           (Smt.prove smt pos))
       t.slots
