type t = {
  levels : Hash.t array array;
      (* levels.(0) = padded leaf hashes, last level = [| root |] *)
  leaf_count : int;
}

type proof = { index : int; siblings : Hash.t list }

let leaf_hash h = Hash.tagged "mht.leaf" [ Hash.to_raw h ]
let node_hash l r = Hash.tagged "mht.node" [ Hash.to_raw l; Hash.to_raw r ]
let empty_root = Hash.tagged "mht.empty" []

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let of_leaves leaves =
  let leaf_count = List.length leaves in
  Zen_obs.Trace.with_span ~cat:"crypto"
    ~args:[ ("leaves", string_of_int leaf_count) ]
    "merkle.of_leaves"
  @@ fun () ->
  if leaf_count = 0 then { levels = [| [| empty_root |] |]; leaf_count = 0 }
  else begin
    let width = next_pow2 leaf_count in
    let raw = Array.of_list leaves in
    (* The first [real] nodes of a level cover a real leaf; the others
       cover padding only and share one value, [pad], hashed once per
       level that has such a node. A level without one carries [pad]
       up unread. *)
    let pad0 = if leaf_count < width then leaf_hash Hash.zero else Hash.zero in
    let level0 =
      Array.init width (fun i -> if i < leaf_count then leaf_hash raw.(i) else pad0)
    in
    let rec build acc level real pad =
      if Array.length level = 1 then List.rev (level :: acc)
      else begin
        let width' = Array.length level / 2 in
        let real' = (real + 1) / 2 in
        let pad' = if real' < width' then node_hash pad pad else pad in
        let parent =
          Array.init width' (fun i ->
              if i < real' then node_hash level.(2 * i) level.((2 * i) + 1)
              else pad')
        in
        build (level :: acc) parent real' pad'
      end
    in
    { levels = Array.of_list (build [] level0 leaf_count pad0); leaf_count }
  end

let of_data blocks = of_leaves (List.map Hash.of_string blocks)

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)


let prove t i =
  if i < 0 || i >= max t.leaf_count 1 then invalid_arg "Merkle.prove: index";
  if t.leaf_count = 0 then invalid_arg "Merkle.prove: empty tree";
  let rec go level pos acc =
    if level >= Array.length t.levels - 1 then List.rev acc
    else begin
      let sib_pos = if pos land 1 = 0 then pos + 1 else pos - 1 in
      let sib = t.levels.(level).(sib_pos) in
      go (level + 1) (pos / 2) (sib :: acc)
    end
  in
  { index = i; siblings = go 0 i [] }

let verify ~root ~leaf proof =
  let rec go pos h = function
    | [] -> Hash.equal h root
    | sib :: rest ->
      let h' = if pos land 1 = 0 then node_hash h sib else node_hash sib h in
      go (pos / 2) h' rest
  in
  go proof.index (leaf_hash leaf) proof.siblings

let proof_index p = p.index
let proof_length p = List.length p.siblings
let proof_size_bytes p = 8 + (Hash.size * List.length p.siblings)
let proof_to_siblings p = p.siblings
let proof_of_siblings ~index siblings = { index; siblings }
