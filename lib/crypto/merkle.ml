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

let of_leaves ?(pool = Pool.sequential) leaves =
  let leaf_count = List.length leaves in
  Zen_obs.Trace.with_span ~cat:"crypto"
    ~args:[ ("leaves", string_of_int leaf_count) ]
    "merkle.of_leaves"
  @@ fun () ->
  if leaf_count = 0 then { levels = [| [| empty_root |] |]; leaf_count = 0 }
  else begin
    let width = next_pow2 leaf_count in
    let padding = leaf_hash Hash.zero in
    let raw = Array.of_list leaves in
    (* Every level is a parallel map over independent slots: hashing is
       pure, so the tree is bit-identical for any domain count. *)
    (* ~2 µs per tagged SHA-256 node: the cost hint batches whole
       levels of a small tree into one inline chunk and only fans out
       levels wide enough to pay for their synchronization. *)
    let hash_cost_ms = 0.002 in
    let level0 =
      Pool.init_array pool ~cost:hash_cost_ms width (fun i ->
          if i < leaf_count then leaf_hash raw.(i) else padding)
    in
    let rec build acc level =
      if Array.length level = 1 then List.rev (level :: acc)
      else begin
        let parent =
          Pool.init_array pool ~cost:hash_cost_ms
            (Array.length level / 2)
            (fun i -> node_hash level.(2 * i) level.((2 * i) + 1))
        in
        build (level :: acc) parent
      end
    in
    { levels = Array.of_list (build [] level0); leaf_count }
  end

let of_data ?pool blocks = of_leaves ?pool (List.map Hash.of_string blocks)

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let depth t = Array.length t.levels - 1

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
