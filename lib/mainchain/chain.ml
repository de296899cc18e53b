open Zen_crypto

type node = { block : Block.t; state : Chain_state.t; work : int }

type t = {
  params : Chain_state.params;
  nodes : node Hash.Map.t;
  tip : Hash.t;
}

type outcome =
  | Extended_tip
  | Side_branch
  | Reorg of {
      old_tip : Hash.t;
      disconnected : Block.t list;
      connected : Block.t list;
    }

let create ?(params = Chain_state.default_params) ~time () =
  let g = Block.genesis ~time in
  let gh = Block.hash g in
  let node = { block = g; state = Chain_state.of_genesis params g; work = 0 } in
  { params; nodes = Hash.Map.add gh node Hash.Map.empty; tip = gh }

let params t = t.params
let tip_hash t = t.tip

let node_exn t h = Hash.Map.find h t.nodes
let tip_state t = (node_exn t t.tip).state
let height t = (tip_state t).height

let block t h = Option.map (fun n -> n.block) (Hash.Map.find_opt h t.nodes)

(* Whether [state]'s chain holds block [h] at [height]. *)
let holds state h ~height =
  match Chain_state.block_hash_at state height with
  | Some bh -> Hash.equal bh h
  | None -> false

(* Blocks visited by [fork_diff]'s walk back from the old tip. *)
let ancestors_walked = Zen_obs.Counter.make "mc.scan.ancestors"

(* What a reorg from [old_tip] to [new_tip] disconnected and connected,
   both oldest first. The new tip's state indexes its chain by height,
   so the walk back from [old_tip] stops at the first block that chain
   holds at that block's height, the common ancestor: it visits the
   abandoned blocks plus one, not the history. The connected blocks are
   the new tip's ancestors above that height. *)
let fork_diff t ~old_tip ~new_tip =
  let new_chain = (node_exn t new_tip).state in
  let rec abandoned h acc =
    let node = node_exn t h in
    Zen_obs.Counter.incr ancestors_walked;
    let height = node.block.header.height in
    if holds new_chain h ~height then (height, acc)
    else abandoned node.block.header.prev (node.block :: acc)
  in
  let fork_height, disconnected = abandoned old_tip [] in
  let rec connected h acc =
    let node = node_exn t h in
    if node.block.header.height <= fork_height then acc
    else connected node.block.header.prev (node.block :: acc)
  in
  (disconnected, connected new_tip [])

let add_block ?pool t (b : Block.t) =
  let h = Block.hash b in
  if Hash.Map.mem h t.nodes then Error "chain: duplicate block"
  else begin
    match Hash.Map.find_opt b.header.prev t.nodes with
    | None -> Error "chain: unknown parent"
    | Some parent -> (
      match Chain_state.apply_block ?pool ~block_hash:h parent.state b with
      | Error e -> Error e
      | Ok state ->
        let work = parent.work + Pow.work_of t.params.pow in
        let nodes = Hash.Map.add h { block = b; state; work } t.nodes in
        let t' = { t with nodes } in
        let tip_work = (node_exn t t.tip).work in
        if work > tip_work then begin
          let outcome =
            if Hash.equal b.header.prev t.tip then Extended_tip
            else
              let disconnected, connected =
                fork_diff t' ~old_tip:t.tip ~new_tip:h
              in
              Reorg { old_tip = t.tip; disconnected; connected }
          in
          Ok ({ t' with tip = h }, outcome)
        end
        else Ok (t', Side_branch))
  end

let on_best_chain t h =
  match Hash.Map.find_opt h t.nodes with
  | None -> false
  | Some n -> holds (tip_state t) h ~height:n.block.header.height
