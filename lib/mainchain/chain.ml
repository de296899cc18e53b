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
  | Reorg of { old_tip : Hash.t; depth : int }

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

(* Blocks visited by [reorg_depth]'s walk. *)
let ancestors_walked = Zen_obs.Counter.make "mc.scan.ancestors"

(* Depth of the reorg: how many blocks of the old best chain are not
   ancestors of the new tip. The new tip's state indexes its chain by
   height, so the walk back from [old_tip] stops at the first block
   that chain holds at that block's height, the common ancestor: it
   visits the abandoned blocks plus one, not the history. *)
let reorg_depth t ~old_tip ~new_tip =
  let new_chain = (node_exn t new_tip).state in
  let rec count h n =
    match Hash.Map.find_opt h t.nodes with
    | None -> n
    | Some node ->
      Zen_obs.Counter.incr ancestors_walked;
      let height = node.block.header.height in
      match Chain_state.block_hash_at new_chain height with
      | Some bh when Hash.equal bh h -> n
      | Some _ | None -> count node.block.header.prev (n + 1)
  in
  count old_tip 0

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
              Reorg
                { old_tip = t.tip; depth = reorg_depth t' ~old_tip:t.tip ~new_tip:h }
          in
          Ok ({ t' with tip = h }, outcome)
        end
        else Ok (t', Side_branch))
  end

(* What a reorg disconnected and connected, both oldest first. Walking
   from [old_tip] until a block on the (new) best chain gives the
   abandoned suffix; the replacing blocks are the best-chain suffix
   above the common ancestor. Used by the harness to rebuild the
   mempool (Mempool.reinject_disconnected). *)
let reorg_diff t ~old_tip =
  let on_best h =
    match Hash.Map.find_opt h t.nodes with
    | None -> false
    | Some n -> (
      match Chain_state.block_hash_at (tip_state t) n.block.header.height with
      | Some bh -> Hash.equal bh h
      | None -> false)
  in
  let rec abandoned h acc =
    match Hash.Map.find_opt h t.nodes with
    | None -> acc
    | Some n ->
      if on_best h then acc
      else abandoned n.block.header.prev (n.block :: acc)
  in
  let disconnected = abandoned old_tip [] in
  let fork_height =
    match disconnected with
    | [] -> (tip_state t).height
    | b :: _ -> b.header.height - 1
  in
  let rec connected h acc =
    match Hash.Map.find_opt h t.nodes with
    | None -> acc
    | Some n ->
      if n.block.header.height <= fork_height then acc
      else connected n.block.header.prev (n.block :: acc)
  in
  (disconnected, connected t.tip [])

let on_best_chain t h =
  match Hash.Map.find_opt h t.nodes with
  | None -> false
  | Some n -> (
    match Chain_state.block_hash_at (tip_state t) n.block.header.height with
    | Some bh -> Hash.equal bh h
    | None -> false)
