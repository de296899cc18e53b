open Zen_crypto

type transition_proof = {
  s_from : Fp.t;
  s_to : Fp.t;
  extra : Fp.t array; (* tail of the public input; empty for merges *)
  proof : Backend.proof;
  vk_digest : Hash.t;
  depth : int;
  base_count : int;
}

type system = {
  merge_tpl : (Fp.t * Fp.t * Fp.t) Template.t;
  merge_vk_digest : Hash.t;
  base_vk_by_digest : Backend.verification_key Hash.Map.t;
}

(* The merge statement circuit: public (s_from, s_to), witness s_mid,
   plus a Poseidon chain binding all three. Constant size — the
   simulation stand-in for "verify two child proofs in-circuit". *)
let merge_body ctx (s_from, s_mid, s_to) =
  let w_from = Gadget.input ctx s_from in
  let w_to = Gadget.input ctx s_to in
  let w_mid = Gadget.witness ctx s_mid in
  let h1 = Gadget.poseidon2 ctx w_from w_mid in
  let h2 = Gadget.poseidon2 ctx h1 w_to in
  let binding = Gadget.witness ctx (Gadget.value h2) in
  Gadget.assert_eq ~label:"merge.binding" ctx h2 binding

let create ~name ~base_vks =
  let merge_tpl =
    Template.compile ~name:(name ^ ".merge") merge_body
      (Fp.zero, Fp.zero, Fp.zero)
  in
  let base_vk_by_digest =
    List.fold_left
      (fun acc vk -> Hash.Map.add (Backend.vk_digest vk) vk acc)
      Hash.Map.empty base_vks
  in
  {
    merge_tpl;
    merge_vk_digest = Backend.vk_digest (Template.keys merge_tpl).vk;
    base_vk_by_digest;
  }

let merge_vk sys = (Template.keys sys.merge_tpl).vk
let merge_template sys = sys.merge_tpl

let base_public ~s_from ~s_to ~extra =
  Array.append [| s_from; s_to |] extra

let public_of t = base_public ~s_from:t.s_from ~s_to:t.s_to ~extra:t.extra

let verify sys t =
  let vk =
    if Hash.equal t.vk_digest sys.merge_vk_digest then Some (merge_vk sys)
    else Hash.Map.find_opt t.vk_digest sys.base_vk_by_digest
  in
  match vk with
  | None -> false
  | Some vk -> Backend.verify vk ~public:(public_of t) t.proof

let of_base sys ~vk ~s_from ~s_to ~extra proof =
  let vk_digest = Backend.vk_digest vk in
  if not (Hash.Map.mem vk_digest sys.base_vk_by_digest) then
    Error "of_base: unregistered base verification key"
  else begin
    let t =
      { s_from; s_to; extra; proof; vk_digest; depth = 0; base_count = 1 }
    in
    if verify sys t then Ok t else Error "of_base: base proof does not verify"
  end

(* Includes failed attempts. *)
let merges = Zen_obs.Counter.make "snark.merges"

(* Single merge latency (verify children + prove). *)
let merge_s =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:8)
    "snark.merge.seconds"

let merge sys t1 t2 =
  Zen_obs.Histogram.time merge_s @@ fun () ->
  Zen_obs.Counter.incr merges;
  if not (Fp.equal t1.s_to t2.s_from) then
    Error "merge: transitions are not adjacent"
  else if not (verify sys t1) then Error "merge: left child does not verify"
  else if not (verify sys t2) then Error "merge: right child does not verify"
  else
    match Template.prove sys.merge_tpl (t1.s_from, t1.s_to, t2.s_to) with
    | Error e -> Error ("merge: " ^ e)
    | Ok proof ->
      Ok
        {
          s_from = t1.s_from;
          s_to = t2.s_to;
          extra = [||];
          proof;
          vk_digest = sys.merge_vk_digest;
          depth = 1 + max t1.depth t2.depth;
          base_count = t1.base_count + t2.base_count;
        }

module Incremental = struct
  (* The balanced fold, online: a binary counter of perfectly-aligned
     merge subtrees. The stack holds complete subtrees of strictly
     increasing size (head = smallest); pushing a leaf merges equal-sized
     neighbors eagerly, exactly like adding 1 to a binary counter. Every
     subtree covers leaves [start, start + size) with [size] a power of
     two and [start] a multiple of [size] — i.e. it is precisely the node
     the level-by-level fold builds over that leaf range, so eager merges
     and the final carry merges reproduce its tree shape (and therefore
     its proof bytes) node for node: a level-by-level level-[k] pass pairs
     aligned size-2^k blocks, which is the same set of merges the
     counter performs when the second block of a pair completes; the
     odd trailing block a level carries up unchanged is the same block
     the counter leaves on its stack for [finish] to fold in. [finish]
     right-associates the leftover stack smallest-first — merging a
     larger left block onto the accumulated tail is exactly the
     carried-element chain of the trailing odd nodes. *)

  type node = {
    res : (transition_proof, string) result;
    size : int; (* leaves covered; a power of two except inside finish *)
    start : int; (* index of the first covered leaf *)
  }

  type acc = {
    sys : system;
    mutable stack : node list; (* newest/smallest first *)
    mutable count : int;
    mutable eager_merges : int;
    (* Failed merges, keyed by the (level, pair) position the same merge
       occupies in the level-by-level fold's level-order execution. *)
    mutable failures : ((int * int) * string) list;
  }

  let create sys = { sys; stack = []; count = 0; eager_merges = 0; failures = [] }
  let count a = a.count
  let eager_merges a = a.eager_merges
  let pending_merges a = max 0 (List.length a.stack - 1)

  let rec log2 s = if s <= 1 then 0 else 1 + log2 (s / 2)

  (* The left child of any merge we perform covers [start, start+size)
     with size a power of two and start size-aligned, which in the
     level-by-level fold is pair [start / (2*size)] of level
     [log2 size]. Failures are reported by minimum (level, pair): the
     merges the counter runs that the level-by-level fold would have
     skipped (levels above its first failure) all have strictly larger
     keys, so the minimum is the error the level-by-level fold
     reports. *)
  let do_merge a left right =
    let size = left.size + right.size and start = left.start in
    match (left.res, right.res) with
    | Ok l, Ok r -> (
      match merge a.sys l r with
      | Ok m -> { res = Ok m; size; start }
      | Error e ->
        let key = (log2 left.size, left.start / (2 * left.size)) in
        a.failures <- (key, e) :: a.failures;
        { res = Error e; size; start })
    | (Error _ as e), _ | _, (Error _ as e) ->
      (* Propagate without merging; the originating failure is already
         recorded under its own key. *)
      { res = e; size; start }

  let push a tp =
    let leaf = { res = Ok tp; size = 1; start = a.count } in
    a.count <- a.count + 1;
    let rec settle node = function
      | top :: rest when top.size = node.size ->
        a.eager_merges <- a.eager_merges + 1;
        settle (do_merge a top node) rest
      | stack -> node :: stack
    in
    a.stack <- settle leaf a.stack

  let first_failure a =
    List.fold_left
      (fun best (k, e) ->
        match best with
        | Some (bk, _) when bk <= k -> best
        | _ -> Some (k, e))
      None a.failures

  let finish a =
    match a.stack with
    | [] -> Error "fold_balanced: empty transition list"
    | smallest :: rest -> (
      (* Carry chain: fold the remaining blocks smallest-first, each
         larger block becoming the left child — the trailing-odd-element
         chain of the level-by-level fold, at most ⌈log₂ count⌉ merges.
         Does not consume the stack, so an acc can be finished, extended
         and finished again (certificate rebuild after a lost cert). *)
      let top = List.fold_left (fun acc b -> do_merge a b acc) smallest rest in
      match top.res with
      | Ok t -> Ok t
      | Error _ -> (
        match first_failure a with
        | Some (_, e) -> Error e
        | None -> assert false))
end

let s_from t = t.s_from
let s_to t = t.s_to
let depth t = t.depth
let base_count t = t.base_count
let final_proof t = t.proof
let proof_size_bytes t = String.length (Backend.proof_encode t.proof)
