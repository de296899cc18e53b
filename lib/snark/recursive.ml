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

let public_of t = Array.append [| t.s_from; t.s_to |] t.extra

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

let s_from t = t.s_from
let s_to t = t.s_to
let depth t = t.depth
let base_count t = t.base_count
let final_proof t = t.proof
let proof_size_bytes t = String.length (Backend.proof_encode t.proof)
