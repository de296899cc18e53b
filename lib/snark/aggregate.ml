open Zen_crypto

type leaf = {
  sc_id : Hash.t;
  epoch : int;
  cert_hash : Hash.t;
  vk_digest : Hash.t;
  proof_bytes : string;
  end_prev_epoch : Hash.t;
  end_epoch : Hash.t;
}

let leaf_digest l =
  Hash.tagged "zendoo.aggregate.leaf"
    [
      Hash.to_raw l.sc_id;
      string_of_int l.epoch;
      Hash.to_raw l.cert_hash;
      Hash.to_raw l.vk_digest;
      l.proof_bytes;
      Hash.to_raw l.end_prev_epoch;
      Hash.to_raw l.end_epoch;
    ]

let node_hash l r =
  Hash.tagged "zendoo.aggregate.node" [ Hash.to_raw l; Hash.to_raw r ]

let root_of_digests ds =
  let fold = Fold.create ~merge:(fun l r -> Ok (node_hash l r)) in
  List.iter (Fold.push fold) ds;
  Result.to_option (Fold.finish fold)

type system = { tpl : (Fp.t * Fp.t) Template.t; vk_digest : Hash.t }

(* The aggregation statement circuit: public (root, count) plus a
   Poseidon binding — constant size, the simulated stand-in for
   "verify the children in-circuit" (children are verified natively by
   the prover, as in [Recursive.merge]). The structure is
   value-independent, so one template serves leaf wraps and merges. *)
let body ctx (root_fp, count_fp) =
  let w_root = Gadget.input ctx root_fp in
  let w_count = Gadget.input ctx count_fp in
  let h = Gadget.poseidon2 ctx w_root w_count in
  let binding = Gadget.witness ctx (Gadget.value h) in
  Gadget.assert_eq ~label:"aggregate.binding" ctx h binding

let create () =
  let tpl = Template.compile ~name:"zendoo.aggregate" body (Fp.zero, Fp.zero) in
  { tpl; vk_digest = Backend.vk_digest (Template.keys tpl).vk }

(* First use wins; guarded because pool workers may race here. *)
let shared_mu = Mutex.create ()
let shared_ref = ref None

let shared () =
  Mutex.protect shared_mu @@ fun () ->
  match !shared_ref with
  | Some s -> s
  | None ->
    let s = create () in
    shared_ref := Some s;
    s

let vk sys = (Template.keys sys.tpl).vk
let template sys = sys.tpl
let vk_digest sys = sys.vk_digest

type t = { root : Hash.t; count : int; proof : Backend.proof }

let root t = t.root
let count t = t.count
let proof t = t.proof
let of_parts ~root ~count ~proof = { root; count; proof }

let digest t =
  Hash.tagged "zendoo.aggregate"
    [
      Hash.to_raw t.root;
      string_of_int t.count;
      Backend.proof_encode t.proof;
    ]

let public_of ~root ~count = [| Hash.to_fp root; Fp.of_int count |]

let verify sys t =
  Backend.verify (vk sys) ~public:(public_of ~root:t.root ~count:t.count) t.proof

let prove_node sys ~root ~count =
  match Template.prove sys.tpl (Hash.to_fp root, Fp.of_int count) with
  | Error e -> Error ("aggregate: " ^ e)
  | Ok proof -> Ok { root; count; proof }

let wraps = Zen_obs.Counter.make "snark.aggregate.wraps"

(* Includes failed attempts. *)
let merges = Zen_obs.Counter.make "snark.aggregate.merges"

(* Aggregate build latency (wraps + merge tree). *)
let build_s =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:8)
    "snark.aggregate.build.seconds"

let of_leaf sys leaf ~check =
  Zen_obs.Counter.incr wraps;
  (* Native verification of the covered certificate proof — the
     simulation of verifying it in-circuit. Refusing here is what makes
     "aggregate verifies" equivalent to "every leaf verifies". *)
  if not (check ()) then
    Error "aggregate: covered certificate proof rejected"
  else prove_node sys ~root:(leaf_digest leaf) ~count:1

let merge sys a b =
  Zen_obs.Counter.incr merges;
  if not (verify sys a) then Error "aggregate: left child does not verify"
  else if not (verify sys b) then
    Error "aggregate: right child does not verify"
  else
    prove_node sys ~root:(node_hash a.root b.root) ~count:(a.count + b.count)

let build ?(pool = Pool.sequential) sys = function
  | [] -> Error "aggregate: no certificates to aggregate"
  | leaves ->
    Zen_obs.Histogram.time build_s @@ fun () ->
    Zen_obs.Trace.with_span ~cat:"snark"
      ~args:[ ("leaves", string_of_int (List.length leaves)) ]
      "aggregate.build"
    @@ fun () ->
    let leaf_arr = Array.of_list leaves in
    (* Leaf wraps are independent (one native cert verification + one
       constant-size prove each). *)
    let wrapped =
      Pool.init_array pool (Array.length leaf_arr) (fun i ->
          let leaf, check = leaf_arr.(i) in
          of_leaf sys leaf ~check)
    in
    let first_error = function Error e -> Some e | Ok _ -> None in
    match Array.find_map first_error wrapped with
    | Some e -> Error e
    | None ->
      let fold = Fold.create ~merge:(merge sys) in
      Array.iter (fun w -> Fold.push fold (Result.get_ok w)) wrapped;
      Fold.finish fold
