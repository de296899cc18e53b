open Zen_crypto

type keys = { vk : Backend.verification_key; constraints : int }

type 'v t = {
  name : string;
  body : Gadget.ctx -> 'v -> unit;
  keys : keys;
  assign : 'v -> (Fp.t array * Fp.t array, string) result;
  prove : 'v -> (Backend.proof, string) result;
}

let synth ~name body v =
  let ctx = Gadget.create () in
  body ctx v;
  Gadget.finalize ~name ctx

let compile ~name body dummy =
  let circuit, vk, prove = Backend.setup_body ~name body dummy in
  let public = R1cs.num_public circuit
  and witness = R1cs.num_witness circuit
  and constraints = R1cs.num_constraints circuit in
  let assign v =
    let ctx = Gadget.create_eval ~public ~witness in
    body ctx v;
    Ok (Gadget.assignment ctx)
  in
  { name; body; keys = { vk; constraints }; assign; prove }

let compile_resynth ~name body dummy =
  let circuit, _, _ = synth ~name body dummy in
  let pk, vk = Backend.setup circuit in
  let digest = R1cs.digest circuit in
  let assign v =
    let fresh, public, witness = synth ~name body v in
    if Hash.equal (R1cs.digest fresh) digest then Ok (public, witness)
    else Error "circuit shape diverged from setup"
  in
  let prove v =
    Result.bind (assign v) (fun (public, witness) ->
        Backend.prove pk ~public ~witness)
  in
  let keys = { vk; constraints = R1cs.num_constraints circuit } in
  { name; body; keys; assign; prove }

let keys t = t.keys
let assign t v = t.assign v
let synthesize t v = synth ~name:t.name t.body v
let prove t v = t.prove v
