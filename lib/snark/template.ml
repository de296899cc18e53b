open Zen_crypto

type keys = {
  pk : Backend.proving_key;
  vk : Backend.verification_key;
  constraints : int;
}

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

let keys_of pk vk =
  { pk; vk; constraints = R1cs.num_constraints (Backend.pk_circuit pk) }

let compile ~name body dummy =
  let pk, vk, prove = Backend.setup_body ~name body dummy in
  let circuit = Backend.pk_circuit pk in
  let public = R1cs.num_public circuit
  and witness = R1cs.num_witness circuit in
  let assign v =
    let ctx = Gadget.create_eval ~public ~witness in
    body ctx v;
    Ok (Gadget.assignment ctx)
  in
  { name; body; keys = keys_of pk vk; assign; prove }

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
  { name; body; keys = keys_of pk vk; assign; prove }

let keys t = t.keys
let assign t v = t.assign v
let synthesize t v = synth ~name:t.name t.body v
let prove t v = t.prove v
