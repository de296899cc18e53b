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
}

let synth ~name body v =
  let ctx = Gadget.create () in
  body ctx v;
  Gadget.finalize ~name ctx

(* Synthesizes [body] once on [dummy] values and sets up its keys. *)
let setup ~name body dummy =
  let circuit, _, _ = synth ~name body dummy in
  let pk, vk = Backend.setup circuit in
  { pk; vk; constraints = R1cs.num_constraints circuit }

let compile ~name body dummy =
  let keys = setup ~name body dummy in
  let circuit = Backend.pk_circuit keys.pk in
  let public = R1cs.num_public circuit
  and witness = R1cs.num_witness circuit in
  let assign v =
    let ctx = Gadget.create_eval ~public ~witness in
    body ctx v;
    Ok (Gadget.assignment ctx)
  in
  { name; body; keys; assign }

let compile_resynth ~name body dummy =
  let keys = setup ~name body dummy in
  let digest = R1cs.digest (Backend.pk_circuit keys.pk) in
  let assign v =
    let fresh, public, witness = synth ~name body v in
    if Hash.equal (R1cs.digest fresh) digest then Ok (public, witness)
    else Error "circuit shape diverged from setup"
  in
  { name; body; keys; assign }

let keys t = t.keys
let assign t v = t.assign v
let synthesize t v = synth ~name:t.name t.body v

let prove t v =
  Result.bind (t.assign v) (fun (public, witness) ->
      Backend.prove t.keys.pk ~public ~witness)
