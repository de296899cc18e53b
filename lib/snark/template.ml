open Zen_crypto

type keys = { vk : Backend.verification_key; constraints : int }

type 'v t = {
  name : string;
  body : Gadget.ctx -> 'v -> unit;
  keys : keys;
  prove : 'v -> (Backend.proof, string) result;
}

let synth ~name body v =
  let ctx = Gadget.create () in
  body ctx v;
  Gadget.finalize ~name ctx

let compile ~name body dummy =
  let circuit, vk, prove = Backend.setup_body ~name body dummy in
  let keys = { vk; constraints = R1cs.num_constraints circuit } in
  { name; body; keys; prove }

let compile_resynth ~name body dummy =
  let circuit, _, _ = synth ~name body dummy in
  let pk, vk = Backend.setup circuit in
  let digest = R1cs.digest circuit in
  let prove v =
    let fresh, public, witness = synth ~name body v in
    if Hash.equal (R1cs.digest fresh) digest then
      Backend.prove pk ~public ~witness
    else Error "circuit shape diverged from setup"
  in
  let keys = { vk; constraints = R1cs.num_constraints circuit } in
  { name; body; keys; prove }

let keys t = t.keys
let synthesize t v = synth ~name:t.name t.body v
let prove t v = t.prove v
