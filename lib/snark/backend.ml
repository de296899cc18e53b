open Zen_crypto

type verification_key = {
  circuit_digest : Hash.t;
  n_public : int;
  (* The simulation's stand-in for the verifier's pairing check: a MAC
     key derived from the circuit. Within the system, proofs are only
     ever produced via [prove]; see DESIGN.md §3. *)
  tag_key : string;
  (* [vk_digest], computed once by [make_vk]: every verifier cache key
     and aggregate leaf asks for it. *)
  digest : Hash.t;
}

type proving_key = { circuit : R1cs.circuit; vk : verification_key }

type proof = string (* exactly proof_size_bytes bytes *)

let proof_size_bytes = 96

let make_vk ~circuit_digest ~n_public ~tag_key =
  let digest =
    Hash.tagged "snark.vk" [ Hash.to_raw circuit_digest; string_of_int n_public ]
  in
  { circuit_digest; n_public; tag_key; digest }

let setups = Zen_obs.Counter.make "snark.setup"

(* Includes failed attempts. *)
let proves = Zen_obs.Counter.make "snark.prove"

let verifies = Zen_obs.Counter.make "snark.verify"

(* R1CS constraints covered by prove calls (sum over circuits). *)
let constraints_proved = Zen_obs.Counter.make "snark.constraints_proved"

let setup circuit =
  Zen_obs.Counter.incr setups;
  Zen_obs.Trace.with_span ~cat:"snark"
    ~args:[ ("constraints", string_of_int (R1cs.num_constraints circuit)) ]
    "snark.setup"
  @@ fun () ->
  let circuit_digest = R1cs.digest circuit in
  let tag_key =
    Sha256.digest ("zendoo.snark.tag" ^ Hash.to_raw circuit_digest)
  in
  let vk = make_vk ~circuit_digest ~n_public:(R1cs.num_public circuit) ~tag_key in
  ({ circuit; vk }, vk)

let public_bytes public =
  let buf = Buffer.create (16 * Array.length public) in
  Array.iter
    (fun x ->
      Buffer.add_string buf (string_of_int (Fp.to_int x));
      Buffer.add_char buf '|')
    public;
  Buffer.contents buf

let tag vk public =
  let mac =
    Sha256.hmac ~key:vk.tag_key
      (Hash.to_raw vk.circuit_digest ^ public_bytes public)
  in
  (* Expand to the fixed proof size: three 32-byte "group elements". *)
  mac
  ^ Sha256.digest ("zendoo.snark.g2" ^ mac)
  ^ Sha256.digest ("zendoo.snark.g1b" ^ mac)

(* Both provers end here: one counted prove over [constraints] rows,
   tagged when [verdict ()] finds the assignment satisfying. *)
let prove_with vk ~constraints ~public verdict =
  Zen_obs.Counter.incr proves;
  Zen_obs.Counter.add constraints_proved constraints;
  Zen_obs.Trace.with_span ~cat:"snark"
    ~args:[ ("constraints", string_of_int constraints) ]
    "snark.prove"
  @@ fun () ->
  match verdict () with
  | Error e -> Error e
  | Ok () -> Ok (tag vk public)

let prove pk ~public ~witness =
  prove_with pk.vk ~constraints:(R1cs.num_constraints pk.circuit) ~public
    (fun () -> R1cs.satisfied pk.circuit ~public ~witness)

(* The prover holds the body the keys were set up from, so the only
   unchecked tag is for an assignment that body filled with every
   assertion holding. Of the circuit it keeps the vk and three counts:
   the rows are the caller's to keep or drop. Of its run it keeps the
   public values and the counts: the tag reads nothing else. *)
let setup_body ~name body dummy =
  let shape = Gadget.create () in
  body shape dummy;
  let circuit, _, _ = Gadget.finalize ~name shape in
  let _, vk = setup circuit in
  let public = R1cs.num_public circuit
  and witness = R1cs.num_witness circuit
  and rows = R1cs.num_constraints circuit in
  let prove v =
    let ctx = Gadget.create_count ~public in
    body ctx v;
    let verdict = Gadget.verdict ~public ~witness ~rows ctx in
    prove_with vk ~constraints:rows ~public:(Gadget.public_values ctx)
      (fun () -> verdict)
  in
  (circuit, vk, prove)

(* Counter only, no span: verification is the hottest backend entry
   point (every merge verifies both children) and a span per call would
   dominate the trace buffer. *)
let verify vk ~public proof =
  Zen_obs.Counter.incr verifies;
  Array.length public = vk.n_public && String.equal proof (tag vk public)

let vk_digest vk = vk.digest

let vk_num_public vk = vk.n_public

let vk_encode vk =
  Hash.to_raw vk.circuit_digest ^ Printf.sprintf "%08x" vk.n_public ^ vk.tag_key

let vk_decode s =
  if String.length s <> 32 + 8 + 32 then None
  else
    (* Strict lowercase hex only: [int_of_string] would also accept
       uppercase digits and underscores, making the encoding malleable
       (two byte strings decoding to the same key). *)
    let hex = String.sub s 32 8 in
    let strict =
      String.for_all
        (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        hex
    in
    if not strict then None
    else
      match int_of_string_opt ("0x" ^ hex) with
      | None -> None
      | Some n_public ->
      Some
        (make_vk
           ~circuit_digest:(Hash.of_raw (String.sub s 0 32))
           ~n_public ~tag_key:(String.sub s 40 32))

let proof_encode p = p
let proof_decode s = if String.length s = proof_size_bytes then Some s else None
