(** The SNARK proving system (Setup, Prove, Verify) of paper Def. 2.3.

    This is a *simulated* backend (DESIGN.md §3, substitution 1): Setup
    compiles a real R1CS circuit. Prove refuses without a satisfying
    assignment, at a cost linear in circuit size like a real prover,
    in one of two ways. {!prove} evaluates every constraint of the
    [(public, witness)] it is given. The prover {!setup_body} returns
    runs the gadget body the circuit was synthesized from, in a
    count-only evaluation mode that computes every wire value and keeps
    only the witness count: each row either holds by construction or is
    checked when the run reaches it ({!Gadget.verdict}). The emitted proof is a constant
    96 bytes and Verify runs in time O(|public input|), independent of
    circuit size. Knowledge soundness holds within the simulation
    because the proof tag can only be produced by these two provers,
    and each demands a satisfying witness. *)

open Zen_crypto

type proving_key
type verification_key
type proof

val proof_size_bytes : int
(** 96, standing in for (G1, G2, G1) of Groth16. *)

val setup : R1cs.circuit -> proving_key * verification_key
(** Deterministic per-circuit key generation, so independently compiled
    identical circuits agree on keys. The proving key holds the circuit,
    rows included: it serves the raw-witness {!prove}, which hand-built
    circuits, {!Template.compile_resynth} and tests use. A test that
    needs a compiled template's raw key passes {!Template.synthesize}'s
    circuit to [setup]: keys are deterministic per circuit, so that is
    the template's own key. *)

val prove :
  proving_key -> public:Fp.t array -> witness:Fp.t array -> (proof, string) result
(** Fails with a description of the first violated constraint when
    [(public, witness)] is not a satisfying assignment: runs
    {!R1cs.satisfied} over every constraint. *)

val setup_body :
  name:string ->
  (Gadget.ctx -> 'v -> unit) ->
  'v ->
  R1cs.circuit * verification_key * ('v -> (proof, string) result)
(** [setup_body ~name body dummy] synthesizes [body] on [dummy] values,
    finalizes the circuit under [name], sets it up as {!setup} does and
    returns the circuit, its verification key and a prover. The prover
    keeps the key, the circuit's public, witness and row counts and
    [body], and none of the circuit's rows: once the caller drops the
    circuit, they are garbage. It runs [body] on its values in a
    count-only evaluation context ({!Gadget.create_count}), which keeps
    the public values and only the length of the witness, and tags the
    public input when {!Gadget.verdict} accepts the run, without
    {!R1cs.check}; it
    refuses with the verdict's error otherwise, and lets an exception of
    [body] escape unproven. Proof bytes and errors equal {!prove}'s on
    the same assignment, with {!setup}'s key for the circuit, whenever
    [body]'s rows do not depend on its values. {!Template.compile} is
    built on it. *)

val verify : verification_key -> public:Fp.t array -> proof -> bool

val vk_digest : verification_key -> Hash.t
(** Identifier of a verification key — what a sidechain registers in
    the mainchain at creation time. Computed once when the key is made
    ({!setup}, {!vk_decode}); this is a field read. *)

val vk_num_public : verification_key -> int

val vk_encode : verification_key -> string
val vk_decode : string -> verification_key option

val proof_encode : proof -> string
(** Exactly [proof_size_bytes] bytes. *)

val proof_decode : string -> proof option
