(** Compile-once circuit templates.

    A circuit's R1CS shape never depends on the values it is proven
    for, so a template synthesizes and SHA-digests the shape exactly
    once and sets up its keys from it. Each prove then re-runs the same
    gadget body on the concrete values in the prover's count-only
    context ({!Gadget.create_count}): the field arithmetic and one
    record per wire, with no linear combination over a variable, no
    constraint, no stored witness value, no {!R1cs.finalize} and no
    re-digesting. The run checks each assertion row as it reaches it,
    so the prove is that one pass and no {!R1cs.check}. The
    Latus circuits ([Zen_latus.Circuits]), the merge circuit of
    {!Recursive} and the aggregation circuit of {!Aggregate} are all
    templates. *)

open Zen_crypto

type keys = { vk : Backend.verification_key; constraints : int }
(** What a template keeps of its setup: the verification key and the
    circuit's row count. There is no raw proving key: a compiled
    template proves with its body ({!prove}) and holds none of the
    circuit's rows. A test that needs the raw key derives it with
    {!synthesize} and {!Backend.setup}; keys are deterministic per
    circuit, so it is the same key. *)

type 'v t
(** A compiled circuit over witness values of type ['v]. *)

val compile : name:string -> (Gadget.ctx -> 'v -> unit) -> 'v -> 'v t
(** [compile ~name body dummy] synthesizes [body] on [dummy] values,
    finalizes the circuit under [name] and sets up its keys
    ({!Backend.setup_body}). The template keeps [body], the
    verification key and the circuit's counts; the circuit's rows are
    garbage once this returns. *)

val compile_resynth : name:string -> (Gadget.ctx -> 'v -> unit) -> 'v -> 'v t
(** The reference constructor: the same circuit and keys as {!compile},
    but every {!prove} re-synthesizes the circuit, re-digests it,
    refuses a shape that diverged from the keys and runs
    {!Backend.prove}'s full check on the synthesized assignment. Tests
    and experiment E16 use it to check and to price {!compile}. *)

val keys : 'v t -> keys

val synthesize : 'v t -> 'v -> R1cs.circuit * Fp.t array * Fp.t array
(** Shape-mode synthesis of the body for the given values, as
    {!Gadget.finalize} returns it. Always finalizes; with
    {!Backend.prove} on its assignment, this is the reference a
    compiled {!prove} is tested against. *)

val prove : 'v t -> 'v -> (Backend.proof, string) result
(** A proof of the template's statement for the given values. On a
    {!compile}d template this is one count-only run of the body
    ({!Gadget.create_count}), which keeps the public values and the
    witness and row counts and stores no witness value:
    it refuses when the run's public length, witness length or row
    count differs from the circuit's (the first two with
    {!R1cs.satisfied}'s errors, the last as ["circuit shape diverged
    from setup"]) or when an assertion row fails (with {!R1cs.check}'s
    error for it), and otherwise tags without a second pass over the
    rows. Proof bytes and errors equal {!Backend.prove} on
    {!synthesize}'s assignment under the circuit's key. On a
    {!compile_resynth} template it is that synthesis and
    {!Backend.prove}. *)
