(** Recursive SNARK composition for state-transition systems
    (paper Def. 2.5, Figs. 10–11).

    A {!transition_proof} attests "state [s_from] evolves to [s_to]".
    Base proofs come from application circuits whose first two public
    inputs are [(s_from, s_to)]; the {!merge} operation combines two
    adjacent proofs into one of the same shape. In the simulation the
    merge prover verifies both children natively — constant cost per
    child, exactly the cost profile real recursion buys — and then
    proves a constant-size merge circuit binding the endpoint states
    (DESIGN.md §3, substitution 2). The merge circuit is a compile-once
    {!Template}: [create] synthesizes it, [merge] never does.

    {!Fold} builds the Fig. 10/11 merge tree over {!merge} online
    ([Fold.create ~merge:(merge sys)]): total work linear in the number
    of base transitions, tree depth logarithmic, final proof
    constant-size. *)

open Zen_crypto

type system
(** A recursion context: the merge keys plus the set of base
    verification keys it accepts as leaves. *)

type transition_proof

val create : name:string -> base_vks:Backend.verification_key list -> system
(** Sets up the merge circuit for a family of base circuits; only
    proofs under one of [base_vks] are accepted as leaves. *)

val merge_template : system -> (Fp.t * Fp.t * Fp.t) Template.t
(** The compiled merge circuit over [(s_from, s_mid, s_to)]: its keys
    are set up once by {!create}, and {!merge} only proves with it. A
    test hook: the template tests prove with it directly, to compare
    the count-only prover against synthesis and to pin its digest. *)

val of_base :
  system ->
  vk:Backend.verification_key ->
  s_from:Fp.t ->
  s_to:Fp.t ->
  extra:Fp.t array ->
  Backend.proof ->
  (transition_proof, string) result
(** Wraps and verifies a base proof produced by an application circuit.
    [extra] is the tail of that circuit's public input. *)

val merge :
  system -> transition_proof -> transition_proof -> (transition_proof, string) result
(** Fails when the proofs are not adjacent ([s_to] of the first differs
    from [s_from] of the second) or either child fails verification. *)

val s_from : transition_proof -> Fp.t
(** The state the covered transition chain starts from. *)

val s_to : transition_proof -> Fp.t
(** The state the covered transition chain ends at. *)

val depth : transition_proof -> int
(** Merge-tree height above base leaves (0 for a base proof). *)

val base_count : transition_proof -> int
(** Number of base transitions covered. *)

val verify : system -> transition_proof -> bool
(** Re-verifies the top proof object (constant time). *)

val final_proof : transition_proof -> Backend.proof
(** The underlying constant-size proof — what gets embedded in a
    withdrawal certificate's witness. *)

val proof_size_bytes : transition_proof -> int
(** Wire size of {!final_proof} — constant regardless of {!base_count}
    (the paper's headline property). *)
