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

    {!Incremental} builds the Fig. 10/11 merge tree online: total work
    linear in the number of base transitions, tree depth logarithmic,
    final proof constant-size. *)

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
    are set up once by {!create}, and {!merge} only fills its witness
    assignment. *)

val base_public : s_from:Fp.t -> s_to:Fp.t -> extra:Fp.t array -> Fp.t array
(** Assembles the public-input vector convention for base circuits:
    [(s_from, s_to, extra…)]. *)

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

(** The balanced Fig. 10 merge tree, built online: feed transitions
    one at a time, in adjacency order, as their base proofs complete;
    most merges happen {e during} feeding ({!Incremental.push} merges
    equal-sized aligned subtrees eagerly, a binary-counter carry
    structure), leaving {!Incremental.finish} at most ⌈log₂ n⌉ carry
    merges. The tree is the level-by-level one: level [k] pairs adjacent
    aligned blocks of 2{^k} leaves, and an odd trailing block is carried
    up unchanged. The finished proof — and, on failure, the reported
    error — is {b byte-identical} to folding the same list level by
    level (the test suite keeps that batch fold as its oracle). This is
    what keeps the certify path of a pipelined node logarithmic
    ([Zen_latus.Proof_pipeline]). *)
module Incremental : sig
  type acc
  (** Mutable fold state. Not thread-safe: push from one domain. *)

  val create : system -> acc

  val push : acc -> transition_proof -> unit
  (** Appends the next transition, running any eager merges it enables
      (amortized O(1) merges per push, worst case one carry chain). A
      failed merge is recorded and poisons the affected subtree;
      {!finish} reports the same error the level-by-level fold would. *)

  val count : acc -> int
  (** Transitions pushed so far. *)

  val eager_merges : acc -> int
  (** Merges already performed by {!push} — off the certify path. *)

  val pending_merges : acc -> int
  (** Carry merges {!finish} would run now: the stack height minus one,
      ≤ ⌈log₂ {!count}⌉. *)

  val finish : acc -> (transition_proof, string) result
  (** Folds the outstanding subtrees into the final proof (the carried
      trailing-element chain of the level-by-level fold). Non-destructive:
      the acc may be extended with further {!push}es and finished again —
      how a lost certificate is rebuilt without re-proving. Errors:
      ["fold_balanced: empty transition list"] when nothing was pushed,
      otherwise the first failing merge in the level-by-level fold's
      (level, pair) execution order. *)
end

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
