(** Rank-1 constraint systems over {!Zen_crypto.Fp} (paper Def. 2.3).

    A constraint system is a set of constraints [⟨A,z⟩·⟨B,z⟩ = ⟨C,z⟩]
    over the assignment vector [z = (1, a₁…a_r, w₁…w_s)] where [a] is
    the public input and [w] the witness. Circuits are built through a
    mutable {!builder} and then frozen into an immutable {!circuit}
    whose digest identifies the SNARK instance. *)

open Zen_crypto

type var = private int
(** Assignment-vector index. Index 0 is the constant 1. *)

type lc = (Fp.t * var) list
(** A linear combination [Σ cᵢ·varᵢ]. *)

type constr = { a : lc; b : lc; c : lc; label : string option }
(** One constraint [⟨a,z⟩·⟨b,z⟩ = ⟨c,z⟩] and its optional label. *)

type builder
type circuit

val one_var : var
(** The constant-one variable. *)

val create : unit -> builder

val alloc_input : builder -> var
(** Allocates the next public-input variable. All public inputs must be
    allocated before any witness variable; violating this raises
    [Invalid_argument]. *)

val alloc_witness : builder -> var

val constrain : ?label:string -> builder -> lc -> lc -> lc -> unit
(** [constrain b a bb c] adds the constraint [⟨a,z⟩·⟨bb,z⟩ = ⟨c,z⟩]. *)

val finalize : name:string -> builder -> circuit
(** Freezes the builder: digests every constraint (SHA-256, once) and
    keeps the rows as synthesis built them, in synthesis order.
    Expensive — meant to run once per circuit family, not per proof. A
    compiled template ({!Template.compile}) keeps only its verification
    key and the row and value counts, so its rows are garbage once it
    is set up. *)

val num_constraints : circuit -> int
val num_public : circuit -> int
val num_witness : circuit -> int
(** Total assignment length including the constant. *)

val digest : circuit -> Hash.t
(** Collision-resistant identifier of the full constraint system. *)

val constraints : circuit -> constr array
(** A copy of the constraints, in synthesis order. For tests and
    reference checkers; not a hot path. *)

val check : circuit -> Fp.t array -> (unit, string) result
(** [check c z] verifies every constraint against a full assignment
    [z] (including the leading 1), scanning the rows in synthesis order
    and stopping at the first violated one, which it reports by label
    or index. [snark.r1cs.constraint_evals] grows by the rows the scan
    evaluated: every constraint when all hold, else the index of the
    first violated one plus one. Only this function adds to that
    counter. A compiled template's prove ({!Template.prove}) checks its
    rows during its count-only run instead and adds nothing, so the
    counter measures the full checks still made: raw-witness
    {!Backend.prove} calls and re-synthesis templates. *)

val unsatisfied : int -> string option -> string
(** [unsatisfied i label] is {!check}'s error for violated constraint
    [i] with the given label. *)

val check_lengths :
  n_public:int -> n_witness:int -> public:int -> witness:int ->
  (unit, string) result
(** The segment-length validation of {!satisfied}, with its error
    strings: a public input of length [public] and a witness of length
    [witness] against a circuit with [n_public] public inputs and
    [n_witness] witness variables. *)

val satisfied : circuit -> public:Fp.t array -> witness:Fp.t array -> (unit, string) result
(** Assembles [z = 1 ‖ public ‖ witness] and checks; first validates the
    segment lengths ({!check_lengths}). *)
