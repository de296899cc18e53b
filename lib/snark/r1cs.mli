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
    compiles the three matrices into flat CSR arrays so satisfiability
    checks run allocation-free. Expensive — meant to run once per
    circuit family, not per proof. *)

val name : circuit -> string
val num_constraints : circuit -> int
val num_public : circuit -> int
val num_witness : circuit -> int
val num_vars : circuit -> int
(** Total assignment length including the constant. *)

val digest : circuit -> Hash.t
(** Collision-resistant identifier of the full constraint system. *)

val eval_lc : Fp.t array -> lc -> Fp.t

val check : circuit -> Fp.t array -> (unit, string) result
(** [check c z] verifies every constraint against a full assignment
    [z] (including the leading 1); on failure reports the label or
    index of the first violated constraint. *)

val satisfied : circuit -> public:Fp.t array -> witness:Fp.t array -> (unit, string) result
(** Assembles [z = 1 ‖ public ‖ witness] and checks; also validates the
    segment lengths. *)
