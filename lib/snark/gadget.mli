(** Circuit gadgets: the helpers a circuit body is written with.

    A body runs in one of two contexts. At setup, synthesis
    ({!create}) emits its constraints into an R1CS builder while
    computing every wire's value. Each prove then runs the same body in
    a count-only context ({!create_count}), which computes the same
    values, counts the rows and checks the assertions among them,
    without building a constraint.

    A {!wire} pairs a linear combination with its concrete value, so
    additions and scalings are free (no constraint, no new variable)
    while multiplications allocate one witness variable and one
    constraint — the R1CS cost model. The in-circuit Poseidon
    permutation built here is what gives the Latus state-transition
    circuits their realistic size: one {!poseidon2} adds 263
    constraints and 263 witness variables. *)

open Zen_crypto

type ctx
type wire

val create : unit -> ctx
(** Synthesis (shape) context: gadget calls emit constraints into an
    R1CS builder while computing wire values. Read the result with
    {!finalize}. *)

val create_count : public:int -> ctx
(** The prover's evaluation context ({!Backend.setup_body}). The same
    gadget code runs, but no constraint is emitted and no linear
    combination over a variable is built: an {!input} or {!witness}
    wire carries none, and neither does any {!add}, {!sub}, {!scale}
    or {!sum} that reaches one. Only a combination of constants alone
    ({!const} and sums of constants) keeps its short list, as in
    synthesis. A wire's term count is tracked in both contexts, so
    every structural decision (e.g. lc materialization) replays
    identically and the run allocates the witnesses and rows synthesis
    would, in the same order.

    The public column holds its values (read it with
    {!public_values}); the witness column keeps only its length. The
    run counts the rows synthesis would have emitted, in synthesis
    order, and checks each assertion row ({!assert_eq},
    {!assert_bool}, and so {!assert_le_bits}'s bool and sum rows) on the wire
    values when it reaches it, keeping the first that fails. Every
    other row holds by construction: a multiplication, a
    materialization or {!is_zero}'s hints compute their output wire as
    the value that satisfies the row. Read the result with {!verdict}.

    Its {!poseidon2} and {!poseidon_hash} compute each permutation
    natively ({!Zen_crypto.Poseidon.permute_uncounted}) and add the
    permutation's fixed witness and row counts, read once off a generic
    run: every Poseidon row holds by construction, and the counts do
    not depend on the inputs because the first round is full. Output
    wires carry the term counts synthesis would give them, so a later
    materialization decides alike. [public] is the public column's
    size hint: a template passes its circuit's {!R1cs.num_public}, so
    the column is allocated once. *)

val input : ctx -> Fp.t -> wire
(** Allocates a public-input wire carrying the given value. Must be
    called before any witness allocation; raises [Invalid_argument]
    otherwise, with the same message in both contexts. *)

val witness : ctx -> Fp.t -> wire
val const : Fp.t -> wire

val value : wire -> Fp.t

val terms : wire -> int
(** The length of the wire's linear combination, tracked in both
    contexts: the in-circuit Poseidon's materialization decisions read
    it, so contexts that agree on it replay the same witnesses and
    rows. *)

val add : wire -> wire -> wire
val sub : wire -> wire -> wire
val scale : Fp.t -> wire -> wire
val sum : wire list -> wire

val mul : ctx -> wire -> wire -> wire

val assert_eq : ?label:string -> ctx -> wire -> wire -> unit
val assert_bool : ?label:string -> ctx -> wire -> unit
(** Constrains [w·(w−1) = 0]. *)

val is_zero : ctx -> wire -> wire
(** Boolean wire: 1 iff the input is zero (standard inv-or-zero trick). *)

val select : ctx -> cond:wire -> wire -> wire -> wire
(** [select ~cond a b] is [a] when the boolean [cond] is 1, else [b]. *)

val assert_le_bits : ctx -> wire -> int -> unit
(** Range check: the value fits in [n] bits. Decomposes it into [n]
    little-endian boolean witness wires (one bool row each) and
    constrains their recomposition to equal it (one sum row). Raises
    [Invalid_argument] at synthesis if the value does not fit. *)

val poseidon2 : ctx -> wire -> wire -> wire
(** In-circuit two-to-one Poseidon; matches {!Zen_crypto.Poseidon.hash2}. *)

val poseidon_hash : ctx -> wire list -> wire
(** In-circuit sponge over a fixed-length message; matches
    {!Zen_crypto.Poseidon.hash_list}. *)

val merkle_root : ctx -> leaf:wire -> path_bits:wire list -> siblings:wire list -> wire
(** Recomputes a sparse-Merkle-tree root from a leaf hash wire, the
    position bits (leaf-to-root, booleans) and sibling hash wires;
    matches {!Zen_crypto.Smt.verify}. *)

val public_values : ctx -> Fp.t array
(** The public values accumulated so far, in either context. A column
    that filled its size hint exactly is returned without a copy, so it
    shares storage with the context; the context itself never writes
    to it again. *)

val verdict :
  public:int -> witness:int -> rows:int -> ctx -> (unit, string) result
(** For a {!create_count} context whose body has run to the end: what
    {!R1cs.satisfied} would say of its assignment against a circuit
    with [public] public inputs, [witness] witness variables and [rows]
    constraints, without evaluating a row. The counts are all a caller
    keeps of the circuit, so a compiled template holds no rows. The
    public and witness lengths are checked first, with
    {!R1cs.check_lengths}'s errors; then a row count other than [rows]
    is ["circuit shape diverged from setup"]; then the first failed
    assertion row is reported as {!R1cs.check} reports it. Equal to
    {!R1cs.satisfied} on the synthesis of the same values whenever the
    body emits the circuit's rows in order, which a template's
    value-independent body does. Raises [Invalid_argument] on a
    synthesis context. *)

val finalize : name:string -> ctx -> R1cs.circuit * Fp.t array * Fp.t array
(** Freezes the circuit and returns [(circuit, public, witness)] — the
    assignment segments accumulated during synthesis. Raises
    [Invalid_argument] on a count-only context. *)
