(** Poseidon-style algebraic sponge over {!Fp}.

    The SNARK-friendly hash of the system: Merkle State Tree nodes,
    in-circuit Merkle path checks and state commitments all use this
    permutation, because inside an arithmetic constraint system it costs
    a handful of field multiplications per round instead of thousands of
    boolean gates for SHA-256.

    Instance: width [t = 3] (rate 2, capacity 1), S-box [x^17] (17 is
    coprime to [p − 1] for p = 2^61 − 1, so the S-box is a permutation),
    8 full + 22 partial rounds, round constants and MDS matrix derived
    from SHA-256 of a domain tag. See DESIGN.md §3 for why this
    parameterization is a faithful stand-in. *)

val permute : Fp.t array -> Fp.t array
(** The width-3 permutation. Raises [Invalid_argument] unless the input
    has length 3. The input array is not mutated; the result is a fresh
    array, the only allocation. *)

val permute_uncounted : Fp.t array -> Fp.t array
(** {!permute}, without counting it in
    [crypto.poseidon.permutations]. The in-circuit Poseidon of a
    prover's run ([Zen_snark.Gadget.create_count]) computes its lanes
    with it: those permutations are circuit rows, not native hashes. *)

val hash2 : Fp.t -> Fp.t -> Fp.t
(** Two-to-one compression — the Merkle-node combiner. Allocates
    nothing. *)

val hash_list : Fp.t list -> Fp.t
(** Sponge absorption of an arbitrary-length field-element message. *)

val rounds_full : int
val rounds_partial : int
val width : int

val round_constants : Fp.t array
(** Flat [(rounds_full + rounds_partial) × width] ARC table; exposed so
    the in-circuit Poseidon gadget replays the identical permutation. *)

val mds : Fp.t array array
