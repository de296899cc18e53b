(** Block-level certificate aggregation: fold every withdrawal-
    certificate proof of a candidate mainchain block — across
    sidechains — into one constant-size recursive proof.

    {!Recursive} folds adjacent state transitions of a single sidechain
    ([s_to] of one proof is [s_from] of the next). Certificates of one
    block share no such adjacency: each is verified under its own
    sidechain's vk against its own epoch boundaries. The heterogeneous
    merge statement here therefore binds a {e set}, not a chain: each
    {!leaf} digests the full verification instance of one certificate —
    (sidechain id, epoch, certificate hash, vk digest, proof bytes,
    epoch-boundary block hashes) — and merge nodes hash pairwise up to
    a single root. The aggregate's public input is (root, count); its
    proof attests that every covered instance verifies.

    Simulation discipline (DESIGN.md §3, as in {!Recursive}): the
    wrap/merge prover verifies its children natively — each leaf's
    certificate proof through the exact verification the per-certificate
    path would run — and then proves a constant-size binding circuit.
    An aggregate is only producible through {!build}, which refuses any
    leaf whose certificate verification fails, so "aggregate verifies"
    is equivalent to "every covered certificate verifies". The pairing
    is positional with the odd trailing element carried up, identical
    to {!Recursive.Incremental}'s tree, so {!root_of_digests} lets a verifier
    recompute the expected root from the block's certificates without
    touching proofs. *)

open Zen_crypto

type leaf = {
  sc_id : Hash.t;  (** sidechain ledger id *)
  epoch : int;
  cert_hash : Hash.t;  (** {!Zendoo.Withdrawal_certificate.hash} *)
  vk_digest : Hash.t;  (** the registered wcert vk this cert verifies under *)
  proof_bytes : string;  (** the certificate's SNARK proof, encoded *)
  end_prev_epoch : Hash.t;  (** wcert_sysdata boundary block hashes *)
  end_epoch : Hash.t;
}
(** One certificate-verification instance. Binding the proof bytes and
    boundary hashes (not just the cert hash) makes the leaf digest
    coincide with the inputs of {!Zendoo.Verifier.wcert_job}'s cache
    key: an aggregate accepts exactly when each covered certificate's
    own verification would. *)

val leaf_digest : leaf -> Hash.t
val node_hash : Hash.t -> Hash.t -> Hash.t

val root_of_digests : Hash.t list -> Hash.t option
(** The merge-tree root over leaf digests in block order — the same
    positional pairwise reduction {!build} performs (odd trailing
    element carried up unchanged). [None] on the empty list. *)

type system
(** Setup of the constant-size aggregation circuit (one circuit serves
    leaf wraps and merges — the statement shape is identical). *)

val shared : unit -> system
(** The process-wide system, created on first use. Setup is
    deterministic, so every process agrees on {!vk_digest} — miners and
    validators need no key exchange. *)

val vk : system -> Backend.verification_key
val vk_digest : system -> Hash.t

val template : system -> (Fp.t * Fp.t) Template.t
(** The compiled aggregation circuit over [(root, count)]: set up once
    by {!shared}; leaf wraps and merges only fill its witness
    assignment. *)

type t
(** A sealed aggregate: merge-tree root, covered-certificate count, and
    the constant-size proof. *)

val root : t -> Hash.t
val count : t -> int
val proof : t -> Backend.proof

val digest : t -> Hash.t
(** Commitment to the whole object (root, count, proof bytes) — what a
    block header binds so the aggregate is covered by proof of work. *)

val build :
  ?pool:Pool.t ->
  system ->
  (leaf * (unit -> bool)) list ->
  (t, string) result
(** Folds the given certificate instances (block order) into one
    aggregate. Each leaf's [check] thunk must run that certificate's
    native SNARK verification — the simulation stand-in for in-circuit
    verification; a leaf whose check fails aborts the build. Leaf wraps
    and each merge level fan out on [pool] (default
    {!Pool.sequential}); result and error are bit-identical for every
    domain count. Fails on the empty list. *)

val verify : system -> t -> bool
(** One constant-time proof verification against the public input
    (root, count) — block validation's entire SNARK cost. *)

val of_parts : root:Hash.t -> count:int -> proof:Backend.proof -> t
(** Reassembles a wire-decoded aggregate. Unchecked: callers must
    {!verify} (and recompute the root) before trusting it. *)
