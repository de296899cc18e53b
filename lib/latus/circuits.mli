(** The Latus SNARK circuits (paper §5.4, §5.5.3).

    Base transition circuits operate at the granularity of primitive
    state transitions ({!Sc_tx.step}): one MST slot write or one
    backward-transfer accumulation per proof, each a fixed-shape R1CS
    whose size depends only on the MST depth. They are the leaves of
    the recursive composition (Figs. 10–11).

    Two more circuits face the mainchain through the unified 5-input
    verifier interface: the withdrawal-certificate circuit and the
    BTR/CSW "ownership" circuit (§5.5.3.2: the proof shows a UTXO
    belongs to a historically committed MST and opens its amount).

    Division of labour in the simulated backend (DESIGN.md §3): Merkle
    paths, state-hash openings, accumulator steps and amount equalities
    are genuinely in-circuit; SHA-based commitments (MH(BTList),
    MC block hashes), signature checks and child-proof verification are
    enforced natively by the prover before synthesis. *)

open Zen_crypto
open Zen_snark
open Zendoo

type keys = Template.keys = {
  vk : Backend.verification_key;
  constraints : int;
}

(** {2 Circuit values}

    What each circuit's gadget body reads. A template proves any value
    of its type: the body's assertions decide whether the values form a
    true statement. *)

type slot_values = {
  acc : Fp.t;  (** the BT accumulator, unchanged by a slot write *)
  addr : Fp.t;
  amt : Fp.t;
  nonce : Fp.t;
  pos : int;  (** the MST slot; its [mst_depth] low bits are the path *)
  siblings : Fp.t list;  (** leaf to root *)
  s_from_v : Fp.t;
  s_to_v : Fp.t;
}
(** Remove (occupied → empty) and Insert (empty → occupied) of one MST
    slot. *)

type append_values = {
  a_root : Fp.t;
  a_acc0 : Fp.t;
  a_recv : Fp.t;
  a_amt : Fp.t;
  a_s_from : Fp.t;
  a_s_to : Fp.t;
}
(** One backward-transfer accumulator step. *)

type wcert_values = {
  w_public : Fp.t array;
      (** quality, bt_root, end_prev_epoch, end_epoch, proofdata root *)
  w_s_prev : Fp.t;
  w_s_last : Fp.t;
}

type ownership_values = {
  o_public : Fp.t array;
      (** reference block, nullifier, receiver, amount, proofdata root *)
  o_addr : Fp.t;
  o_amt : Fp.t;
  o_nonce : Fp.t;
  o_pos : int;
  o_siblings : Fp.t list;
  o_root : Fp.t;
}

type family = private {
  params : Params.t;
  remove : slot_values Template.t;
  insert : slot_values Template.t;
  append : append_values Template.t;
  wcert : wcert_values Template.t;
  ownership : ownership_values Template.t;
}

val make : Params.t -> family
(** Compiles and sets up every circuit for the given MST depth.
    Deterministic: two nodes with equal params derive equal keys.

    Each circuit is compiled once into a template: the R1CS shape is
    synthesized and digested here, and every later prove only runs the
    body once more (a count-only gadget run that stores no witness, no
    constraint emission, no re-digesting). *)

val make_resynth : Params.t -> family
(** The reference family: the same circuits and keys as {!make}, but
    every prove re-synthesizes its circuit, re-digests it and refuses a
    shape that diverged from the keys. Proof bytes equal {!make}'s for
    every input; tests and experiment E16 prove through it to check
    and to price the templates. *)

val base_vks : family -> Backend.verification_key list
(** The leaf verification keys for {!Zen_snark.Recursive.create}. *)

val wcert_keys : family -> keys
val ownership_keys : family -> keys

val prove_traced :
  family ->
  s_from:Fp.t ->
  s_to:Fp.t ->
  Sc_tx.traced ->
  (Backend.proof * Backend.verification_key * Fp.t * Fp.t, string) result
(** Proves one traced primitive transition whose pre- and post-state
    hash to [s_from] and [s_to]; returns (proof, vk, s_from, s_to). It
    is {!Zen_snark.Template.prove} on {!step_job}'s template and
    values: one count-only run of the circuit's body
    ({!Zen_snark.Gadget.create_count}), with no second pass over its
    rows on a {!make} family. [Proof_pipeline]
    calls it on the records {!Sc_tx.trace} and {!Sc_tx.transition}
    return, so no step is applied twice, and passes each state's hash
    to both records that share the state. *)

val prove_step :
  family ->
  Sc_state.t ->
  Sc_tx.step ->
  (Backend.proof * Backend.verification_key * Fp.t * Fp.t, string) result
(** {!prove_traced} on the record of [step] applied once at the given
    state. A step invalid at that state fails with {!step_job}'s error.
    The caller applies the step natively to continue. *)

type _ kind = Slot : slot_values kind | Append : append_values kind

type step_job =
  | Step : 'v kind * 'v Template.t * 'v * Fp.t * Fp.t -> step_job
      (** The step's template, the values it proves and
          (s_from, s_to). *)

val step_job :
  family -> s_from:Fp.t -> s_to:Fp.t -> Sc_tx.traced -> (step_job, string) result
(** The one place a step picks its circuit ([remove], [insert] or
    [append]) and computes its values. The witness comes from [pre];
    [s_from] and [s_to] are the caller's [Sc_state.hash pre] and
    [Sc_state.hash post], so no step is applied and no state is hashed
    here. Fails on a Remove of a UTXO [pre] lacks ("prove: utxo not in
    state") and on an Insert into a slot [pre] has occupied ("prove:
    slot occupied"). Neither hash is checked here: the circuit
    recomputes both state roots and refuses a [post] that is not [step]
    applied to [pre], or a hash that is not its state's, at the
    [slot.s_from]/[slot.s_to] or [append.s_from]/[append.s_to] row.
    The [kind] lets tests alter the values before proving them. *)

val prove_wcert_binding :
  family ->
  quality:int ->
  bt_root:Hash.t ->
  end_prev_epoch:Hash.t ->
  end_epoch:Hash.t ->
  proofdata:Proofdata.t ->
  s_prev:Fp.t ->
  s_last:Fp.t ->
  (Backend.proof, string) result
(** The certificate-facing proof. The semantic statement (§5.5.3.1's
    bullet list) must be established by the caller ({!Prover}) before
    this binding is produced. *)

val prove_ownership :
  family ->
  mst:Mst.t ->
  utxo:Utxo.t ->
  reference_block:Hash.t ->
  receiver:Hash.t ->
  proofdata:Proofdata.t ->
  (Backend.proof, string) result
(** BTR/CSW proof: in-circuit membership of [utxo] in [mst] (the
    historically committed state) and amount opening; the public input
    carries the §4.1.2.1 [btr_sysdata]. *)
