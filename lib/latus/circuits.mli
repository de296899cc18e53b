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
  pk : Backend.proving_key;
  vk : Backend.verification_key;
  constraints : int;
}

type family

val make : Params.t -> family
(** Compiles and sets up every circuit for the given MST depth.
    Deterministic: two nodes with equal params derive equal keys.

    Each circuit is compiled once into a template: the R1CS shape is
    synthesized and digested here, and every later prove only fills the
    witness assignment (evaluation-mode gadget run, no constraint
    emission, no re-digesting). *)

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

val prove_step :
  family ->
  Sc_state.t ->
  Sc_tx.step ->
  (Backend.proof * Backend.verification_key * Fp.t * Fp.t, string) result
(** Proves one primitive transition from the given state; returns
    (proof, vk, s_from, s_to). The caller applies the step natively to
    continue. *)

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
