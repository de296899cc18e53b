(** Latus transactions (paper §5.3) and their state-transition
    semantics.

    Payment and BackwardTransfer transactions originate in the
    sidechain; ForwardTransfers and BackwardTransferRequests
    transactions synchronize MC-submitted actions into the sidechain
    when the containing MC block is referenced (§5.3.2, §5.3.4).

    Arity limits keep transactions compatible with the fixed-shape
    base circuits: payments carry at most two inputs and two outputs;
    a backward-transfer transaction spends exactly one UTXO into
    exactly one BT. Larger logical transfers chain several
    transactions. *)

open Zen_crypto
open Zendoo

type payment = {
  inputs : Utxo.t list;  (** 1 or 2 *)
  witnesses : (Schnorr.public_key * Schnorr.signature) list;
      (** one per input, same order *)
  outputs : Utxo.t list;  (** 1 or 2; nonces must follow {!output_nonce} *)
}

type backward = {
  bt_input : Utxo.t;
  bt_witness : Schnorr.public_key * Schnorr.signature;
  bt : Backward_transfer.t;
}

type t =
  | Payment of payment
  | Forward_transfers_tx of { mcid : Hash.t; fts : Forward_transfer.t list }
  | Backward_transfer_tx of backward
  | Backward_transfer_requests_tx of {
      mcid : Hash.t;
      btrs : Mainchain_withdrawal.t list;
    }

val txid : t -> Hash.t

val payment_seed : Utxo.t list -> Hash.t
(** Seed binding a payment's fresh nonces to its inputs. *)

val output_nonce : seed:Hash.t -> index:int -> Hash.t

val payment_sighash : inputs:Utxo.t list -> outputs:Utxo.t list -> Hash.t
val bt_sighash : input:Utxo.t -> bt:Backward_transfer.t -> Hash.t

(** {2 Forward-transfer metadata (Latus encoding, §5.3.2)} *)

val ft_metadata : receiver:Hash.t -> payback:Hash.t -> string

(** {2 State transitions}

    Every transaction decomposes into a sequence of primitive state
    transitions — the granularity at which base SNARK proofs are
    produced (§5.4, Fig. 10). A transaction's [update] function (§5.3)
    is {!transition}: the static rules, then each of its steps applied
    once. *)

type step =
  | Remove of Utxo.t
  | Insert of Utxo.t
  | Append_bt of Backward_transfer.t

type traced = { pre : Sc_state.t; step : step; post : Sc_state.t }
(** One applied step with the state before it and the state it left:
    everything the step's base proof needs. [post] is the state the
    one application of [step] computed, so a prover reads its [s_to]
    from it instead of applying the step again. *)

val transition :
  Sc_state.t -> t -> (Sc_state.t * traced list, string) result
(** Checks the static rules of a payment or BT (inputs present,
    witnesses, nonce discipline, conservation, BT amount), then applies
    each step exactly once. Returns the post-state and the {!traced}
    record of every step in application order. FT and BTR outcomes are
    computed against the state their predecessors left; they never
    fail. An FT inserts its receiver's coin, or appends a BT of its
    amount when its coin's slot is taken (to the payback address, §5.3.2)
    or its metadata is malformed (to the zero address, which burns the
    coins). A BTR removes its coin and appends a BT to its receiver, or
    has no step when the coin is gone or does not match the request. *)

val validate : Sc_state.t -> t -> (unit, string) result
(** {!transition}'s verdict. FT and BTR transactions are always [Ok]:
    their outcomes are computed, and {!Mc_ref} checks them against the
    MC block. *)

val apply : Sc_state.t -> t -> (Sc_state.t, string) result
(** {!transition}'s post-state. *)

val apply_steps :
  ?batched:bool -> Sc_state.t -> step list -> (Sc_state.t, string) result
(** Commits a step sequence: the MST inserts/removes go through one
    merged {!Mst.apply_ops} traversal (one root-path rehash per
    distinct touched slot) while BT appends fold in order. Result and
    first error equal those of applying the steps one at a time.

    [batched] is a leftover label: the benchmark in [perfbench/] still
    passes [~batched:true], the only accepted value; [~batched:false]
    raises [Invalid_argument]. The label goes when the benchmark stops
    passing it (ROADMAP item 1). *)

val apply_step : Sc_state.t -> step -> (Sc_state.t, string) result
(** [apply_steps] of the one step. *)

val trace :
  Sc_state.t -> step list -> (Sc_state.t * traced list, string) result
(** Folds {!apply_step} over a step list, applying each step once and
    recording it as a {!traced} record: the inputs of the step's base
    proof. Returns the final state and the records in order, or the
    first step's error. *)
