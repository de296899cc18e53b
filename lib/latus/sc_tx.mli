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
val parse_ft_metadata : string -> (Hash.t * Hash.t) option

type ft_outcome =
  | Ft_accepted of Utxo.t
  | Ft_rejected of Backward_transfer.t
      (** coins bounce back to the payback address via the standard BT
          mechanism (§5.3.2) *)

val ft_outcome : Sc_state.t -> Forward_transfer.t -> ft_outcome
(** Deterministic: malformed metadata or an MST slot collision rejects
    the transfer. *)

type btr_outcome =
  | Btr_accepted of Utxo.t * Backward_transfer.t
  | Btr_skipped of string

val btr_outcome : Sc_state.t -> Mainchain_withdrawal.t -> btr_outcome

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

val transition :
  Sc_state.t -> t -> (Sc_state.t * (Sc_state.t * step) list, string) result
(** Checks the static rules of a payment or BT (inputs present,
    witnesses, nonce discipline, conservation, BT amount), then applies
    each step exactly once. Returns the post-state and every step in
    application order, paired with the state before it. FT and BTR
    outcomes are computed against the state their predecessors left
    (an FT bounces on a slot collision, a BTR is skipped when its coin
    is gone); they never fail. *)

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
  Sc_state.t -> step list -> (Sc_state.t * (Sc_state.t * step) list, string) result
(** Folds {!apply_step} over a step list, pairing each step with the
    state before it: the inputs of the step's base proof. *)

val pp : Format.formatter -> t -> unit
