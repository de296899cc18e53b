(** The Latus system state (paper §5.2.1):
    [state = (MST, backward_transfers)].

    [backward_transfers] is the transient list accumulated over the
    current withdrawal epoch, mirrored by a Poseidon accumulator so the
    state hash — the public input of every transition proof — is a
    single field element: [H(mst_root, bt_acc)].

    A state is a persistent value: the MST shares unmodified branches
    across versions, so keeping an earlier state is an O(1) checkpoint
    for reorg rollback. *)

open Zen_crypto
open Zendoo

type t = private {
  mst : Mst.t;
  bts_rev : Backward_transfer.t list;
      (** newest first, so {!append_bt} is O(1); read the epoch's list
          in order through {!backward_transfers} *)
  bt_count : int;
  bt_acc : Fp.t;  (** Poseidon accumulator over the epoch's BTs *)
}

val create : Params.t -> t

val hash : t -> Fp.t
(** [s_i] of §5.4: what base and merge proofs bind. *)

val append_bt : t -> Backward_transfer.t -> t
(** O(1): prepends internally and steps the accumulator; the
    accumulator order (oldest first) is unchanged. *)

val backward_transfers : t -> Backward_transfer.t list
(** The epoch's backward transfers, oldest first — the order the
    accumulator folded them in and the order certificates carry. *)

val bt_count : t -> int

val bt_acc_step : Fp.t -> Backward_transfer.t -> Fp.t
(** One accumulator step — replayed in-circuit by the BT gadgets. *)

val reset_epoch : t -> t
(** New withdrawal epoch: clears the BT list and accumulator and takes
    an MST delta snapshot (Appendix A). *)

val with_mst : t -> Mst.t -> t
