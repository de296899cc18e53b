(** Sidechain Transactions Commitment (paper §4.1.3, Figs. 4 & 12).

    Every MC block header carries [SCTxsCommitment]: the root of a
    two-level Merkle structure over all sidechain-related actions in
    the block. Per sidechain X the subtree commits FTs, BTRs and the
    (at most one) withdrawal certificate; the top tree orders the
    per-sidechain hashes by ledger id, bracketed by minimum/maximum
    sentinel leaves so that *absence* of a sidechain is provable by an
    adjacency proof ([proofOfNoData] in §5.5.1).

    This is what lets a sidechain node verify it has synchronized every
    transaction relevant to it from just the MC block header. *)

open Zen_crypto

type entry = {
  ledger_id : Hash.t;
  fts : Forward_transfer.t list;
  btrs : Mainchain_withdrawal.t list;
  wcert : Withdrawal_certificate.t option;
}

type t

val build : ?pool:Pool.t -> entry list -> (t, string) result
(** Fails on duplicate ledger ids or entries recorded under the wrong
    id. The empty list is valid (blocks with no sidechain traffic).
    [pool] parallelizes the per-sidechain entry hashes and the top-level
    tree build across domains (default {!Pool.sequential}); the root is
    bit-identical for every domain count. *)

val root : t -> Hash.t

val entry_hash : entry -> Hash.t
(** [SCXHash]: reconstructible by a sidechain node from its own view of
    the block's FTs/BTRs/certificate. *)

type membership
(** The [mproof] of §5.5.1. *)

val prove_membership : t -> Hash.t -> membership option
(** [None] when the block holds no data for that ledger id. *)

val verify_membership :
  root:Hash.t -> ledger_id:Hash.t -> entry_hash:Hash.t -> membership -> bool

val membership_size_bytes : membership -> int

type absence
(** The [proofOfNoData] of §5.5.1. *)

val prove_absence : t -> Hash.t -> absence option
(** [None] when the ledger id does have data in the block. *)

val verify_absence : root:Hash.t -> ledger_id:Hash.t -> absence -> bool

val absence_size_bytes : absence -> int

(** {2 Wire formats} — consumed by {!Zen_latus.Mc_ref}'s codec. *)

val write_membership : Wire.writer -> membership -> unit
val read_membership : Wire.reader -> (membership, string) result
val write_absence : Wire.writer -> absence -> unit
val read_absence : Wire.reader -> (absence, string) result
