(** Mainchain block references (paper §5.5.1).

    A sidechain block carries one reference per acknowledged MC block:
    the MC header plus this sidechain's slice of the block's actions,
    authenticated against the header's [SCTxsCommitment] — either an
    [mproof] (the sidechain has data in the block) or a
    [proofOfNoData] (it provably has none). A sidechain node therefore
    never needs full MC block bodies from its peers. *)

open Zen_crypto
open Zen_mainchain
open Zendoo

type t = {
  header : Block.header;
  mproof : Sc_commitment.membership option;
  proof_of_no_data : Sc_commitment.absence option;
  fts : Forward_transfer.t list;
  btrs : Mainchain_withdrawal.t list;
  wcert : Withdrawal_certificate.t option;
}

val build : ledger_id:Hash.t -> Block.t -> (t, string) result
(** Extracts this sidechain's slice from a full MC block and attaches
    the appropriate commitment proof. *)

val verify : ledger_id:Hash.t -> t -> (unit, string) result
(** Recomputes the per-sidechain entry hash from the carried data and
    checks it (or its absence) against [header.sc_txs_commitment]. *)

val block_hash : t -> Hash.t
val height : t -> int
