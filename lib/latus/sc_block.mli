(** Latus sidechain blocks (paper §5.1, Fig. 7).

    A block is forged at a slot by that slot's leader, references zero
    or more consecutive MC blocks (carrying the synchronized FTTx/BTRTx
    data inside the references), carries regular sidechain transactions
    and commits the post-state hash. *)

open Zen_crypto

type t = {
  parent : Hash.t;
  height : int;
  slot : int;
  forger_pk : Schnorr.public_key;
  signature : Schnorr.signature;
  mc_refs : Mc_ref.t list;  (** consecutive, ascending MC heights *)
  txs : Sc_tx.t list;
      (** payments and backward transfers; FTTx/BTRTx are derived from
          [mc_refs] deterministically *)
  state_hash : Fp.t;  (** post-state commitment *)
}

val hash : t -> Hash.t
val forger_addr : t -> Hash.t

val forge :
  parent:Hash.t ->
  height:int ->
  slot:int ->
  sk:Schnorr.secret_key ->
  mc_refs:Mc_ref.t list ->
  txs:Sc_tx.t list ->
  state_hash:Fp.t ->
  t

val verify_signature : t -> bool

val genesis_parent : Hash.t
(** Sentinel parent hash of the first sidechain block. *)
