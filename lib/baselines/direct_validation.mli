(** Direct-validation baseline: the mainchain replays every sidechain
    transaction itself.

    This is the strawman Zendoo's decoupling argument starts from
    (§3.1: tracking sidechains "would impose enormous computational and
    storage burden on the MC"): to accept a withdrawal the MC verifies
    the sidechain's entire epoch — every signature, every MST update.
    Cost grows linearly with sidechain activity; experiment E7 plots it
    against the constant SNARK verification. *)

val replay_epoch :
  initial:Zen_latus.Sc_state.t ->
  txs:Zen_latus.Sc_tx.t list ->
  (Zen_latus.Sc_state.t, string) result
(** Full validation + application of an epoch's transactions, exactly
    what the MC would have to run per sidechain per epoch. *)

val epoch_data_bytes : txs:Zen_latus.Sc_tx.t list -> int
(** Bytes the MC would need to download for the replay. *)
