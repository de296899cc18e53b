(** The sidechain node's transaction pool: the mainchain's txid-indexed
    FIFO ({!Zen_mainchain.Mempool.Make}) over Latus transactions.
    Validation stays at submission and at forge selection. *)

include Zen_mainchain.Mempool.S with type elt = Sc_tx.t
