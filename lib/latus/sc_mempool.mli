(** The sidechain node's transaction pool: the mainchain's txid-indexed
    FIFO ({!Zen_mainchain.Mempool.Make}) over admitted Latus
    transactions. Only {!Sc_tx.admit} makes an element, so everything
    pooled passed its witness checks, and forging re-runs only the
    state rules ({!Sc_tx.transition_admitted}). *)

include Zen_mainchain.Mempool.S with type elt = Sc_tx.admitted
