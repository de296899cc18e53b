include Zen_mainchain.Mempool.Make (Sc_tx)
