include Zen_mainchain.Mempool.Make (struct
  type t = Sc_tx.admitted

  let txid a = Sc_tx.txid (Sc_tx.admitted_tx a)
end)
