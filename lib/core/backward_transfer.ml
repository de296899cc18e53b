open Zen_crypto

type t = { receiver_addr : Hash.t; amount : Amount.t }

let make ~receiver_addr ~amount = { receiver_addr; amount }

let encode t =
  Hash.to_raw t.receiver_addr ^ string_of_int (Amount.to_int t.amount)

let hash t = Hash.tagged "cctp.bt" [ encode t ]
let list_root bts = Merkle.root (Merkle.of_leaves (List.map hash bts))
let list_root_fp bts = Hash.to_fp (list_root bts)

let to_fp_pair t = (Hash.to_fp t.receiver_addr, Amount.to_fp t.amount)
