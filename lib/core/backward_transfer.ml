open Zen_crypto

type t = { receiver_addr : Hash.t; amount : Amount.t }

let make ~receiver_addr ~amount = { receiver_addr; amount }

let encode t =
  Hash.to_raw t.receiver_addr ^ string_of_int (Amount.to_int t.amount)

let hash t = Hash.tagged "cctp.bt" [ encode t ]
let equal a b = Hash.equal (hash a) (hash b)

let list_tree bts = Merkle.of_leaves (List.map hash bts)
let list_root bts = Merkle.root (list_tree bts)
let list_root_fp bts = Hash.to_fp (list_root bts)
let membership_proof bts i = Merkle.prove (list_tree bts) i

let to_fp_pair t = (Hash.to_fp t.receiver_addr, Amount.to_fp t.amount)
