open Zen_crypto
open Zendoo

type t = {
  mst : Mst.t;
  bts_rev : Backward_transfer.t list; (* newest first: O(1) append *)
  bt_count : int;
  bt_acc : Fp.t;
}

let create params =
  { mst = Mst.create params; bts_rev = []; bt_count = 0; bt_acc = Fp.zero }

let hash t = Poseidon.hash2 (Mst.root t.mst) t.bt_acc

let bt_acc_step acc (bt : Backward_transfer.t) =
  let recv, amt = Backward_transfer.to_fp_pair bt in
  Poseidon.hash2 acc (Poseidon.hash2 recv amt)

let append_bt t bt =
  {
    t with
    bts_rev = bt :: t.bts_rev;
    bt_count = t.bt_count + 1;
    bt_acc = bt_acc_step t.bt_acc bt;
  }

let backward_transfers t = List.rev t.bts_rev
let bt_count t = t.bt_count

let reset_epoch t =
  { mst = Mst.snapshot t.mst; bts_rev = []; bt_count = 0; bt_acc = Fp.zero }

let with_mst t mst = { t with mst }
