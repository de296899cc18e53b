(* Merkle hash trees (Fig. 2) and the sparse Merkle tree behind the MST. *)

open Zen_crypto

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let data n = List.init n (fun i -> Printf.sprintf "block-%d" i)

let test_mht_roundtrip () =
  List.iter
    (fun n ->
      let t = Merkle.of_data (data n) in
      List.iteri
        (fun i d ->
          let p = Merkle.prove t i in
          checkb
            (Printf.sprintf "n=%d i=%d" n i)
            true
            (Merkle.verify ~root:(Merkle.root t) ~leaf:(Hash.of_string d) p))
        (data n))
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_mht_rejects_wrong_leaf () =
  let t = Merkle.of_data (data 8) in
  let p = Merkle.prove t 3 in
  checkb "wrong leaf" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:(Hash.of_string "evil") p);
  (* proof for index 3 must not verify at another position's leaf *)
  checkb "wrong index leaf" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:(Hash.of_string "block-4") p)

let test_mht_rejects_wrong_root () =
  let t = Merkle.of_data (data 8) in
  let t2 = Merkle.of_data (data 9) in
  let p = Merkle.prove t 0 in
  checkb "wrong root" false
    (Merkle.verify ~root:(Merkle.root t2) ~leaf:(Hash.of_string "block-0") p)

let test_mht_depth_log () =
  checki "8 leaves" 3 (Merkle.depth (Merkle.of_data (data 8)));
  checki "9 leaves" 4 (Merkle.depth (Merkle.of_data (data 9)));
  checki "1 leaf" 0 (Merkle.depth (Merkle.of_data (data 1)))

let test_mht_empty () =
  let t = Merkle.of_leaves [] in
  Alcotest.check_raises "no leaves" (Invalid_argument "Merkle.prove: empty tree")
    (fun () -> ignore (Merkle.prove t 0));
  (* Root of empty tree is well-defined and distinct from any data tree. *)
  checkb "distinct from singleton" false
    (Hash.equal (Merkle.root t) (Merkle.root (Merkle.of_data [ "" ])))

let test_mht_second_preimage_guard () =
  (* A leaf equal to an interior node's raw value must not verify at
     the wrong layer: leaf/node tags differ. *)
  let t = Merkle.of_data (data 4) in
  let p = Merkle.prove t 0 in
  let fake = Merkle.leaf_hash (Hash.of_string "block-0") in
  checkb "tag separation" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:fake p)

(* ---- SMT: Smt.update_batch against Smt_oracle ---- *)

let fp = Fp.of_int
let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* One write at a time, each its own batch. *)
let write t pos v = ok (Smt.update_batch t [ (pos, v) ])
let set t pos v = write t pos (Some v)
let remove t pos = write t pos None

let check_oracle msg smt writes =
  let o = ok (Smt_oracle.apply (Smt_oracle.create ~depth:(Smt.depth smt)) writes) in
  checkb msg true (Smt_oracle.agrees smt o)

let test_smt_set_get_remove () =
  let t = Smt.create ~depth:8 in
  let t = set t 5 (fp 55) in
  let t = set t 200 (fp 77) in
  Alcotest.(check (option int))
    "get 5" (Some 55)
    (Option.map Fp.to_int (Smt.get t 5));
  checki "occupied" 2 (Smt.occupied t);
  let t = remove t 5 in
  Alcotest.(check (option int)) "removed" None (Option.map Fp.to_int (Smt.get t 5));
  checki "occupied after remove" 1 (Smt.occupied t);
  check_oracle "= oracle" t [ (200, Some (fp 77)) ]

let test_smt_empty_root_depth_dependent () =
  checkb "roots differ by depth" false
    (Fp.equal (Smt.root (Smt.create ~depth:4)) (Smt.root (Smt.create ~depth:5)));
  List.iter
    (fun depth ->
      checkb
        (Printf.sprintf "empty root = oracle, depth %d" depth)
        true
        (Fp.equal
           (Smt.root (Smt.create ~depth))
           (Smt_oracle.root (Smt_oracle.create ~depth))))
    [ 1; 4; 18; 60 ]

let test_smt_remove_restores_root () =
  let t0 = Smt.create ~depth:10 in
  let t1 = set t0 17 (fp 1) in
  let t2 = remove t1 17 in
  checkb "root restored" true (Fp.equal (Smt.root t0) (Smt.root t2));
  let t3 = ok (Smt.update_batch t0 [ (17, Some (fp 1)); (17, None) ]) in
  checkb "root restored in one batch" true (Fp.equal (Smt.root t0) (Smt.root t3))

(* Later writes to a position override earlier ones in the same batch;
   emptying an empty slot changes nothing. *)
let test_smt_batch_semantics () =
  let t0 = ok (Smt.update_batch (Smt.create ~depth:6) [ (3, Some (fp 3)) ]) in
  let dup = [ (5, Some (fp 1)); (9, Some (fp 9)); (5, Some (fp 2)) ] in
  let t = ok (Smt.update_batch t0 dup) in
  Alcotest.(check (option int))
    "last write wins" (Some 2)
    (Option.map Fp.to_int (Smt.get t 5));
  check_oracle "duplicates = oracle" t ((3, Some (fp 3)) :: dup);
  let t' = ok (Smt.update_batch t0 [ (40, None); (41, None) ]) in
  checkb "removing empty slots keeps the root" true
    (Fp.equal (Smt.root t0) (Smt.root t'));
  checki "removing empty slots keeps occupancy" 1 (Smt.occupied t');
  check_oracle "empty removes = oracle" t' [ (3, Some (fp 3)) ]

let test_smt_proofs () =
  let t =
    ok
      (Smt.update_batch (Smt.create ~depth:10)
         (List.map (fun i -> (i, Some (fp (i * 7)))) [ 0; 1; 513; 1023 ]))
  in
  List.iter
    (fun pos ->
      let p = Smt.prove t pos in
      checkb
        (Printf.sprintf "member %d" pos)
        true
        (Smt.verify ~root:(Smt.root t) ~pos ~leaf:(Some (fp (pos * 7))) ~depth:10 p))
    [ 0; 1; 513; 1023 ];
  (* non-membership *)
  let p = Smt.prove t 2 in
  checkb "empty slot" true
    (Smt.verify ~root:(Smt.root t) ~pos:2 ~leaf:None ~depth:10 p);
  checkb "wrong value rejected" false
    (Smt.verify ~root:(Smt.root t) ~pos:2 ~leaf:(Some (fp 9)) ~depth:10 p)

let test_smt_order_independence () =
  let ops = [ (3, 30); (900, 90); (44, 44); (1000, 10) ] in
  let build l =
    List.fold_left (fun t (p, v) -> set t p (fp v)) (Smt.create ~depth:10) l
  in
  let batch l =
    ok
      (Smt.update_batch (Smt.create ~depth:10)
         (List.map (fun (p, v) -> (p, Some (fp v))) l))
  in
  checkb "insertion order irrelevant" true
    (Fp.equal (Smt.root (build ops)) (Smt.root (build (List.rev ops))));
  checkb "batch order irrelevant" true
    (Fp.equal (Smt.root (batch ops)) (Smt.root (batch (List.rev ops))));
  checkb "one batch = one write at a time" true
    (Fp.equal (Smt.root (batch ops)) (Smt.root (build ops)))

let test_smt_bounds () =
  let t = Smt.create ~depth:4 in
  Alcotest.check_raises "oob" (Invalid_argument "Smt: position out of range")
    (fun () -> ignore (Smt.get t 16))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:100 gen f)

(* Writes over a depth-8 tree: a small value range and [None] make
   duplicate positions, overwrites and removes of empty slots common. *)
let gen_writes =
  QCheck2.Gen.(
    list_size (int_bound 40)
      (pair (int_bound 255) (option (map Fp.of_int (int_bound 1000000)))))

let oracle_of writes = ok (Smt_oracle.apply (Smt_oracle.create ~depth:8) writes)

let props =
  [
    prop "smt fold = applied ops" gen_writes (fun writes ->
        let t =
          List.fold_left
            (fun t (p, v) -> write t p v)
            (Smt.create ~depth:8) writes
        in
        Smt_oracle.agrees t (oracle_of writes));
    prop "smt update_batch = oracle" QCheck2.Gen.(pair gen_writes gen_writes)
      (fun (base, writes) ->
        let t0 = ok (Smt.update_batch (Smt.create ~depth:8) base) in
        let t = ok (Smt.update_batch t0 writes) in
        Smt_oracle.agrees t0 (oracle_of base)
        && Smt_oracle.agrees t (oracle_of (base @ writes)));
    prop "smt proofs verify for random ops" gen_writes (fun writes ->
        let t = ok (Smt.update_batch (Smt.create ~depth:8) writes) in
        List.for_all
          (fun (p, _) ->
            Smt.verify ~root:(Smt.root t) ~pos:p ~leaf:(Smt.get t p) ~depth:8
              (Smt.prove t p))
          writes);
    prop "mht proofs verify for random sizes" QCheck2.Gen.(int_range 1 64)
      (fun n ->
        let t = Merkle.of_data (data n) in
        List.for_all
          (fun i ->
            Merkle.verify ~root:(Merkle.root t)
              ~leaf:(Hash.of_string (Printf.sprintf "block-%d" i))
              (Merkle.prove t i))
          (List.init n Fun.id));
  ]

let suite =
  ( "merkle",
    [
      Alcotest.test_case "mht roundtrip" `Quick test_mht_roundtrip;
      Alcotest.test_case "mht wrong leaf" `Quick test_mht_rejects_wrong_leaf;
      Alcotest.test_case "mht wrong root" `Quick test_mht_rejects_wrong_root;
      Alcotest.test_case "mht depth" `Quick test_mht_depth_log;
      Alcotest.test_case "mht empty" `Quick test_mht_empty;
      Alcotest.test_case "mht second preimage" `Quick test_mht_second_preimage_guard;
      Alcotest.test_case "smt set/get/remove" `Quick test_smt_set_get_remove;
      Alcotest.test_case "smt empty roots" `Quick test_smt_empty_root_depth_dependent;
      Alcotest.test_case "smt remove restores" `Quick test_smt_remove_restores_root;
      Alcotest.test_case "smt batch semantics" `Quick test_smt_batch_semantics;
      Alcotest.test_case "smt proofs" `Quick test_smt_proofs;
      Alcotest.test_case "smt order independence" `Quick test_smt_order_independence;
      Alcotest.test_case "smt bounds" `Quick test_smt_bounds;
    ]
    @ props )
