(* The Zendoo CCTP core: amounts, proofdata, epochs, the commitment
   tree, certificates and the unified verifier. *)

open Zen_crypto
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

(* ---- amounts ---- *)

let test_amount_bounds () =
  checkb "negative" true (Result.is_error (Amount.of_int (-1)));
  checkb "max ok" true (Result.is_ok (Amount.of_int (Amount.to_int Amount.max_supply)));
  checkb "over max" true
    (Result.is_error (Amount.of_int (Amount.to_int Amount.max_supply + 1)));
  checkb "overflow add" true
    (Result.is_error (Amount.add Amount.max_supply (amount 1)));
  checkb "underflow sub" true (Result.is_error (Amount.sub (amount 1) (amount 2)))

let test_amount_sum () =
  checki "sum" 6 (Amount.to_int (ok (Amount.sum [ amount 1; amount 2; amount 3 ])));
  checki "empty" 0 (Amount.to_int (ok (Amount.sum [])))

(* ---- proofdata ---- *)

let test_proofdata_schema () =
  let pd = Proofdata.[ Digest Hash.zero; Field Fp.one; Uint 7 ] in
  checkb "matches" true
    (Proofdata.matches Proofdata.[ Tdigest; Tfield; Tuint ] pd);
  checkb "wrong order" false
    (Proofdata.matches Proofdata.[ Tfield; Tdigest; Tuint ] pd);
  checkb "wrong length" false (Proofdata.matches Proofdata.[ Tdigest ] pd)

let test_proofdata_membership () =
  let pd =
    Proofdata.[ Digest (Hash.of_string "x"); Uint 4; Blob "payload"; Field Fp.two ]
  in
  let root = Proofdata.root pd in
  List.iteri
    (fun i e ->
      let p = Proofdata.membership_proof pd i in
      checkb (Printf.sprintf "elem %d" i) true
        (Proofdata.verify_membership ~root e p))
    pd;
  let p0 = Proofdata.membership_proof pd 0 in
  checkb "wrong elem" false
    (Proofdata.verify_membership ~root (Proofdata.Uint 9) p0)

let test_proofdata_root_sensitivity () =
  let r1 = Proofdata.root [ Proofdata.Uint 1 ] in
  let r2 = Proofdata.root [ Proofdata.Uint 2 ] in
  checkb "value-sensitive" false (Hash.equal r1 r2)

(* ---- epochs ---- *)

let sched = { Epoch.start_block = 100; epoch_len = 10; submit_len = 3 }

let test_epoch_mapping () =
  Alcotest.(check (option int)) "before start" None
    (Epoch.epoch_of_height sched ~height:99);
  Alcotest.(check (option int)) "first" (Some 0)
    (Epoch.epoch_of_height sched ~height:100);
  Alcotest.(check (option int)) "boundary" (Some 0)
    (Epoch.epoch_of_height sched ~height:109);
  Alcotest.(check (option int)) "next" (Some 1)
    (Epoch.epoch_of_height sched ~height:110);
  checki "first height" 110 (Epoch.first_height sched ~epoch:1);
  checki "last height" 119 (Epoch.last_height sched ~epoch:1)

let test_epoch_window () =
  let lo, hi = Epoch.submission_window sched ~epoch:0 in
  checki "window lo" 110 lo;
  checki "window hi" 112 hi;
  checkb "in window" true (Epoch.in_submission_window sched ~epoch:0 ~height:111);
  checkb "after window" false
    (Epoch.in_submission_window sched ~epoch:0 ~height:113)

(* submit_len > epoch_len is legal and makes consecutive submission
   windows overlap — several epochs certifiable at one height. The
   ledger's sequential-certification rule (t_faults) relies on this
   geometry. *)
let test_overlapping_windows () =
  let s = { Epoch.start_block = 1000; epoch_len = 2; submit_len = 5 } in
  let lo0, hi0 = Epoch.submission_window s ~epoch:0 in
  let lo1, hi1 = Epoch.submission_window s ~epoch:1 in
  checki "w0 lo" 1002 lo0;
  checki "w0 hi" 1006 hi0;
  checki "w1 lo" 1004 lo1;
  checki "w1 hi" 1008 hi1;
  checkb "windows overlap" true (lo1 <= hi0);
  checkb "both open at once" true
    (Epoch.in_submission_window s ~epoch:0 ~height:1005
    && Epoch.in_submission_window s ~epoch:1 ~height:1005);
  (* with a certificate due, ceasing still tracks the earliest
     uncertified epoch's window *)
  checkb "alive at w0 end" false
    (Epoch.ceased_at s ~last_certified_epoch:None ~height:1006);
  checkb "ceased past w0 end" true
    (Epoch.ceased_at s ~last_certified_epoch:None ~height:1007);
  checkb "cert for 0 extends to w1" false
    (Epoch.ceased_at s ~last_certified_epoch:(Some 0) ~height:1008)

(* The window boundary is inclusive: height == window_end is the last
   chance to land a certificate; ceasing triggers exactly one block
   later. *)
let test_window_end_edge () =
  let _, hi = Epoch.submission_window sched ~epoch:0 in
  checkb "in window at end" true
    (Epoch.in_submission_window sched ~epoch:0 ~height:hi);
  checkb "out one past end" false
    (Epoch.in_submission_window sched ~epoch:0 ~height:(hi + 1));
  checkb "alive at end" false
    (Epoch.ceased_at sched ~last_certified_epoch:None ~height:hi);
  checkb "ceased at end + 1" true
    (Epoch.ceased_at sched ~last_certified_epoch:None ~height:(hi + 1))

let test_epoch_ceasing () =
  (* No certs: must cease once epoch 0's window has fully passed. *)
  checkb "alive inside window" false
    (Epoch.ceased_at sched ~last_certified_epoch:None ~height:112);
  checkb "ceased after window" true
    (Epoch.ceased_at sched ~last_certified_epoch:None ~height:113);
  (* With epoch 0 certified: next deadline is epoch 1's window. *)
  checkb "alive with cert" false
    (Epoch.ceased_at sched ~last_certified_epoch:(Some 0) ~height:120);
  checkb "ceases again" true
    (Epoch.ceased_at sched ~last_certified_epoch:(Some 0) ~height:123)

(* ---- sc_commitment ---- *)

let mk_ft id n =
  Forward_transfer.make ~ledger_id:id
    ~receiver_metadata:(String.make 64 'r')
    ~amount:(amount (1000 + n))

let entry id nfts =
  {
    Sc_commitment.ledger_id = id;
    fts = List.init nfts (mk_ft id);
    btrs = [];
    wcert = None;
  }

let test_commitment_membership () =
  let ids = List.init 5 (fun i -> Hash.of_string (Printf.sprintf "sc%d" i)) in
  let entries = List.mapi (fun i id -> entry id (i + 1)) ids in
  let t = ok (Sc_commitment.build entries) in
  List.iter
    (fun e ->
      match Sc_commitment.prove_membership t e.Sc_commitment.ledger_id with
      | None -> Alcotest.fail "no membership proof"
      | Some m ->
        checkb "verifies" true
          (Sc_commitment.verify_membership ~root:(Sc_commitment.root t)
             ~ledger_id:e.Sc_commitment.ledger_id
             ~entry_hash:(Sc_commitment.entry_hash e) m);
        checkb "wrong entry rejected" false
          (Sc_commitment.verify_membership ~root:(Sc_commitment.root t)
             ~ledger_id:e.Sc_commitment.ledger_id
             ~entry_hash:(Hash.of_string "forged") m))
    entries

let test_commitment_absence () =
  let ids = List.init 4 (fun i -> Hash.of_string (Printf.sprintf "present%d" i)) in
  let t = ok (Sc_commitment.build (List.map (fun id -> entry id 1) ids)) in
  let absent = Hash.of_string "not-here" in
  (match Sc_commitment.prove_absence t absent with
  | None -> Alcotest.fail "expected absence proof"
  | Some a ->
    checkb "absence verifies" true
      (Sc_commitment.verify_absence ~root:(Sc_commitment.root t)
         ~ledger_id:absent a);
    (* the same proof must not prove absence of a present id *)
    checkb "present id rejected" false
      (Sc_commitment.verify_absence ~root:(Sc_commitment.root t)
         ~ledger_id:(List.hd ids) a));
  (* absence unobtainable for present ids *)
  checkb "no absence for present" true
    (Sc_commitment.prove_absence t (List.hd ids) = None);
  (* membership unobtainable for absent ids *)
  checkb "no membership for absent" true
    (Sc_commitment.prove_membership t absent = None)

let test_commitment_empty_block () =
  let t = ok (Sc_commitment.build []) in
  let any = Hash.of_string "anything" in
  match Sc_commitment.prove_absence t any with
  | None -> Alcotest.fail "empty block must prove absence of everything"
  | Some a ->
    checkb "verifies" true
      (Sc_commitment.verify_absence ~root:(Sc_commitment.root t) ~ledger_id:any a)

let test_commitment_duplicate_rejected () =
  let id = Hash.of_string "dup" in
  checkb "duplicate" true
    (Result.is_error (Sc_commitment.build [ entry id 1; entry id 2 ]))

let test_commitment_entry_hash_reconstructible () =
  (* A sidechain node recomputes SCXHash from its own slice. *)
  let id = Hash.of_string "self" in
  let e = entry id 3 in
  let t = ok (Sc_commitment.build [ e; entry (Hash.of_string "other") 1 ]) in
  let rebuilt =
    Sc_commitment.entry_hash
      { Sc_commitment.ledger_id = id; fts = e.fts; btrs = []; wcert = None }
  in
  match Sc_commitment.prove_membership t id with
  | None -> Alcotest.fail "no proof"
  | Some m ->
    checkb "reconstructed hash verifies" true
      (Sc_commitment.verify_membership ~root:(Sc_commitment.root t)
         ~ledger_id:id ~entry_hash:rebuilt m)

(* Regression (PR 5): build memoizes FT/BTR subtree roots per distinct
   leaf list. The root must be unchanged relative to the direct,
   unmemoized per-entry computation — exercised here with the
   memo-friendly shapes (shared empty lists, repeated identical
   batches) and proven leaf by leaf via the exported entry_hash. *)
let test_commitment_memoized_root_unchanged () =
  let id i = Hash.of_string (Printf.sprintf "memo%d" i) in
  let shared_fts = List.init 3 (mk_ft Hash.zero) in
  let entries =
    List.init 12 (fun i ->
        {
          Sc_commitment.ledger_id = id i;
          (* thirds: empty / one shared batch / individual lists *)
          fts =
            (if i mod 3 = 0 then []
             else if i mod 3 = 1 then shared_fts
             else List.init 2 (mk_ft (id i)));
          btrs = [];
          wcert = None;
        })
  in
  let t = ok (Sc_commitment.build entries) in
  List.iter
    (fun e ->
      match Sc_commitment.prove_membership t e.Sc_commitment.ledger_id with
      | None -> Alcotest.fail "no membership proof"
      | Some m ->
        checkb "memoized leaf = direct entry_hash" true
          (Sc_commitment.verify_membership ~root:(Sc_commitment.root t)
             ~ledger_id:e.Sc_commitment.ledger_id
             ~entry_hash:(Sc_commitment.entry_hash e) m))
    entries;
  (* Parallel build takes the same memoized path chunks; same root. *)
  let pool = Zen_crypto.Pool.get ~domains:3 in
  let t_par = ok (Sc_commitment.build ~pool entries) in
  checkb "pooled build, same root" true
    (Hash.equal (Sc_commitment.root t) (Sc_commitment.root t_par))

(* ---- bt list roots / wcert ---- *)

let test_bt_list_root () =
  let bts =
    List.init 4 (fun i ->
        Backward_transfer.make
          ~receiver_addr:(Hash.of_string (string_of_int i))
          ~amount:(amount (i + 1)))
  in
  let root = Backward_transfer.list_root bts in
  let p = Backward_transfer.membership_proof bts 2 in
  checkb "bt member" true
    (Merkle.verify ~root ~leaf:(Backward_transfer.hash (List.nth bts 2)) p);
  checkb "order-sensitive" false
    (Hash.equal root (Backward_transfer.list_root (List.rev bts)))

let test_wcert_total () =
  let cert =
    Withdrawal_certificate.make ~ledger_id:Hash.zero ~epoch_id:0 ~quality:1
      ~bt_list:
        [
          Backward_transfer.make ~receiver_addr:Hash.zero ~amount:(amount 5);
          Backward_transfer.make ~receiver_addr:Hash.zero ~amount:(amount 7);
        ]
      ~proofdata:[] ~proof:Fixtures.zero_proof
  in
  checki "total" 12 (Amount.to_int (ok (Withdrawal_certificate.total_withdrawn cert)))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:100 gen f)

let props =
  [
    prop "epoch height mapping consistent" QCheck2.Gen.(int_range 100 10000)
      (fun height ->
        match Epoch.epoch_of_height sched ~height with
        | None -> false
        | Some e ->
          Epoch.first_height sched ~epoch:e <= height
          && height <= Epoch.last_height sched ~epoch:e);
    prop "amount sum never exceeds max"
      QCheck2.Gen.(list_size (int_bound 20) (int_bound 1000000))
      (fun ns ->
        match Amount.sum (List.map amount ns) with
        | Ok total -> Amount.to_int total = List.fold_left ( + ) 0 ns
        | Error _ -> false);
  ]

let suite =
  ( "cctp",
    [
      Alcotest.test_case "amount bounds" `Quick test_amount_bounds;
      Alcotest.test_case "amount sum" `Quick test_amount_sum;
      Alcotest.test_case "proofdata schema" `Quick test_proofdata_schema;
      Alcotest.test_case "proofdata membership" `Quick test_proofdata_membership;
      Alcotest.test_case "proofdata root" `Quick test_proofdata_root_sensitivity;
      Alcotest.test_case "epoch mapping" `Quick test_epoch_mapping;
      Alcotest.test_case "epoch window" `Quick test_epoch_window;
      Alcotest.test_case "overlapping windows" `Quick test_overlapping_windows;
      Alcotest.test_case "window end edge" `Quick test_window_end_edge;
      Alcotest.test_case "epoch ceasing" `Quick test_epoch_ceasing;
      Alcotest.test_case "commitment membership" `Quick test_commitment_membership;
      Alcotest.test_case "commitment absence" `Quick test_commitment_absence;
      Alcotest.test_case "commitment empty" `Quick test_commitment_empty_block;
      Alcotest.test_case "commitment duplicates" `Quick
        test_commitment_duplicate_rejected;
      Alcotest.test_case "commitment reconstruction" `Quick
        test_commitment_entry_hash_reconstructible;
      Alcotest.test_case "commitment memoized root" `Quick
        test_commitment_memoized_root_unchanged;
      Alcotest.test_case "bt list root" `Quick test_bt_list_root;
      Alcotest.test_case "wcert total" `Quick test_wcert_total;
    ]
    @ props )
