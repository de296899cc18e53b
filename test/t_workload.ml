(* The million-user-soak layer: batched state updates must equal their
   references (Smt.update_batch and Mst.apply_ops against Smt_oracle,
   Sc_tx.apply_steps against a step-at-a-time fold, Utxo_set.apply_batch
   and the per-address coin index against naive scans), a kept state
   must stay a valid checkpoint, the workload engine must be a pure
   function of (seed, profile) with pinned digests, and the ported
   Sc_mempool must fix the O(n²) admission and reorg double-queue bugs. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let prop ?(count = 30) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

(* ---- Smt.update_batch ≡ Smt_oracle ---- *)

let smt_depth = 6

let gen_smt_updates =
  QCheck2.Gen.(
    list_size (int_range 0 48)
      (pair (int_bound ((1 lsl smt_depth) - 1))
         (map (Option.map (fun v -> v + 1)) (option (int_bound 1000)))))

let show_smt_updates ups =
  String.concat ";"
    (List.map
       (fun (p, v) ->
         match v with
         | Some v -> Printf.sprintf "%d<-%d" p v
         | None -> Printf.sprintf "%d<-_" p)
       ups)

let smt_batch_equiv =
  prop ~count:60 ~print:show_smt_updates "update_batch ≡ set/remove fold"
    gen_smt_updates (fun ups ->
      (* start from a non-empty tree so removals have targets *)
      let base =
        List.init 10 (fun i -> (7 * i mod 64, Some (Fp.of_int (i + 1))))
      in
      let t0 = ok (Smt.update_batch (Smt.create ~depth:smt_depth) base) in
      let ups = List.map (fun (p, v) -> (p, Option.map Fp.of_int v)) ups in
      let oracle =
        ok (Smt_oracle.apply (Smt_oracle.create ~depth:smt_depth) (base @ ups))
      in
      Smt_oracle.agrees (ok (Smt.update_batch t0 ups)) oracle)

let smt_batch_bounds () =
  let t = Smt.create ~depth:4 in
  let o = Smt_oracle.create ~depth:4 in
  List.iter
    (fun ups ->
      (match Smt.update_batch t ups with
      | Error e -> checks "out of range" "smt: position out of range" e
      | Ok _ -> Alcotest.fail "expected out-of-range error");
      checkb "oracle agrees" true (Result.is_error (Smt_oracle.apply o ups)))
    [
      [ (16, Some Fp.one) ];
      [ (-1, None) ];
      (* one bad position fails the whole batch *)
      [ (3, Some Fp.one); (16, None); (5, Some Fp.one) ];
    ]

(* ---- Mst.apply_ops ≡ an opening map over Smt_oracle ---- *)

let wl_params =
  let p = { Params.default with mst_depth = 8 } in
  match Params.validate p with Ok () -> p | Error e -> failwith e

let mk_utxo i =
  Utxo.make
    ~addr:(Hash.of_string (Printf.sprintf "wl.addr.%d" (i mod 4)))
    ~amount:(amount ((i mod 9) + 1))
    ~nonce:(Hash.of_string (Printf.sprintf "wl.nonce.%d" i))

let gen_mst_ops =
  (* indices into a small utxo universe: collisions in slots, repeated
     inserts and removes of the same utxo all arise naturally *)
  QCheck2.Gen.(
    list_size (int_range 0 24) (pair bool (int_bound 15)))

let show_mst_ops ops =
  String.concat ";"
    (List.map
       (fun (ins, i) -> Printf.sprintf "%s%d" (if ins then "+" else "-") i)
       ops)

(* The reference: the openings as an [Int_map], changed one op at a
   time with [Mst]'s insert/remove rules, and the tree's root and proofs
   from [Smt_oracle] over the openings' commitments. *)
let oracle_ops ops =
  let module M = Smt_oracle.Int_map in
  let depth = wl_params.Params.mst_depth in
  let step acc op =
    Result.bind acc (fun (utxos, touched) ->
        match op with
        | Mst.Op_insert u ->
          let pos = Utxo.position ~mst_depth:depth u in
          if M.mem pos utxos then Error "mst: slot collision"
          else Ok (M.add pos u utxos, pos :: touched)
        | Mst.Op_remove u -> (
          let pos = Utxo.position ~mst_depth:depth u in
          match M.find_opt pos utxos with
          | Some u' when Utxo.equal u u' -> Ok (M.remove pos utxos, pos :: touched)
          | Some _ | None -> Error "mst: utxo not present"))
  in
  Result.map
    (fun (utxos, touched) ->
      let tree =
        ok
          (Smt_oracle.apply
             (Smt_oracle.create ~depth)
             (List.map
                (fun (p, u) -> (p, Some (Utxo.commitment u)))
                (M.bindings utxos)))
      in
      (M.bindings utxos, List.sort_uniq Int.compare touched, tree))
    (List.fold_left step (Ok (M.empty, [])) ops)

let mst_ops_equiv =
  prop ~count:60 ~print:show_mst_ops "apply_ops ≡ insert/remove fold"
    gen_mst_ops (fun ops ->
      let ops =
        List.map
          (fun (ins, i) ->
            let u = mk_utxo i in
            if ins then Mst.Op_insert u else Mst.Op_remove u)
          ops
      in
      match (oracle_ops ops, Mst.apply_ops (Mst.create wl_params) ops) with
      | Error a, Error b -> String.equal a b
      | Ok (utxos, touched, tree), Ok m ->
        Fp.equal (Mst.root m) (Smt_oracle.root tree)
        && Mst.occupied m = Smt_oracle.occupied tree
        && List.equal
             (fun (i, u) (j, u') -> i = j && Utxo.equal u u')
             utxos (Mst.all_utxos m)
        && Fixtures.delta_positions (Mst.delta_bits m) = touched
        && List.for_all
             (fun (pos, u) ->
               Smt.verify ~root:(Mst.root m) ~pos
                 ~leaf:(Some (Utxo.commitment u))
                 ~depth:(Mst.depth m) (Mst.prove_slot m pos)
               && List.equal Fp.equal
                    (Smt.proof_siblings (Mst.prove_slot m pos))
                    (Smt_oracle.siblings tree pos))
             utxos
      | _ -> false)

(* ---- Sc_tx.apply_steps batched ≡ sequential ---- *)

(* The per-step reference: each step its own one-op batch. *)
let fold_steps st steps =
  List.fold_left
    (fun acc step -> Result.bind acc (fun st -> Sc_tx.apply_step st step))
    (Ok st) steps

let gen_steps =
  QCheck2.Gen.(list_size (int_range 0 20) (pair (int_bound 2) (int_bound 15)))

let show_steps steps =
  String.concat ";"
    (List.map (fun (k, i) -> Printf.sprintf "%d:%d" k i) steps)

let apply_steps_equiv =
  prop ~count:60 ~print:show_steps "apply_steps batched ≡ sequential"
    gen_steps (fun steps ->
      let st0 = Sc_state.create wl_params in
      let steps =
        List.map
          (fun (k, i) ->
            match k with
            | 0 -> Sc_tx.Insert (mk_utxo i)
            | 1 -> Sc_tx.Remove (mk_utxo i)
            | _ ->
              Sc_tx.Append_bt
                (Backward_transfer.make
                   ~receiver_addr:(Hash.of_string (string_of_int i))
                   ~amount:(amount (i + 1))))
          steps
      in
      match
        (fold_steps st0 steps, Sc_tx.apply_steps st0 steps)
      with
      | Error a, Error b -> String.equal a b
      | Ok a, Ok b ->
        Fp.equal (Sc_state.hash a) (Sc_state.hash b)
        && Sc_state.bt_count a = Sc_state.bt_count b
      | _ -> false)

(* ---- Sc_state checkpoints: a kept state is one ---- *)

let checkpoint_restores () =
  let st0 = Sc_state.create wl_params in
  let st1 =
    ok
      (Sc_tx.apply_steps st0
         (List.init 6 (fun i -> Sc_tx.Insert (mk_utxo i))))
  in
  let hash1 = Sc_state.hash st1 and root1 = Mst.root st1.mst in
  let st2 =
    ok
      (Sc_tx.apply_steps st1
         [
           Sc_tx.Remove (mk_utxo 0);
           Sc_tx.Insert (mk_utxo 9);
           Sc_tx.Append_bt
             (Backward_transfer.make ~receiver_addr:Hash.zero
                ~amount:(amount 1));
         ])
  in
  checkb "state moved" false
    (Fp.equal (Sc_state.hash st1) (Sc_state.hash st2));
  checkb "kept state unchanged" true (Fp.equal hash1 (Sc_state.hash st1));
  checkb "kept mst unchanged" true (Fp.equal root1 (Mst.root st1.mst));
  checki "kept bts unchanged" 0 (Sc_state.bt_count st1);
  checkb "kept state still holds the removed coin" true
    (Option.is_some (Mst.find_utxo st1.mst (mk_utxo 0)))

(* ---- Utxo_set: per-address index ≡ naive scan ---- *)

let addr_of i = Hash.of_string (Printf.sprintf "us.addr.%d" (i mod 3))
let op_of i = { Tx.txid = Hash.of_string (string_of_int (i mod 8)); vout = 0 }

let gen_us_ops =
  (* (outpoint, Some (addr, amount) | None): a small outpoint space and
     3 addresses force overwrites that move a coin between buckets *)
  QCheck2.Gen.(
    list_size (int_range 0 30)
      (pair (int_bound 7) (option (pair (int_bound 5) (int_bound 100)))))

let show_us_ops ops =
  String.concat ";"
    (List.map
       (fun (o, c) ->
         match c with
         | Some (a, v) -> Printf.sprintf "%d<-a%dv%d" o a v
         | None -> Printf.sprintf "%d<-_" o)
       ops)

let us_index_equiv =
  prop ~count:60 ~print:show_us_ops "coins_of_addr ≡ naive fold scan"
    gen_us_ops (fun ops ->
      let changes =
        List.map
          (fun (o, c) ->
            ( op_of o,
              Option.map
                (fun (a, v) ->
                  {
                    Utxo_set.addr = addr_of a;
                    amount = amount (v + 1);
                    spendable_after = 0;
                  })
                c ))
          ops
      in
      let seq =
        List.fold_left
          (fun t (o, c) ->
            match c with
            | Some coin -> Utxo_set.add t o coin
            | None -> Utxo_set.apply_batch t [ (o, None) ])
          Utxo_set.empty changes
      in
      let batch = Utxo_set.apply_batch Utxo_set.empty changes in
      let naive t addr =
        Utxo_set.fold t ~init: []
          ~f:(fun acc op (coin : Utxo_set.coin) ->
            if Hash.equal coin.addr addr then (op, coin) :: acc else acc)
        |> List.rev
        |> List.sort (fun (a, _) (b, _) ->
               String.compare (Tx.outpoint_encode b) (Tx.outpoint_encode a))
      in
      let same_coins t =
        List.for_all
          (fun a ->
            let addr = addr_of a in
            List.equal
              (fun (o1, (c1 : Utxo_set.coin)) (o2, (c2 : Utxo_set.coin)) ->
                String.equal (Tx.outpoint_encode o1) (Tx.outpoint_encode o2)
                && Hash.equal c1.addr c2.addr
                && Amount.to_int c1.amount = Amount.to_int c2.amount)
              (Utxo_set.coins_of_addr t addr)
              (naive t addr))
          [ 0; 1; 2 ]
      in
      let cardinal t = Utxo_set.fold t ~init:0 ~f:(fun n _ _ -> n + 1) in
      cardinal seq = cardinal batch
      && same_coins seq && same_coins batch)

(* ---- Sc_mempool: the bugs it fixes ---- *)

(* Distinct txids are all the pool tests need; FT transactions are
   admitted against any state. *)
let mk_bt i =
  Result.get_ok
    (Sc_tx.admit
       (Sc_state.create Zen_latus.Params.default)
       (Sc_tx.Forward_transfers_tx
          { mcid = Hash.of_string (Printf.sprintf "pool.%d" i); fts = [] }))

let txid a = Sc_tx.txid (Sc_tx.admitted_tx a)

let mempool_dedups () =
  let tx = mk_bt 1 in
  let m = Sc_mempool.add (Sc_mempool.add Sc_mempool.empty tx) tx in
  checki "duplicate submit pools once" 1 (Sc_mempool.size m);
  checkb "member" true (List.map txid (Sc_mempool.txs m) = [ txid tx ])

let mempool_fifo_and_reinject () =
  let a = mk_bt 1 and b = mk_bt 2 and c = mk_bt 3 in
  let m = List.fold_left Sc_mempool.add Sc_mempool.empty [ a; b; c ] in
  checkb "fifo order" true
    (List.map txid (Sc_mempool.txs m)
    = List.map txid [ a; b; c ]);
  let m = Sc_mempool.remove_txs m [ a; c ] in
  checki "included removed" 1 (Sc_mempool.size m);
  (* a reorg recovers [a; c; a]: the duplicate a and the still-pooled b
     must not double-queue, and recovered txs go to the front *)
  let m = Sc_mempool.reinject_front m [ a; c; a; b ] in
  checki "no double-queue" 3 (Sc_mempool.size m);
  checkb "recovered re-forge first" true
    (List.map txid (Sc_mempool.txs m)
    = List.map txid [ a; c; b ])

(* ---- the workload engine ---- *)

let tiny =
  {
    Zen_sim.Workload.smoke with
    name = "tiny";
    users = 200;
    txs_per_epoch = 120;
    epochs = 2;
    phases = 4;
    mst_depth = 8;
    seed_coins = 30;
    reorg_every = 2;
  }

let run_wl ?(seed = 11) ?(profile = tiny) () =
  let buf = Buffer.create 256 in
  let s =
    ok
      (Zen_sim.Workload.run
         ~log:(fun l ->
           Buffer.add_string buf l;
           Buffer.add_char buf '\n')
         ~seed profile)
  in
  (s, Buffer.contents buf)

let workload_deterministic () =
  let a, la = run_wl () in
  let b, lb = run_wl () in
  checkb "replay digest" true (Hash.equal a.Zen_sim.Workload.digest b.digest);
  checks "replay log" la lb;
  checkb "work happened" true (a.applied > 50);
  checkb "reorgs happened" true (a.rollbacks > 0)

(* The digest and log hash of [tiny] at seed 11 and of the builtin
   [smoke] profile at seed 1 (deeper MST, bursts, multi-phase reorgs),
   pinned from the per-key and replay-rollback references, which
   agreed with the batched, snapshotting engine on both. *)
let workload_pinned () =
  List.iter
    (fun (seed, profile, digest, log_hash) ->
      let name = profile.Zen_sim.Workload.name in
      let s, log = run_wl ~seed ~profile () in
      checks (name ^ ": digest") digest (Hash.to_hex s.Zen_sim.Workload.digest);
      checks (name ^ ": log") log_hash (Hash.to_hex (Hash.of_string log)))
    [
      ( 11,
        tiny,
        "aa3feedd730eee979224961b7133b6d1b970be468babc796e2d5de3af4a73090",
        "5b1fcd713569d96f00055985146e27b93546665feba966b9d21c1f021d3c4b0c" );
      ( 1,
        Zen_sim.Workload.smoke,
        "dee4949b93ccc0cf01a42983d19a1fbff353c504c25385db3f1187b14f29b111",
        "ee8537f85384ab2321085966eda906d77a57dc51c6ab2e45597f886c2bf9fbcb" );
    ]

(* The per-key and replay modes are gone; their labels accept only
   [true]. *)
let false_labels_rejected () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  let st0 = Sc_state.create wl_params in
  raises "apply_steps ~batched:false" (fun () ->
      ignore (Sc_tx.apply_steps ~batched:false st0 []));
  raises "run ~batched:false" (fun () ->
      ignore (Zen_sim.Workload.run ~batched:false ~seed:1 tiny));
  raises "run ~snapshots:false" (fun () ->
      ignore (Zen_sim.Workload.run ~snapshots:false ~seed:1 tiny))

let workload_profile_roundtrip () =
  List.iter
    (fun p ->
      let s = Zen_sim.Workload.to_string p in
      let p' = ok (Zen_sim.Workload.of_string s) in
      checks "builtin name survives" p.Zen_sim.Workload.name p'.name;
      checks "builtin string survives" s (Zen_sim.Workload.to_string p'))
    (List.map
       (fun name -> ok (Zen_sim.Workload.of_string name))
       [ "smoke"; "steady"; "soak" ]);
  (* a non-builtin round-trips through the custom syntax *)
  let s = Zen_sim.Workload.to_string tiny in
  let tiny' = ok (Zen_sim.Workload.of_string s) in
  checks "custom string survives" s (Zen_sim.Workload.to_string tiny');
  checki "custom fields survive" tiny.txs_per_epoch tiny'.txs_per_epoch;
  let custom = ok (Zen_sim.Workload.of_string "u9:z50:t9:e1:p2:b10:m25-25-25-25:d6:s3:r0") in
  checki "custom users" 9 custom.users;
  checki "custom bt share" 25 custom.mix.bt;
  (* the bounds [validate] states, at their edges; nothing here runs *)
  let at_bounds =
    ok (Zen_sim.Workload.of_string
          "u4194304:z50:t1073741824:e1:p2:b10:m25-25-25-25:d6:s3:r0")
  in
  checki "users at bound" 4194304 at_bounds.users;
  checki "txs-per-epoch at bound" 1073741824 at_bounds.txs_per_epoch;
  let epochs_at_bound =
    ok (Zen_sim.Workload.of_string
          "u9:z50:t9:e1024:p2:b10:m25-25-25-25:d6:s3:r0")
  in
  checki "epochs at bound" 1024 epochs_at_bound.epochs;
  List.iter
    (fun s ->
      match Zen_sim.Workload.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected a refusal of " ^ s))
    [
      "u9:nonsense";
      (* shares above 100 whose sum wraps the 63-bit int to 100 *)
      "u10:z100:t10:e1:p4:b50:m4611686018427387903-4611686018427387903-102-0:d8:s4:r0";
      (* one past each bound, and sizes whose CDF or t × phase weight
         would not fit *)
      "u4194305:z50:t9:e1:p2:b10:m25-25-25-25:d6:s3:r0";
      "u4611686018427387903:z50:t9:e1:p2:b10:m25-25-25-25:d6:s3:r0";
      "u9:z50:t1073741825:e1:p2:b10:m25-25-25-25:d6:s3:r0";
      "u9:z50:t4611686018427387903:e1:p2:b10:m25-25-25-25:d6:s3:r0";
      (* epochs past the bound: the last one never ended *)
      "u9:z50:t9:e1025:p2:b10:m25-25-25-25:d6:s3:r0";
      "u9:z50:t9:e4611686018427387903:p2:b10:m25-25-25-25:d6:s3:r0";
    ]

(* ---- the harness driver ---- *)

let harness_log ~seed ~profile ~ticks =
  let pool = Pool.sequential in
  let h = Zen_sim.Harness.create ~pool ~seed () in
  Zen_sim.Harness.fund h ~blocks:5;
  let family = Circuits.make Params.default in
  let (_ : Zen_sim.Harness.sidechain) =
    ok
      (Zen_sim.Harness.add_latus h ~name:"sc" ~family ~epoch_len:4
         ~submit_len:2 ~activation_delay:1 ())
  in
  ok (Zen_sim.Harness.set_workload h ~profile ~seed:5);
  Zen_sim.Harness.tick_n h ticks;
  (String.concat "\n" (Zen_sim.Harness.dump_log h),
   Zen_sim.Harness.workload_injected h)

let harness_driver_deterministic () =
  let la, na = harness_log ~seed:"wl.h" ~profile:tiny ~ticks:8 in
  let lb, nb = harness_log ~seed:"wl.h" ~profile:tiny ~ticks:8 in
  checks "harness workload log replays" la lb;
  checki "same injection count" na nb;
  checkb "traffic injected" true (na > 0)

(* A follower that saw none of the traffic replays every block each
   forger made, over 2 sidechains and at least 3 epochs of smoke
   traffic, and ends at the forger's state. Between blocks it applies
   the forger's epoch reset: a block whose last reference closes a
   withdrawal epoch ends that epoch. *)
let follower_replays_workload_traffic () =
  let params = Params.default in
  let family = Circuits.make params in
  let h = Zen_sim.Harness.create ~pool:Pool.sequential ~seed:"wl.follow" () in
  Zen_sim.Harness.fund h ~blocks:5;
  let scs =
    List.map
      (fun name ->
        ok
          (Zen_sim.Harness.add_latus h ~name ~params ~family ~epoch_len:4
             ~submit_len:2 ~activation_delay:1 ()))
      [ "sca"; "scb" ]
  in
  ok (Zen_sim.Harness.set_workload h ~profile:Zen_sim.Workload.smoke ~seed:7);
  Zen_sim.Harness.tick_n h 16;
  checkb "traffic injected" true (Zen_sim.Harness.workload_injected h > 0);
  List.iter
    (fun (sc : Zen_sim.Harness.sidechain) ->
      let schedule = Epoch.of_config sc.config in
      let closes_epoch (b : Sc_block.t) =
        match List.rev b.mc_refs with
        | [] -> false
        | last :: _ -> (
          let height = Mc_ref.height last in
          match Epoch.epoch_of_height schedule ~height with
          | Some epoch -> height = Epoch.last_height schedule ~epoch
          | None -> false)
      in
      let blocks = Node.blocks sc.node in
      checkb (sc.name ^ ": every block since genesis is kept") true
        (match blocks with b :: _ -> b.height = 0 | [] -> false);
      checkb (sc.name ^ ": at least 3 epochs closed") true
        (List.length (List.filter closes_epoch blocks) >= 3);
      checkb (sc.name ^ ": blocks carry workload payments or BTs") true
        (List.exists
           (fun (b : Sc_block.t) ->
             List.exists
               (function
                 | Sc_tx.Payment _ | Sc_tx.Backward_transfer_tx _ -> true
                 | Sc_tx.Forward_transfers_tx _
                 | Sc_tx.Backward_transfer_requests_tx _ -> false)
               b.txs)
           blocks);
      let replay (state, prev_hash, prev_height, mc_synced) (b : Sc_block.t) =
        let ctx =
          {
            Sc_validate.config = sc.config;
            params;
            prev_state = state;
            prev_hash;
            prev_height;
            mc_synced;
            expected_leader = None;
          }
        in
        match Sc_validate.validate ctx ~mc:h.chain b with
        | Error e ->
          Alcotest.fail (Printf.sprintf "%s block %d: %s" sc.name b.height e)
        | Ok post ->
          let mc_synced =
            match List.rev b.mc_refs with
            | last :: _ -> Mc_ref.height last
            | [] -> mc_synced
          in
          ( (if closes_epoch b then Sc_state.reset_epoch post else post),
            Sc_block.hash b, b.height, mc_synced )
      in
      let state, _, _, _ =
        List.fold_left replay
          ( Sc_state.create params, Sc_block.genesis_parent, -1,
            sc.config.start_block - 1 )
          blocks
      in
      checkb (sc.name ^ ": follower ends at the forger's state") true
        (Fp.equal (Sc_state.hash state)
           (Sc_state.hash (Node.next_block_state sc.node))))
    scs

let suite =
  ( "workload",
    [
      smt_batch_equiv;
      Alcotest.test_case "smt batch bounds" `Quick smt_batch_bounds;
      mst_ops_equiv;
      apply_steps_equiv;
      Alcotest.test_case "checkpoint restore" `Quick checkpoint_restores;
      us_index_equiv;
      Alcotest.test_case "mempool dedups" `Quick mempool_dedups;
      Alcotest.test_case "mempool fifo + reinject" `Quick
        mempool_fifo_and_reinject;
      Alcotest.test_case "engine deterministic" `Quick workload_deterministic;
      Alcotest.test_case "engine pinned digests" `Quick workload_pinned;
      Alcotest.test_case "false labels rejected" `Quick false_labels_rejected;
      Alcotest.test_case "profile codec" `Quick workload_profile_roundtrip;
      Alcotest.test_case "harness driver deterministic" `Slow
        harness_driver_deterministic;
      Alcotest.test_case "follower replays workload traffic" `Slow
        follower_replays_workload_traffic;
    ] )
