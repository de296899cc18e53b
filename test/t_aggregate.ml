(* Certificate aggregation: the Zen_snark.Aggregate fold itself
   (build/verify/tamper, positional root), the one-proof-per-block
   validation path through the harness, rejection of every tampered
   aggregate shape, and the headline equivalence — aggregated and
   per-certificate validation reach byte-identical decisions and
   event logs. *)

open Zen_crypto
open Zen_mainchain
open Zen_sim
open Zendoo
module Aggregate = Zen_snark.Aggregate
module Backend = Zen_snark.Backend

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected rejection, got Ok"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ---- the fold in isolation (fake leaves, always-true checks) ---- *)

let leaf i =
  {
    Aggregate.sc_id = Hash.of_string (Printf.sprintf "agg-sc-%d" i);
    epoch = i;
    cert_hash = Hash.of_string (Printf.sprintf "agg-cert-%d" i);
    vk_digest = Hash.of_string "agg-vk";
    proof_bytes = Printf.sprintf "proof-%d" i;
    end_prev_epoch = Hash.of_string (Printf.sprintf "agg-prev-%d" i);
    end_epoch = Hash.of_string (Printf.sprintf "agg-end-%d" i);
  }

let leaves n = List.init n leaf
let passing l = List.map (fun lf -> (lf, fun () -> true)) l

let test_build_verify_roundtrip () =
  let sys = Aggregate.shared () in
  List.iter
    (fun n ->
      let agg = ok (Aggregate.build sys (passing (leaves n))) in
      checkb (Printf.sprintf "n=%d verifies" n) true (Aggregate.verify sys agg);
      checki (Printf.sprintf "n=%d count" n) n (Aggregate.count agg);
      let expected =
        Option.get
          (Aggregate.root_of_digests
             (List.map Aggregate.leaf_digest (leaves n)))
      in
      checkb
        (Printf.sprintf "n=%d root matches recomputation" n)
        true
        (Hash.equal (Aggregate.root agg) expected))
    [ 1; 2; 3; 5; 8 ]

let test_build_parallel_bit_identical () =
  let sys = Aggregate.shared () in
  let seq = ok (Aggregate.build sys (passing (leaves 7))) in
  let par =
    ok (Aggregate.build ~pool:(Pool.get ~domains:4) sys (passing (leaves 7)))
  in
  checkb "same digest for every domain count" true
    (Hash.equal (Aggregate.digest seq) (Aggregate.digest par))

let test_build_refuses_failing_leaf () =
  let sys = Aggregate.shared () in
  let pairs =
    List.mapi (fun i lf -> (lf, fun () -> i <> 2)) (leaves 5)
  in
  let e = err (Aggregate.build sys pairs) in
  checkb "names the rejected proof" true
    (contains ~affix:"rejected" e);
  match Aggregate.build sys [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty aggregate accepted"

let test_tamper_rejected () =
  let sys = Aggregate.shared () in
  let agg = ok (Aggregate.build sys (passing (leaves 4))) in
  let decoy = ok (Aggregate.build sys (passing [ leaf 99 ])) in
  let forged ~root ~count ~proof = Aggregate.of_parts ~root ~count ~proof in
  checkb "wrong root" false
    (Aggregate.verify sys
       (forged ~root:(Hash.of_string "evil") ~count:(Aggregate.count agg)
          ~proof:(Aggregate.proof agg)));
  checkb "wrong count" false
    (Aggregate.verify sys
       (forged ~root:(Aggregate.root agg) ~count:5 ~proof:(Aggregate.proof agg)));
  checkb "proof for another statement" false
    (Aggregate.verify sys
       (forged ~root:(Aggregate.root agg) ~count:(Aggregate.count agg)
          ~proof:(Aggregate.proof decoy)));
  checkb "digest covers the proof bytes" false
    (Hash.equal (Aggregate.digest agg) (Aggregate.digest decoy))

let test_root_positional_pairing () =
  let d i = Aggregate.leaf_digest (leaf i) in
  let n = Aggregate.node_hash in
  checkb "singleton is itself" true
    (Hash.equal (Option.get (Aggregate.root_of_digests [ d 0 ])) (d 0));
  checkb "pair" true
    (Hash.equal
       (Option.get (Aggregate.root_of_digests [ d 0; d 1 ]))
       (n (d 0) (d 1)));
  (* the odd element carries up unchanged, as in fold_balanced *)
  checkb "odd carry" true
    (Hash.equal
       (Option.get (Aggregate.root_of_digests [ d 0; d 1; d 2 ]))
       (n (n (d 0) (d 1)) (d 2)));
  checkb "empty is None" true (Aggregate.root_of_digests [] = None)

(* The root is the level-by-level fold over the digests, for every
   leaf count (odd carries at every level). *)
let test_root_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"root_of_digests = level-by-level oracle"
       ~count:100
       ~print:(fun seeds -> Printf.sprintf "%d digests" (List.length seeds))
       QCheck2.Gen.(list_size (int_range 1 80) (string_size (return 8)))
       (fun seeds ->
         let ds = List.map Hash.of_string seeds in
         match
           ( Aggregate.root_of_digests ds,
             Fold_oracle.levels
               ~merge:(fun a b -> Ok (Aggregate.node_hash a b))
               ds )
         with
         | Some r, Ok o -> Hash.equal r o
         | _ -> false))

(* The aggregate's bytes, pinned: root, count and proof over 1, 7 and
   64 test leaves. *)
let test_digest_pinned () =
  let sys = Aggregate.shared () in
  List.iter
    (fun (n, expected) ->
      let agg = ok (Aggregate.build sys (passing (leaves n))) in
      Alcotest.(check string)
        (Printf.sprintf "n=%d digest" n)
        expected
        (Hash.to_hex (Aggregate.digest agg)))
    [
      (1, "dc5b69876a404aaa8810d2dc15a5bd8e9f97f93b6d011f8aacea725cf51ea23a");
      (7, "d0abb9521ba22fae34e08b3aae3180580351d762fe31262f208edbf6e963e3ec");
      (64, "45fd8e8aac664c841fb2ac1437a82a309e48b8d24528a85d258052fb73e18c63");
    ]

(* ---- the validation path, end to end ---- *)

let params = Zen_latus.Params.default
let family = Zen_latus.Circuits.make params

let world ~aggregate ?(plan = []) seed =
  Verifier.Cache.clear ();
  let faults =
    match plan with [] -> None | p -> Some (Faults.create p)
  in
  let h = Harness.create ~aggregate ?faults ~seed () in
  Harness.fund h ~blocks:3;
  (* two sidechains on the same epoch schedule — the second's creation
     tx lands one block later, so its activation delay is one shorter
     to realign the epochs and make blocks carry several certificates
     (the aggregate then folds across sidechains) *)
  let sca =
    ok
      (Harness.add_latus h ~name:"sca" ~family ~epoch_len:3 ~submit_len:3
         ~activation_delay:2 ())
  in
  let scb =
    ok
      (Harness.add_latus h ~name:"scb" ~family ~epoch_len:3 ~submit_len:3
         ~activation_delay:1 ())
  in
  Harness.tick_n h 14;
  (h, sca, scb)

let certified_epochs h (sc : Harness.sidechain) =
  let st = Chain.tip_state h.Harness.chain in
  match Sc_ledger.find st.scs sc.ledger_id with
  | None -> []
  | Some s ->
    List.map
      (fun (c : Sc_ledger.cert_record) ->
        c.Sc_ledger.cert.Withdrawal_certificate.epoch_id)
      s.Sc_ledger.certs

let aggregated_blocks h =
  Chain.best_chain h.Harness.chain
  |> List.filter (fun (b : Block.t) -> b.aggregate <> None)

let test_one_proof_per_block () =
  Zen_obs.Registry.reset ();
  Zen_obs.Registry.with_enabled @@ fun () ->
  let h, sca, scb = world ~aggregate:true "agg-one-proof" in
  let aggd = aggregated_blocks h in
  checkb "some blocks carried an aggregate" true (List.length aggd >= 2);
  checkb "multi-certificate blocks were folded" true
    (List.exists
       (fun (b : Block.t) ->
         match b.aggregate with Some a -> Aggregate.count a >= 2 | None -> false)
       aggd);
  checkb "certificates landed" true
    (certified_epochs h sca <> [] && certified_epochs h scb <> []);
  let stat name =
    Zen_obs.Counter.value (Zen_obs.Counter.make ("mc.aggregate." ^ name))
  in
  let blocks = stat "blocks" in
  checki "exactly one proof decision per aggregated block" blocks
    (stat "proof_checks");
  checkb "stats cover the chain's aggregated blocks" true
    (blocks >= List.length aggd);
  checkb "settled at least one cert per aggregated block" true
    (stat "certs_settled" >= blocks);
  checki "nothing rejected" 0 (stat "rejected")

let test_wire_roundtrip_with_aggregate () =
  let h, _, _ = world ~aggregate:true "agg-wire" in
  match aggregated_blocks h with
  | [] -> Alcotest.fail "no aggregated block to encode"
  | b :: _ ->
    let decoded = ok (Mc_wire.decode_block (Mc_wire.encode_block b)) in
    checkb "hash stable" true (Hash.equal (Block.hash b) (Block.hash decoded));
    (match (b.aggregate, decoded.aggregate) with
    | Some a, Some a' ->
      checkb "aggregate survives the trip" true
        (Hash.equal (Aggregate.digest a) (Aggregate.digest a'))
    | _ -> Alcotest.fail "aggregate lost in the codec");
    checkb "decoded block still validates" true
      (match Chain.state_of h.Harness.chain b.header.prev with
      | None -> false
      | Some parent -> Result.is_ok (Chain_state.apply_block parent decoded))

(* Every tampered-aggregate shape must REJECT the block — never fall
   back to per-certificate validation. *)
let test_tampered_aggregate_rejects_block () =
  let h, _, _ = world ~aggregate:true "agg-tamper" in
  let b =
    match
      List.find_opt
        (fun (b : Block.t) ->
          match b.aggregate with Some a -> Aggregate.count a >= 2 | None -> false)
        (aggregated_blocks h)
    with
    | Some b -> b
    | None -> List.hd (aggregated_blocks h)
  in
  let agg = Option.get b.aggregate in
  let parent = Option.get (Chain.state_of h.Harness.chain b.header.prev) in
  let pow = (Chain.params h.Harness.chain).pow in
  let reassemble aggregate =
    ok
      (Block.assemble ?aggregate ~prev:b.header.prev ~height:b.header.height
         ~time:b.header.time ~txs:b.txs ~pow ())
  in
  let rejects name expected block =
    let e = err (Chain_state.apply_block parent block) in
    checkb
      (Printf.sprintf "%s: %s" name e)
      true
      (contains ~affix:expected e)
  in
  let sys = Aggregate.shared () in
  let decoy = ok (Aggregate.build sys (passing [ leaf 7 ])) in
  (* proof for another statement, consistently committed in the header *)
  rejects "forged proof" "aggregate proof rejected"
    (reassemble
       (Some
          (Aggregate.of_parts ~root:(Aggregate.root agg)
             ~count:(Aggregate.count agg) ~proof:(Aggregate.proof decoy))));
  (* root over the wrong set *)
  rejects "wrong root" "does not cover"
    (reassemble
       (Some
          (Aggregate.of_parts ~root:(Aggregate.root decoy)
             ~count:(Aggregate.count agg) ~proof:(Aggregate.proof decoy))));
  (* count disagrees with the block's certificates *)
  rejects "wrong count" "count mismatch"
    (reassemble
       (Some
          (Aggregate.of_parts ~root:(Aggregate.root agg)
             ~count:(Aggregate.count agg + 1) ~proof:(Aggregate.proof agg))));
  (* header commits, body omits *)
  rejects "stripped body" "missing aggregate"
    { Block.header = b.header; txs = b.txs; aggregate = None };
  (* body carries, header doesn't commit *)
  rejects "uncommitted aggregate" "commitment mismatch"
    (let plain = reassemble None in
     { plain with aggregate = Some agg });
  (* sanity: the untampered block and the honest per-certificate
     fallback (no aggregate at all) both still apply *)
  checkb "original applies" true
    (Result.is_ok (Chain_state.apply_block parent b));
  checkb "per-certificate fallback applies" true
    (Result.is_ok (Chain_state.apply_block parent (reassemble None)))

(* ---- the headline property: byte-identical decisions ---- *)

let equivalence_prop (seed_n, with_faults) =
  let plan =
    if with_faults then
      [
        Faults.Cert_fault { epoch = 0; fault = Faults.Duplicate 2 };
        Faults.Cert_fault { epoch = 1; fault = Faults.Delay 1 };
      ]
    else []
  in
  let seed = Printf.sprintf "agg-eq-%d" seed_n in
  let h_plain, pa, pb = world ~aggregate:false ~plan seed in
  let h_agg, aa, ab = world ~aggregate:true ~plan seed in
  Harness.dump_log h_plain = Harness.dump_log h_agg
  && certified_epochs h_plain pa = certified_epochs h_agg aa
  && certified_epochs h_plain pb = certified_epochs h_agg ab
  && Harness.sc_balance_on_mc h_plain pa = Harness.sc_balance_on_mc h_agg aa
  && Harness.is_ceased h_plain pa = Harness.is_ceased h_agg aa
  && Chain.height h_plain.Harness.chain = Chain.height h_agg.Harness.chain

let test_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"aggregated = per-cert decisions and logs"
       ~count:4
       ~print:(fun (n, f) -> Printf.sprintf "seed=%d faults=%b" n f)
       QCheck2.Gen.(pair (int_range 0 1000) bool)
       equivalence_prop)

let suite =
  ( "aggregate",
    [
      Alcotest.test_case "build/verify roundtrip" `Quick
        test_build_verify_roundtrip;
      Alcotest.test_case "parallel build bit-identical" `Quick
        test_build_parallel_bit_identical;
      Alcotest.test_case "failing leaf refused" `Quick
        test_build_refuses_failing_leaf;
      Alcotest.test_case "tampered aggregate rejected" `Quick
        test_tamper_rejected;
      Alcotest.test_case "positional root" `Quick test_root_positional_pairing;
      test_root_matches_oracle;
      Alcotest.test_case "pinned digests" `Quick test_digest_pinned;
      Alcotest.test_case "one proof per block" `Quick test_one_proof_per_block;
      Alcotest.test_case "wire roundtrip" `Quick
        test_wire_roundtrip_with_aggregate;
      Alcotest.test_case "tampered block rejected" `Quick
        test_tampered_aggregate_rejects_block;
      test_equivalence;
    ] )
