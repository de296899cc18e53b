(* Certificate aggregation: the Zen_snark.Aggregate fold itself
   (build/verify/tamper, positional root), the one-proof-per-block
   validation path through the harness, rejection of every tampered
   aggregate shape, the headline equivalence — every aggregated block
   and its per-certificate twin reach the same decision and the same
   sidechain state — and the miner's invariant: a block aggregates if
   and only if it carries a certificate. *)

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

let world ?(plan = []) seed =
  Verifier.Cache.clear ();
  let faults =
    match plan with [] -> None | p -> Some (Faults.create p)
  in
  let h = Harness.create ?faults ~seed () in
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

(* Genesis → [hash], read back through [Chain.block]. *)
let blocks_to chain hash =
  let rec go h acc =
    let b = Option.get (Chain.block chain h) in
    if b.Block.header.height = 0 then b :: acc else go b.header.prev (b :: acc)
  in
  go hash []

(* The state after block [hash]: its branch replayed onto a fresh
   chain from the same genesis. *)
let state_after chain hash =
  match blocks_to chain hash with
  | [] -> assert false
  | genesis :: rest ->
    List.fold_left
      (fun c b -> fst (ok (Chain.add_block c b)))
      (Chain.create ~params:(Chain.params chain) ~time:genesis.header.time ())
      rest
    |> Chain.tip_state

(* [b]'s transactions re-assembled with [aggregate]; without one, the
   block's per-certificate twin, which validation settles through the
   per-certificate rule. *)
let reassemble ~pow ?aggregate (b : Block.t) =
  ok
    (Block.assemble ?aggregate ~prev:b.header.prev ~height:b.header.height
       ~time:b.header.time ~txs:b.txs ~pow ())

let has_cert (b : Block.t) =
  List.exists (function Tx.Certificate _ -> true | _ -> false) b.txs

let aggregated_blocks h =
  let chain = h.Harness.chain in
  blocks_to chain (Chain.tip_hash chain)
  |> List.filter (fun (b : Block.t) -> b.aggregate <> None)

let test_one_proof_per_block () =
  Zen_obs.Registry.reset ();
  Zen_obs.Registry.with_enabled @@ fun () ->
  let h, sca, scb = world "agg-one-proof" in
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
  let h, _, _ = world "agg-wire" in
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
      (Result.is_ok
         (Chain_state.apply_block
            (state_after h.Harness.chain b.header.prev)
            decoded))

(* Every tampered-aggregate shape must REJECT the block — never fall
   back to per-certificate validation. The two coverage refusals (no
   certificates, another count) come from [Block.validate_structure]
   before any aggregate is settled, so [mc.aggregate.rejected] counts
   only the others. *)
let test_tampered_aggregate_rejects_block () =
  Zen_obs.Registry.reset ();
  Fun.protect ~finally:Zen_obs.Registry.reset @@ fun () ->
  Zen_obs.Registry.with_enabled @@ fun () ->
  let h, _, _ = world "agg-tamper" in
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
  let parent = state_after h.Harness.chain b.header.prev in
  let pow = (Chain.params h.Harness.chain).pow in
  let reassemble aggregate = reassemble ~pow ?aggregate b in
  let rejects name expected block =
    let e = err (Chain_state.apply_block parent block) in
    checkb
      (Printf.sprintf "%s: %s" name e)
      true
      (contains ~affix:expected e)
  in
  let rejected () =
    Zen_obs.Counter.value (Zen_obs.Counter.make "mc.aggregate.rejected")
  in
  let refused_by_structure name expected block =
    let before = rejected () in
    Alcotest.(check string)
      name expected
      (err (Chain.add_block h.Harness.chain block));
    checki (name ^ ": not counted as rejected") before (rejected ())
  in
  let sys = Aggregate.shared () in
  let decoy = ok (Aggregate.build sys (passing [ leaf 7 ])) in
  let settled_rejections = rejected () in
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
  checki "forged proof and wrong root counted" (settled_rejections + 2)
    (rejected ());
  (* count disagrees with the block's certificates *)
  refused_by_structure "wrong count"
    "block: aggregate certificate count mismatch"
    (reassemble
       (Some
          (Aggregate.of_parts ~root:(Aggregate.root agg)
             ~count:(Aggregate.count agg + 1) ~proof:(Aggregate.proof agg))));
  (* an aggregate over a block that carries no certificate *)
  refused_by_structure "no certificates"
    "block: aggregate over a block with no certificates"
    (ok
       (Block.assemble ~aggregate:agg ~prev:b.header.prev
          ~height:b.header.height ~time:b.header.time
          ~txs:
            (List.filter (function Tx.Certificate _ -> false | _ -> true) b.txs)
          ~pow ()));
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

(* ---- the headline property: a block and its per-certificate twin ---- *)

(* What a post-state says about each sidechain: its balance, its
   certified epochs and whether it has ceased. *)
let sc_view (st : Chain_state.t) ids =
  List.map
    (fun id ->
      Option.map
        (fun (s : Sc_ledger.sc_state) ->
          ( s.balance,
            List.map
              (fun (c : Sc_ledger.cert_record) ->
                c.cert.Withdrawal_certificate.epoch_id)
              s.certs,
            Sc_ledger.is_ceased st.scs id ~height:st.height ))
        (Sc_ledger.find st.scs id))
    ids

(* Replay the chain once; every block that carries certificates and its
   twin are applied to the block's parent state, each on a cold cache so
   both paths verify their proofs. *)
let twin_prop (seed_n, with_faults) =
  let plan =
    if with_faults then
      [
        Faults.Cert_fault { epoch = 0; fault = Faults.Duplicate 2 };
        Faults.Cert_fault { epoch = 1; fault = Faults.Delay 1 };
      ]
    else []
  in
  let h, sca, scb = world ~plan (Printf.sprintf "agg-eq-%d" seed_n) in
  let chain = h.Harness.chain in
  let pow = (Chain.params chain).pow in
  let ids = [ sca.ledger_id; scb.ledger_id ] in
  let apply parent b =
    Verifier.Cache.clear ();
    Chain_state.apply_block parent b
  in
  let alike parent b =
    match (apply parent b, apply parent (reassemble ~pow b)) with
    | Ok st, Ok st' -> sc_view st ids = sc_view st' ids
    | Error e, Error e' -> String.equal e e'
    | _ -> false
  in
  match blocks_to chain (Chain.tip_hash chain) with
  | [] -> false
  | genesis :: rest ->
    let fresh =
      Chain.create ~params:(Chain.params chain) ~time:genesis.header.time ()
    in
    let _, with_certs =
      List.fold_left
        (fun (c, acc) b ->
          let acc = if has_cert b then (Chain.tip_state c, b) :: acc else acc in
          (fst (ok (Chain.add_block c b)), acc))
        (fresh, []) rest
    in
    with_certs <> []
    && List.for_all (fun (parent, b) -> alike parent b) with_certs

let test_twin =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"aggregated block = its per-certificate twin"
       ~count:4
       ~print:(fun (n, f) -> Printf.sprintf "seed=%d faults=%b" n f)
       QCheck2.Gen.(pair (int_range 0 1000) bool)
       twin_prop)

(* ---- the miner's invariant ---- *)

(* Every block the harness mined carries an aggregate, committed in its
   header, exactly when it carries a certificate. The two sidechains
   certify every 3 and every 4 blocks, so some blocks carry one
   certificate and some carry both. *)
let test_aggregates_iff_certificates () =
  Verifier.Cache.clear ();
  let h = Harness.create ~seed:"agg-invariant" () in
  Harness.fund h ~blocks:3;
  List.iter
    (fun (name, epoch_len) ->
      ignore
        (ok
           (Harness.add_latus h ~name ~family ~epoch_len ~submit_len:3
              ~activation_delay:1 ())))
    [ ("sc3", 3); ("sc4", 4) ];
  Harness.tick_n h 20;
  let chain = h.Harness.chain in
  let blocks = blocks_to chain (Chain.tip_hash chain) in
  List.iter
    (fun (b : Block.t) ->
      let label what = Printf.sprintf "height %d: %s" b.header.height what in
      checkb (label "carries an aggregate") (has_cert b) (b.aggregate <> None);
      checkb
        (label "header commits to it")
        (has_cert b)
        (not (Hash.equal b.header.cert_aggregate Hash.zero)))
    blocks;
  let blocks_with n =
    List.exists
      (fun (b : Block.t) ->
        match b.aggregate with Some a -> Aggregate.count a = n | None -> false)
      blocks
  in
  checkb "a one-certificate block" true (blocks_with 1);
  checkb "a two-certificate block" true (blocks_with 2);
  checkb "Harness.create ~aggregate:false raises" true
    (match Harness.create ~aggregate:false ~seed:"agg-off" () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "Miner.build_block ~aggregate:false raises" true
    (match
       Miner.build_block ~aggregate:false chain ~time:1000
         ~miner_addr:(Hash.of_string "agg-off") ~candidates:[]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- one cold validation of a 64-certificate block ---- *)

(* 64 Latus sidechains on one epoch schedule, each certifying epoch 0
   in one aggregated block. [parent] is the chain the block extends,
   and [certs.(i)] is sidechain i's certificate. *)
type fanin = {
  parent : Chain.t;
  block : Block.t;
  certs : Withdrawal_certificate.t array;
}

let fanin_fixture =
  lazy
    (let miner_addr = Hash.of_string "agg-fanin.miner" in
     let chain =
       ref
         (Chain.create
            ~params:{ Chain_state.default_params with pow = Pow.trivial }
            ~time:0 ())
     in
     let mine candidates =
       let b, _ =
         ok
           (Miner.build_block !chain ~time:(Chain.height !chain + 1)
              ~miner_addr ~candidates)
       in
       chain := fst (ok (Chain.add_block !chain b))
     in
     let start_block = 4 and epoch_len = 4 in
     let configs =
       List.init 64 (fun i ->
           ok
             (Sidechain_config.make
                ~ledger_id:
                  (Sidechain_config.derive_ledger_id ~creator:miner_addr
                     ~nonce:(i + 1))
                ~start_block ~epoch_len ~submit_len:epoch_len
                ~wcert_vk:(Zen_latus.Circuits.wcert_keys family).vk
                ~wcert_proofdata:Zen_latus.Node.wcert_schema ()))
     in
     mine [];
     mine (List.map (fun c -> Tx.Sc_create c) configs);
     while Chain.height !chain < start_block + epoch_len - 1 do
       mine []
     done;
     let st = Chain.tip_state !chain in
     let boundary h =
       if h < 0 then Hash.zero
       else Option.get (Chain_state.block_hash_at st h)
     in
     let end_prev_epoch = boundary (start_block - 1)
     and end_epoch = boundary (start_block + epoch_len - 1) in
     let certs =
       Array.of_list
         (List.mapi
            (fun i (c : Sidechain_config.t) ->
              let proofdata =
                Proofdata.
                  [
                    Digest (Hash.of_int i);
                    Field (Fp.of_int (1000 + i));
                    Blob (String.make 512 (Char.chr (65 + (i mod 26))));
                  ]
              in
              let proof =
                ok
                  (Zen_latus.Circuits.prove_wcert_binding family ~quality:1
                     ~bt_root:(Backward_transfer.list_root []) ~end_prev_epoch
                     ~end_epoch ~proofdata ~s_prev:(Fp.of_int i)
                     ~s_last:(Fp.of_int (i + 1)))
              in
              Withdrawal_certificate.make ~ledger_id:c.ledger_id ~epoch_id:0
                ~quality:1 ~bt_list:[] ~proofdata ~proof)
            configs)
     in
     let block, skipped =
       ok
         (Miner.build_block !chain ~time:(Chain.height !chain + 1) ~miner_addr
            ~candidates:
              (Array.to_list (Array.map (fun c -> Tx.Certificate c) certs)))
     in
     if skipped <> [] then Alcotest.fail "fanin fixture: a certificate was skipped";
     { parent = !chain; block; certs })

(* The work of one cold validation, read from the registry: SHA-256
   bytes and [merkle.of_leaves] spans. *)
let cold_validation_work ~pool f =
  Verifier.Cache.clear ();
  Zen_obs.Registry.reset ();
  let r =
    Zen_obs.Registry.with_enabled (fun () ->
        Chain_state.apply_block ~pool (Chain.tip_state f.parent) f.block)
  in
  let bytes = Zen_obs.Counter.value (Zen_obs.Counter.make "crypto.sha256.bytes") in
  let spans =
    List.length
      (List.filter
         (fun (e : Zen_obs.Trace.event) -> e.name = "merkle.of_leaves")
         (Zen_obs.Trace.events ()))
  in
  Zen_obs.Registry.reset ();
  ignore (ok r : Chain_state.t);
  (bytes, spans)

(* The hashing of a cold 64-certificate validation, pinned: each
   certificate, tree node and frame is hashed once. A change that
   hashes more (or less) must move this number on purpose. *)
let test_cold_validation_work_pinned () =
  let f = Lazy.force fanin_fixture in
  checki "64 certificates aggregated" 64
    (Aggregate.count (Option.get f.block.aggregate));
  let bytes1, spans1 = cold_validation_work ~pool:Pool.sequential f in
  let bytes2, spans2 = cold_validation_work ~pool:(Pool.get ~domains:2) f in
  checki "sha256 bytes per cold validation" 70_308 bytes1;
  checki "merkle builds: tx root and commitment tree" 2 spans1;
  checki "sha256 bytes, 2 domains" bytes1 bytes2;
  checki "merkle builds, 2 domains" spans1 spans2

(* [cert] with [proof] in place of its own: the same id, because
   [Withdrawal_certificate.hash] does not bind the proof. *)
let with_proof (cert : Withdrawal_certificate.t) proof =
  Withdrawal_certificate.make ~ledger_id:cert.ledger_id ~epoch_id:cert.epoch_id
    ~quality:cert.quality ~bt_list:cert.bt_list ~proofdata:cert.proofdata ~proof

(* A settled entry skips the SNARK check only for the proof bytes it
   names: the same certificate id with another proof is verified. *)
let test_settled_skip_binds_proof () =
  let f = Lazy.force fanin_fixture in
  let st = Chain.tip_state f.parent in
  let good = f.certs.(0) in
  let forged = with_proof good f.certs.(1).proof in
  checkb "same id" true
    (Hash.equal (Withdrawal_certificate.hash good)
       (Withdrawal_certificate.hash forged));
  let accept ~settled cert =
    Sc_ledger.accept_cert ~settled st.scs ~cert ~block_hash:(Hash.of_string "b")
      ~height:(st.height + 1)
      ~block_hash_at:(Chain_state.block_hash_at st)
  in
  let settled =
    Hash.Map.singleton (Withdrawal_certificate.hash good)
      (Backend.proof_encode good.proof)
  in
  let misses () = (Verifier.Cache.stats ()).misses in
  Verifier.Cache.clear ();
  checkb "settled certificate accepted" true
    (Result.is_ok (accept ~settled good));
  checki "... without a verification" 0 (misses ());
  let e = err (accept ~settled forged) in
  checkb ("other proof bytes: " ^ e) true (contains ~affix:"SNARK proof rejected" e);
  checki "... after a verification" 1 (misses ())

(* A certificate whose proof is swapped keeps its id, so the block keeps
   its header and aggregate; validation must still refuse it. *)
let test_mutated_proof_refuses_block () =
  let f = Lazy.force fanin_fixture in
  let mutated =
    List.map
      (function
        | Tx.Certificate c
          when Hash.equal (Withdrawal_certificate.hash c)
                 (Withdrawal_certificate.hash f.certs.(5)) ->
          Tx.Certificate (with_proof c f.certs.(6).proof)
        | tx -> tx)
      f.block.txs
  in
  let b = { f.block with txs = mutated } in
  checkb "header unchanged" true (Hash.equal (Block.hash b) (Block.hash f.block));
  Verifier.Cache.clear ();
  (match Chain.add_block f.parent b with
  | Ok _ -> Alcotest.fail "block with a mutated certificate proof accepted"
  | Error e ->
    checkb ("refused: " ^ e) true (contains ~affix:"does not cover" e)
  | exception ex ->
    Alcotest.fail ("add_block raised " ^ Printexc.to_string ex));
  checkb "the honest block applies" true
    (Result.is_ok (Chain.add_block f.parent f.block))

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
      test_twin;
      Alcotest.test_case "aggregates iff certificates" `Quick
        test_aggregates_iff_certificates;
      Alcotest.test_case "cold 64-certificate validation work pinned" `Quick
        test_cold_validation_work_pinned;
      Alcotest.test_case "settled skip binds the proof" `Quick
        test_settled_skip_binds_proof;
      Alcotest.test_case "mutated certificate proof refuses the block" `Quick
        test_mutated_proof_refuses_block;
    ] )
