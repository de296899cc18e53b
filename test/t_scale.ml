(* Mainchain verification at scale: the verification cache (mechanics,
   negative caching, batch/sequential equivalence on Domain pools), the
   many-sidechain harness registration path, and the two hot-path
   regressions — reorg replay must not re-verify first-sight-verified
   certificate proofs, and duplicate submissions must be answered from
   the cache. *)

open Zen_crypto
open Zen_mainchain
open Zen_sim
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e

let params = Zen_latus.Params.default
let family = Zen_latus.Circuits.make params
let wcert_vk = (Zen_latus.Circuits.wcert_keys family).Zen_latus.Circuits.vk

(* The cache is process-global; every test starts from a clean slate
   and restores the defaults so suite order never matters. *)
let with_clean_cache f =
  Verifier.Cache.clear ();
  Verifier.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Verifier.Cache.set_enabled true;
      Verifier.Cache.set_capacity 4096;
      Verifier.Cache.clear ())
    f

let prev = Hash.of_string "scale-prev"
let cur = Hash.of_string "scale-cur"
let proofdata = Proofdata.[ Digest Hash.zero; Field Fp.one; Blob "" ]

let valid_proof =
  lazy
    (ok
       (Zen_latus.Circuits.prove_wcert_binding family ~quality:1
          ~bt_root:(Backward_transfer.list_root []) ~end_prev_epoch:prev
          ~end_epoch:cur ~proofdata ~s_prev:Fp.zero ~s_last:Fp.zero))

(* [quality = 1] verifies against [Lazy.force valid_proof]; any other
   quality contradicts the proof's statement and must verify false. *)
let cert ~epoch ~quality =
  Withdrawal_certificate.make ~ledger_id:(Hash.of_string "scale-sc")
    ~epoch_id:epoch ~quality ~bt_list:[] ~proofdata
    ~proof:(Lazy.force valid_proof)

let job ~epoch ~quality =
  Verifier.wcert_job ~vk:wcert_vk ~cert:(cert ~epoch ~quality)
    ~end_prev_epoch:prev ~end_epoch:cur

(* ---- cache mechanics ---- *)

let test_cache_hit_miss_stats () =
  with_clean_cache (fun () ->
      let j = job ~epoch:0 ~quality:1 in
      checkb "first sight verifies" true (Verifier.run_job j);
      checkb "second sight verifies" true (Verifier.run_job j);
      let s = Verifier.Cache.stats () in
      checki "one miss" 1 s.Verifier.Cache.misses;
      checki "one hit" 1 s.Verifier.Cache.hits;
      checki "one insertion" 1 s.Verifier.Cache.insertions;
      checki "no evictions" 0 s.Verifier.Cache.evictions;
      checki "one entry" 1 (Verifier.Cache.size ());
      (* a different certificate is a different key *)
      checkb "other epoch verifies" true (Verifier.run_job (job ~epoch:1 ~quality:1));
      checki "two entries" 2 (Verifier.Cache.size ());
      Verifier.Cache.clear ();
      checki "cleared" 0 (Verifier.Cache.size ());
      checki "stats cleared" 0 (Verifier.Cache.stats ()).Verifier.Cache.hits)

let test_cache_negative_caching () =
  with_clean_cache (fun () ->
      let bad = job ~epoch:0 ~quality:2 in
      checkb "invalid proof rejected" false (Verifier.run_job bad);
      checkb "still rejected from cache" false (Verifier.run_job bad);
      let s = Verifier.Cache.stats () in
      checki "rejection cached" 1 s.Verifier.Cache.hits;
      (* the cached rejection never flips the accept decision *)
      checkb "valid sibling unaffected" true
        (Verifier.run_job (job ~epoch:0 ~quality:1)))

let test_cache_disabled () =
  with_clean_cache (fun () ->
      Verifier.Cache.set_enabled false;
      let j = job ~epoch:7 ~quality:1 in
      checkb "verifies without cache" true (Verifier.run_job j);
      checkb "verifies again" true (Verifier.run_job j);
      let s = Verifier.Cache.stats () in
      checki "no hits when disabled" 0 s.Verifier.Cache.hits;
      checki "no misses when disabled" 0 s.Verifier.Cache.misses;
      checki "nothing stored" 0 (Verifier.Cache.size ()))

let test_cache_eviction () =
  with_clean_cache (fun () ->
      Verifier.Cache.set_capacity 4;
      for e = 0 to 5 do
        ignore (Verifier.run_job (job ~epoch:e ~quality:1) : bool)
      done;
      checki "bounded at capacity" 4 (Verifier.Cache.size ());
      checki "two evicted" 2 (Verifier.Cache.stats ()).Verifier.Cache.evictions;
      (* FIFO: the oldest entries are gone, the newest survive *)
      let hits0 = (Verifier.Cache.stats ()).Verifier.Cache.hits in
      ignore (Verifier.run_job (job ~epoch:5 ~quality:1) : bool);
      checki "newest still cached" (hits0 + 1)
        (Verifier.Cache.stats ()).Verifier.Cache.hits;
      let misses0 = (Verifier.Cache.stats ()).Verifier.Cache.misses in
      ignore (Verifier.run_job (job ~epoch:0 ~quality:1) : bool);
      checki "oldest was evicted" (misses0 + 1)
        (Verifier.Cache.stats ()).Verifier.Cache.misses;
      (* shrinking evicts down to the new bound *)
      Verifier.Cache.set_capacity 2;
      checki "shrunk" 2 (Verifier.Cache.size ());
      checkb "capacity floor" true
        (try
           Verifier.Cache.set_capacity 0;
           false
         with Invalid_argument _ -> true))

(* ---- batch verification: bit-identical to sequential ---- *)

let test_batch_matches_sequential () =
  (* Alternating valid/invalid jobs: the expected decisions are known
     by construction. *)
  let jobs = List.init 12 (fun i -> job ~epoch:i ~quality:(1 + (i mod 2))) in
  let expected = List.init 12 (fun i -> i mod 2 = 0) in
  List.iter
    (fun cache_on ->
      List.iter
        (fun domains ->
          with_clean_cache (fun () ->
              Verifier.Cache.set_enabled cache_on;
              let run () =
                if domains = 1 then Verifier.verify_batch jobs
                else Verifier.verify_batch ~pool:(Pool.get ~domains) jobs
              in
              let first = run () in
              checkb
                (Printf.sprintf "cache %b domains %d first pass" cache_on domains)
                true (first = expected);
              (* the second pass is served from the cache when enabled;
                 decisions must not change either way *)
              let hits0 = (Verifier.Cache.stats ()).Verifier.Cache.hits in
              let second = run () in
              checkb
                (Printf.sprintf "cache %b domains %d second pass" cache_on
                   domains)
                true (second = expected);
              if cache_on then
                checki "second pass fully cached" (hits0 + 12)
                  (Verifier.Cache.stats ()).Verifier.Cache.hits))
        [ 1; 2; 4 ])
    [ true; false ]

(* ---- many-sidechain registration (the O(n^2) append / nonce bug) ---- *)

let test_many_sidechain_registration () =
  with_clean_cache (fun () ->
      let h = Harness.create ~seed:"scale-reg" () in
      Harness.fund h ~blocks:3;
      let scs =
        List.init 64 (fun i ->
            ok
              (Harness.add_latus h
                 ~name:(Printf.sprintf "sc%d" i)
                 ~family ~epoch_len:40 ~submit_len:5 ~activation_delay:30 ()))
      in
      checki "all registered" 64 (List.length (Harness.sidechains h));
      (* registration order is preserved (the tick drive order) *)
      List.iteri
        (fun i (sc : Harness.sidechain) ->
          checkb
            (Printf.sprintf "order %d" i)
            true
            (String.equal sc.name (Printf.sprintf "sc%d" i)))
        (Harness.sidechains h);
      (* every ledger id is distinct (the old [List.length + 1] nonce
         could collide after removals; the monotonic counter cannot) *)
      let ids = List.map (fun (sc : Harness.sidechain) -> sc.ledger_id) scs in
      let distinct =
        List.length (List.sort_uniq Hash.compare ids) = List.length ids
      in
      checkb "ledger ids distinct" true distinct;
      (* and the mainchain ledger agrees *)
      let st = Chain.tip_state h.chain in
      List.iter
        (fun id -> checkb "on MC" true (Option.is_some (Sc_ledger.find st.scs id)))
        ids)

(* ---- reorg replay must not re-verify accepted proofs ---- *)

let certified_epochs h (sc : Harness.sidechain) =
  let st = Chain.tip_state h.Harness.chain in
  match Sc_ledger.find st.scs sc.ledger_id with
  | None -> []
  | Some s ->
    List.map
      (fun (c : Sc_ledger.cert_record) ->
        c.Sc_ledger.cert.Withdrawal_certificate.epoch_id)
      s.Sc_ledger.certs

let test_reorg_replay_uses_cache () =
  with_clean_cache (fun () ->
      let h = Harness.create ~seed:"scale-reorg" () in
      Harness.fund h ~blocks:3;
      let sc =
        ok
          (Harness.add_latus h ~name:"sc" ~family ~epoch_len:3 ~submit_len:3
             ~activation_delay:1 ())
      in
      (* tick until the first certificate lands on the mainchain *)
      let rec advance n =
        if n = 0 then Alcotest.fail "no certificate within budget"
        else if certified_epochs h sc = [] then begin
          Harness.tick h;
          advance (n - 1)
        end
      in
      advance 20;
      checkb "epoch 0 certified" true (certified_epochs h sc = [ 0 ]);
      (* orphan the certificate block; the harness reinjects the
         disconnected certificate into the mempool *)
      let s0 = Verifier.Cache.stats () in
      Harness.force_reorg h ~depth:1;
      Harness.mine h;
      let s1 = Verifier.Cache.stats () in
      checkb "cert re-accepted after reorg" true (certified_epochs h sc = [ 0 ]);
      checki "replay never re-verified" 0
        (s1.Verifier.Cache.misses - s0.Verifier.Cache.misses);
      checkb "replay served from cache" true
        (s1.Verifier.Cache.hits - s0.Verifier.Cache.hits >= 1))

(* ---- duplicate submissions are answered from the cache, and the
        acceptance decisions match a cache-disabled world ---- *)

let run_world ~cache ~plan seed =
  Verifier.Cache.clear ();
  Verifier.Cache.set_enabled cache;
  let faults =
    match plan with
    | [] -> None
    | p -> Some (Faults.create p)
  in
  let h = Harness.create ?faults ~seed () in
  Harness.fund h ~blocks:3;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:3 ~submit_len:3
         ~activation_delay:1 ())
  in
  Harness.tick_n h 14;
  (h, sc)

let test_duplicate_submissions_hit_cache () =
  with_clean_cache (fun () ->
      let plan =
        [
          Faults.Cert_fault { epoch = 0; fault = Faults.Duplicate 2 };
          Faults.Cert_fault { epoch = 1; fault = Faults.Duplicate 2 };
        ]
      in
      let h, sc = run_world ~cache:true ~plan "scale-dup" in
      let with_cache = certified_epochs h sc in
      checkb "epochs certified under duplication" true
        (List.mem 0 with_cache && List.mem 1 with_cache);
      let s = Verifier.Cache.stats () in
      checkb "duplicates answered from cache" true (s.Verifier.Cache.hits > 0);
      checkb "each proof verified once" true
        (s.Verifier.Cache.misses < s.Verifier.Cache.hits + s.Verifier.Cache.misses);
      (* the same world with the cache disabled reaches the same
         acceptance decisions *)
      let h', sc' = run_world ~cache:false ~plan "scale-dup" in
      checkb "decisions identical without cache" true
        (certified_epochs h' sc' = with_cache);
      checki "cache stayed cold" 0 (Verifier.Cache.stats ()).Verifier.Cache.hits)

(* ---- hot-path regressions ---- *)

(* The enabled flag and capacity are plain [Atomic.t]s read on every
   [run_job]; toggling them from one domain while others verify must
   never corrupt a verdict (the seed read the flag unsynchronised,
   which is UB under the OCaml memory model). Verdicts depend only on
   the proof, never on cache state, so workers can assert exact
   outcomes while the toggler spins. *)
let test_concurrent_toggle_keeps_verdicts () =
  with_clean_cache (fun () ->
      let stop = Atomic.make false in
      let toggler =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Verifier.Cache.set_enabled false;
              Verifier.Cache.set_capacity 4;
              Verifier.Cache.set_enabled true;
              Verifier.Cache.set_capacity 4096
            done)
      in
      let worker good =
        Domain.spawn (fun () ->
            let sound = ref true in
            for e = 0 to 299 do
              let quality = if good then 1 else 2 in
              let verdict =
                Verifier.run_job (job ~epoch:(e mod 8) ~quality)
              in
              if verdict <> good then sound := false
            done;
            !sound)
      in
      let workers = [ worker true; worker false; worker true; worker false ] in
      let verdicts_sound = List.map Domain.join workers in
      Atomic.set stop true;
      Domain.join toggler;
      checkb "verdicts correct under concurrent toggling" true
        (List.for_all Fun.id verdicts_sound))

(* [Chain_state.block_hash_at] was [List.nth_opt] — O(height) per
   certificate verification, O(height²) to validate a deep chain. The
   persistent index must answer deep lookups fast and share structure
   across branches. *)
let test_height_index_deep_chain () =
  let h i = Hash.of_string (Printf.sprintf "hi-%d" i) in
  let n = 200_000 in
  let idx = ref Height_index.empty in
  for i = 0 to n - 1 do
    idx := Height_index.append !idx (h i)
  done;
  checki "length" n (Height_index.length !idx);
  (* branch point: two forks extending the same snapshot stay distinct *)
  let fork_a = Height_index.append !idx (h 1_000_001)
  and fork_b = Height_index.append !idx (h 2_000_002) in
  checkb "forks diverge at the new height" true
    (Height_index.get fork_a n <> Height_index.get fork_b n);
  checkb "forks share the prefix" true
    (Height_index.get fork_a 12345 = Height_index.get fork_b 12345);
  (* deep random access: ~1e9 list-cell visits under the seed's
     List.nth_opt, milliseconds here — the generous bound only trips on
     an accidental return to linear lookup *)
  let t0 = Unix.gettimeofday () in
  let seed = ref 123456789 in
  for _ = 1 to 10_000 do
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !seed mod n in
    match Height_index.get !idx i with
    | Some x when Hash.equal x (h i) -> ()
    | _ -> Alcotest.fail (Printf.sprintf "wrong hash at height %d" i)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  checkb
    (Printf.sprintf "10k deep lookups stay sublinear (%.3fs)" dt)
    true (dt < 2.0);
  checkb "out of range" true (Height_index.get !idx n = None);
  checkb "negative" true (Height_index.get !idx (-1) = None)

(* The duplicate-input check of [Chain_state.apply_tx] was O(n²)
   ([List.mem] per element); its Hashtbl pass must refuse exactly the
   transfers whose outpoints the naive check finds a duplicate in. *)
let test_distinct_outpoints_equiv =
  let naive l =
    let rec go = function
      | [] -> true
      | (o : Tx.outpoint) :: rest ->
        (not
           (List.exists
              (fun (o' : Tx.outpoint) ->
                o.vout = o'.vout && Hash.equal o.txid o'.txid)
              rest))
        && go rest
    in
    go l
  in
  let sk, pk = Schnorr.of_seed "distinct-outpoints" in
  let signature = Schnorr.sign sk "unchecked" in
  let state =
    Chain_state.of_genesis Chain_state.default_params (Block.genesis ~time:0)
  in
  (* Any other refusal (here: the coins do not exist) comes after the
     duplicate check. *)
  let distinct l =
    let inputs = List.map (fun outpoint -> { Tx.outpoint; pk; signature }) l in
    match
      Chain_state.apply_tx state ~height:1 ~block_hash:Hash.zero
        (Tx.Transfer { inputs; outputs = [] })
    with
    | Error "tx: duplicate input" -> false
    | _ -> true
  in
  let gen_outpoint =
    QCheck2.Gen.(
      (* a tiny txid/vout space, so duplicates are the common case *)
      map2
        (fun t v -> { Tx.txid = Hash.of_string (Printf.sprintf "op-%d" t); vout = v })
        (int_range 0 7) (int_range 0 2))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"distinct_outpoints = naive" ~count:500
       QCheck2.Gen.(list_size (int_range 0 24) gen_outpoint)
       (fun l -> distinct l = naive l))

let suite =
  ( "scale",
    [
      Alcotest.test_case "cache hit/miss/stats" `Quick test_cache_hit_miss_stats;
      Alcotest.test_case "negative caching" `Quick test_cache_negative_caching;
      Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
      Alcotest.test_case "fifo eviction" `Quick test_cache_eviction;
      Alcotest.test_case "batch = sequential" `Quick test_batch_matches_sequential;
      Alcotest.test_case "64 sidechains" `Quick test_many_sidechain_registration;
      Alcotest.test_case "reorg replay cached" `Quick test_reorg_replay_uses_cache;
      Alcotest.test_case "duplicate submissions" `Quick
        test_duplicate_submissions_hit_cache;
      Alcotest.test_case "concurrent cache toggle" `Quick
        test_concurrent_toggle_keeps_verdicts;
      Alcotest.test_case "height index deep chain" `Quick
        test_height_index_deep_chain;
      test_distinct_outpoints_equiv;
    ] )
