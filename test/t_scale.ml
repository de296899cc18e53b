(* Mainchain verification at scale: the verification cache (mechanics,
   negative caching, warm verdicts = cold verdicts, batch/sequential
   equivalence on Domain pools), the
   many-sidechain harness registration path, and the two hot-path
   regressions — reorg replay must not re-verify first-sight-verified
   certificate proofs, and duplicate submissions must be answered from
   the cache — and the signature jobs that share the cache: their key
   binds key, message and signature, and a block the miner built
   connects on hits. *)

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
   and restores the default capacity so suite order never matters. *)
let with_clean_cache f =
  Verifier.Cache.clear ();
  Fun.protect
    ~finally:(fun () ->
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

(* [set_enabled] is a leftover label: [true] changes nothing, [false]
   is refused and the cache keeps answering. *)
let test_disabling_refused () =
  with_clean_cache (fun () ->
      let j = job ~epoch:7 ~quality:1 in
      Verifier.Cache.set_enabled true;
      checkb "verifies" true (Verifier.run_job j);
      checkb "disabling raises" true
        (try
           Verifier.Cache.set_enabled false;
           false
         with Invalid_argument _ -> true);
      checkb "verifies again" true (Verifier.run_job j);
      let s = Verifier.Cache.stats () in
      checki "still cached" 1 s.Verifier.Cache.hits;
      checki "one entry" 1 (Verifier.Cache.size ()))

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

(* ---- warm verdicts = cold verdicts ---- *)

(* A valid withdrawal proof: ownership of one coin in a fresh MST. *)
let coin =
  Zen_latus.Utxo.make ~addr:(Hash.of_string "scale-owner")
    ~amount:(Amount.of_int_exn 7) ~nonce:(Hash.of_string "scale-coin")

let reference_block = Hash.of_string "scale-ref"
let receiver = Hash.of_string "scale-recv"
let coin_proofdata = [ Proofdata.Blob (Zen_latus.Utxo.encode coin) ]

let ownership_proof =
  lazy
    (let mst =
       ok (Zen_latus.Mst.apply_ops (Zen_latus.Mst.create params)
             [ Zen_latus.Mst.Op_insert coin ])
     in
     ok
       (Zen_latus.Circuits.prove_ownership family ~mst ~utxo:coin
          ~reference_block ~receiver ~proofdata:coin_proofdata))

let withdrawal_job ?(amount = coin.Zen_latus.Utxo.amount)
    ?(reference_block = reference_block) () =
  Verifier.withdrawal_job
    ~vk:(Zen_latus.Circuits.ownership_keys family).Zen_latus.Circuits.vk
    ~request:
      (Mainchain_withdrawal.make ~kind:Mainchain_withdrawal.Csw
         ~ledger_id:(Hash.of_string "scale-sc") ~receiver ~amount
         ~nullifier:(Zen_latus.Utxo.nullifier coin) ~proofdata:coin_proofdata
         ~proof:(Lazy.force ownership_proof))
    ~reference_block

(* A signature check and its variants: another message, another key,
   another signature by the same key. *)
let sig_sk, sig_pk = Schnorr.of_seed "scale-sig"
let _, other_pk = Schnorr.of_seed "scale-sig-other"

let sig_job ?(pk = sig_pk) ?(msg = "scale-msg") ?signature () =
  let signature =
    match signature with Some s -> s | None -> Schnorr.sign sig_sk "scale-msg"
  in
  Verifier.signature_job ~pk ~msg ~signature

let sig_variants () =
  [
    sig_job ();
    sig_job ~msg:"scale-msh" ();
    sig_job ~pk:other_pk ();
    sig_job ~signature:(Schnorr.sign sig_sk "scale-other") ();
  ]

(* Valid jobs and tampered variants that share every key input but
   one: the quality, an epoch boundary, the proof bytes, the amount,
   the reference block, or a signature's message, key or signature. A
   cache key that dropped any of them would answer a variant with its
   sibling's verdict. *)
let verdict_jobs =
  lazy
    (let corrupt =
       let b =
         Bytes.of_string (Zen_snark.Backend.proof_encode (Lazy.force valid_proof))
       in
       Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
       Option.get (Zen_snark.Backend.proof_decode (Bytes.to_string b))
     in
     let wcert ?(quality = 1) ?(end_prev_epoch = prev) ?(end_epoch = cur)
         ?(proof = Lazy.force valid_proof) () =
       Verifier.wcert_job ~vk:wcert_vk
         ~cert:
           (Withdrawal_certificate.make ~ledger_id:(Hash.of_string "scale-sc")
              ~epoch_id:0 ~quality ~bt_list:[] ~proofdata ~proof)
         ~end_prev_epoch ~end_epoch
     in
     [|
       wcert ();
       wcert ~quality:2 ();
       wcert ~end_epoch:prev ();
       wcert ~end_prev_epoch:cur ();
       wcert ~proof:corrupt ();
       withdrawal_job ();
       withdrawal_job ~amount:(Amount.of_int_exn 8) ();
       withdrawal_job ~reference_block:cur ();
     |]
     |> fun a -> Array.append a (Array.of_list (sig_variants ())))

(* Any sequence of jobs, repeats included, run through the warm cache
   gets the verdict each job gets alone on a cleared cache. *)
let prop_warm_equals_cold =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"warm cache = cold verdict" ~count:100
       QCheck2.Gen.(list_size (int_range 1 24) (int_range 0 11))
       (fun picks ->
         let jobs = Lazy.force verdict_jobs in
         with_clean_cache (fun () ->
             let warm = List.map (fun i -> Verifier.run_job jobs.(i)) picks in
             let cold =
               List.map
                 (fun i ->
                   Verifier.Cache.clear ();
                   Verifier.run_job jobs.(i))
                 picks
             in
             warm = cold)))

(* The signature key binds each of the key, the message and the
   signature; the same triple gives the same key. *)
let test_signature_key_binds_inputs () =
  let keys = List.map Verifier.job_key (sig_variants ()) in
  checkb "same triple, same key" true
    (Hash.equal (Verifier.job_key (sig_job ())) (List.hd keys));
  checki "four triples, four keys" 4
    (List.length (List.sort_uniq Hash.compare keys));
  checkb "genuine verifies, variants do not" true
    (List.map Verifier.run_job (sig_variants ()) = [ true; false; false; false ])

(* Two signatures with R at infinity that differ only in s: the key
   binds s, and neither verifies. *)
let test_infinity_r_signature_keys () =
  let infinity_r s =
    Option.get
      (Schnorr.sig_decode
         (String.make 64 '\000' ^ String.make 31 '\000' ^ String.make 1 s))
  in
  let jobs =
    List.map (fun s -> sig_job ~signature:(infinity_r s) ()) [ '\001'; '\002' ]
  in
  checki "two keys" 2
    (List.length (List.sort_uniq Hash.compare (List.map Verifier.job_key jobs)));
  checkb "neither verifies" true
    (List.map Verifier.run_job jobs = [ false; false ])

(* A funded mainchain: [n] blocks paying the wallet, so the early
   coinbases have matured. *)
let funded_chain ~seed n =
  let params = { Chain_state.default_params with pow = Pow.trivial } in
  let wallet = Wallet.create ~seed in
  let addr = Wallet.fresh_address wallet in
  let chain = ref (Chain.create ~params ~time:0 ()) in
  for i = 1 to n do
    let b, _ = ok (Miner.build_block !chain ~time:i ~miner_addr:addr ~candidates:[]) in
    chain := fst (ok (Chain.add_block !chain b))
  done;
  (!chain, wallet)

let transfer wallet chain amt =
  ok
    (Wallet.build_transfer wallet (Chain.tip_state chain)
       ~outputs:
         [ Tx.Coin { addr = Hash.of_string "scale-payee"; amount = Amount.of_int_exn amt } ]
       ~fee:Amount.zero)

(* The miner's trial verifies a transfer's input signatures; connecting
   the block it built answers them from the cache. A block carrying a
   transfer whose signature belongs to another transfer of the same
   coin is refused, cold and warm, with an error and no exception. *)
let test_transfer_signatures_cached () =
  with_clean_cache (fun () ->
      let chain, wallet = funded_chain ~seed:"scale-transfer" 4 in
      let tx1 = transfer wallet chain 1_000 and tx2 = transfer wallet chain 2_000 in
      let tampered =
        match (tx1, tx2) with
        | Tx.Transfer t1, Tx.Transfer t2 ->
          Tx.Transfer
            {
              t1 with
              inputs =
                List.map2
                  (fun (i1 : Tx.input) (i2 : Tx.input) ->
                    { i1 with signature = i2.signature })
                  t1.inputs t2.inputs;
            }
        | _ -> Alcotest.fail "expected transfers"
      in
      let height = Chain.height chain + 1 in
      let block_of txs =
        ok
          (Block.assemble ~prev:(Chain.tip_hash chain) ~height ~time:100
             ~txs:
               (Tx.Coinbase
                  {
                    height;
                    reward =
                      { Tx.addr = Hash.of_string "scale-miner";
                        amount = Chain_state.default_params.subsidy };
                  }
               :: txs)
             ~pow:Pow.trivial ())
      in
      let bad = block_of [ tampered ] in
      let refused () =
        match Chain.add_block chain bad with
        | Error e -> e
        | Ok _ -> Alcotest.fail "tampered transfer accepted"
      in
      Alcotest.(check string) "refused cold" "tx: invalid signature" (refused ());
      (* the miner's trial verifies both candidates (the tampered one
         first, while its coin is unspent) and keeps tx1 *)
      Verifier.Cache.clear ();
      let built, skipped =
        ok
          (Miner.build_block chain ~time:100 ~miner_addr:(Hash.of_string "scale-miner")
             ~candidates:[ tampered; tx1 ])
      in
      checki "trial skips the tampered transfer" 1 (List.length skipped);
      let s0 = Verifier.Cache.stats () in
      Alcotest.(check string) "refused warm" "tx: invalid signature" (refused ());
      (match Chain.add_block chain built with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("built block refused: " ^ e));
      let s1 = Verifier.Cache.stats () in
      checki "connecting verified nothing again" 0
        (s1.Verifier.Cache.misses - s0.Verifier.Cache.misses);
      checki "both answered from the cache" 2
        (s1.Verifier.Cache.hits - s0.Verifier.Cache.hits))

(* ---- batch verification: bit-identical to sequential ---- *)

let test_batch_matches_sequential () =
  (* Alternating valid/invalid jobs: the expected decisions are known
     by construction. *)
  let jobs = List.init 12 (fun i -> job ~epoch:i ~quality:(1 + (i mod 2))) in
  let expected = List.init 12 (fun i -> i mod 2 = 0) in
  List.iter
    (fun domains ->
      with_clean_cache (fun () ->
          let run () =
            if domains = 1 then Verifier.verify_batch jobs
            else Verifier.verify_batch ~pool:(Pool.get ~domains) jobs
          in
          let cold = run () in
          checkb
            (Printf.sprintf "domains %d cold pass" domains)
            true (cold = expected);
          (* the warm pass is served from the cache with the same
             decisions *)
          let hits0 = (Verifier.Cache.stats ()).Verifier.Cache.hits in
          let warm = run () in
          checkb
            (Printf.sprintf "domains %d warm pass" domains)
            true (warm = expected);
          checki "warm pass fully cached" (hits0 + 12)
            (Verifier.Cache.stats ()).Verifier.Cache.hits))
    [ 1; 2; 4 ]

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
      let registered = List.rev h.Harness.sidechains_rev in
      checki "all registered" 64 (List.length registered);
      (* registration order is preserved (the tick drive order) *)
      List.iteri
        (fun i (sc : Harness.sidechain) ->
          checkb
            (Printf.sprintf "order %d" i)
            true
            (String.equal sc.name (Printf.sprintf "sc%d" i)))
        registered;
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

(* ---- duplicate submissions are answered from the cache ---- *)

let run_world ~plan seed =
  Verifier.Cache.clear ();
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
      let h, sc = run_world ~plan "scale-dup" in
      checkb "epochs certified under duplication" true
        (certified_epochs h sc = [ 3; 2; 1; 0 ]);
      let s = Verifier.Cache.stats () in
      checkb "duplicates answered from cache" true (s.Verifier.Cache.hits > 0);
      checkb "each proof verified once" true
        (s.Verifier.Cache.misses < s.Verifier.Cache.hits + s.Verifier.Cache.misses))

(* ---- hot-path regressions ---- *)

(* Resizing the cache from one domain while others verify must never
   corrupt a verdict. Verdicts depend only on the proof, never on cache
   state, so workers can assert exact outcomes while the toggler
   spins. *)
let test_concurrent_toggle_keeps_verdicts () =
  with_clean_cache (fun () ->
      let stop = Atomic.make false in
      let toggler =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Verifier.Cache.set_capacity 4;
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
  checkb "length" true
    (Height_index.get !idx (n - 1) = Some (h (n - 1))
    && Height_index.get !idx n = None);
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
      Alcotest.test_case "disabling is refused" `Quick test_disabling_refused;
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
      prop_warm_equals_cold;
      Alcotest.test_case "signature key binds its inputs" `Quick
        test_signature_key_binds_inputs;
      Alcotest.test_case "transfer signatures cached" `Quick
        test_transfer_signatures_cached;
      Alcotest.test_case "infinity-R signature keys" `Quick
        test_infinity_r_signature_keys;
    ] )
