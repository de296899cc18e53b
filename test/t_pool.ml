(* The Domain worker pool: scheduling edge cases (empty input, one
   domain, more domains than tasks), exception propagation, and the
   load-bearing guarantee — everything built on the pool is
   bit-identical to the sequential path for every domain count. *)

open Zen_crypto
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* A loop body run through [Pool.init_array]. *)
let parallel_for pool ~cost ~n body = ignore (Pool.init_array pool ~cost n body)

let params = Params.default
let family = lazy (Circuits.make params)

(* ---- scheduling edge cases ---- *)

let test_empty_input () =
  let pool = Pool.get ~domains:4 in
  checki "init_array 0" 0
    (Array.length (Pool.init_array pool ~cost:1.0 0 (fun _ -> assert false)));
  checkb "map_list []" true (Pool.map_list pool ~cost:1.0 (fun x -> x + 1) [] = []);
  parallel_for pool ~cost:1.0 ~n:0 (fun _ -> assert false)

let test_one_domain_is_sequential () =
  (* domains=1 must never spawn: tasks run on the caller's domain, in
     order, so effects on non-atomic state are safe. *)
  let pool = Pool.create ~domains:1 in
  checki "domains" 1 (Pool.domains pool);
  let trace = ref [] in
  parallel_for pool ~cost:1.0 ~n:5 (fun i -> trace := i :: !trace);
  checkb "in order on caller" true (!trace = [ 4; 3; 2; 1; 0 ]);
  Pool.shutdown pool;
  checkb "sequential handle reusable after shutdown" true
    (Pool.map_list Pool.sequential ~cost:1.0 string_of_int [ 1; 2 ] = [ "1"; "2" ])

let test_more_domains_than_tasks () =
  let pool = Pool.get ~domains:8 in
  let r = Pool.init_array pool ~cost:1.0 3 (fun i -> i * i) in
  checkb "3 tasks on 8 domains" true (r = [| 0; 1; 4 |]);
  (* n=1 runs inline even on a wide pool *)
  let r1 = Pool.init_array pool ~cost:1.0 1 (fun i -> i + 41) in
  checkb "single task" true (r1 = [| 41 |])

let test_exception_propagates () =
  let pool = Pool.get ~domains:4 in
  let raised =
    try
      parallel_for pool ~cost:1.0 ~n:16 (fun i ->
          if i mod 5 = 2 then failwith "boom");
      false
    with Failure msg -> String.equal msg "boom"
  in
  checkb "worker exception re-raised in caller" true raised;
  (* the pool survives a failed operation *)
  let r = Pool.map_array pool ~cost:1.0 (fun x -> x * 2) [| 1; 2; 3; 4 |] in
  checkb "pool usable after failure" true (r = [| 2; 4; 6; 8 |]);
  (* even Stack_overflow from a body reaches the caller, not a worker
     wrapper — the wrapper's swallow counter must stay untouched *)
  let swallowed () =
    match
      List.find_opt
        (fun c -> String.equal (Zen_obs.Counter.name c) "pool.worker.swallowed")
        (Zen_obs.Counter.all ())
    with
    | Some c -> Zen_obs.Counter.value c
    | None -> 0
  in
  let before = swallowed () in
  let overflow =
    try
      parallel_for pool ~cost:1.0 ~n:8 (fun i ->
          if i = 3 then raise Stack_overflow);
      false
    with Stack_overflow -> true
  in
  checkb "stack overflow re-raised in caller" true overflow;
  checki "no exception swallowed by worker wrappers" before (swallowed ());
  let r = Pool.map_array pool ~cost:1.0 (fun x -> x + 1) [| 1; 2 |] in
  checkb "pool usable after overflow" true (r = [| 2; 3 |])

(* ---- the shared registry ---- *)

let test_shared_pool_reuse () =
  (* One persistent pool per domain count: consecutive gets return the
     same spawned pool. *)
  let p = Pool.get ~domains:3 in
  checki "domains" 3 (Pool.domains p);
  checkb "get is idempotent" true (p == Pool.get ~domains:3);
  checkb "get ~domains:1 is the sequential handle" true
    (Pool.get ~domains:1 == Pool.sequential);
  (* the same pool serves consecutive operations of different shapes *)
  let a = Pool.init_array p ~cost:1.0 100 (fun i -> i * 3) in
  let b = Pool.map_array p ~cost:1.0 (fun x -> x + 1) a in
  let c = Pool.map_list p ~cost:1.0 string_of_int [ 7; 8; 9 ] in
  checkb "first op" true (a = Array.init 100 (fun i -> i * 3));
  checkb "second op" true (b = Array.init 100 (fun i -> (i * 3) + 1));
  checkb "third op" true (c = [ "7"; "8"; "9" ])

let test_nested_parallel_shared () =
  (* Nested operations on the *same* shared pool must neither deadlock
     nor change results: the inner operation's caller (a worker or the
     outer caller) can always drain its own chunk counter alone. *)
  let p = Pool.get ~domains:4 in
  let outer = 6 and inner = 40 in
  let expected =
    Array.init outer (fun i ->
        Array.init inner (fun j -> (i * 1000) + (j * j)))
  in
  let got = Array.make outer [||] in
  parallel_for p ~cost:1.0 ~n:outer (fun i ->
      got.(i) <-
        Pool.init_array p ~cost:0.125 inner (fun j -> (i * 1000) + (j * j)));
  checkb "nested parallel on the shared pool is correct" true (got = expected)

let test_shutdown_then_reuse () =
  (* Shutting a registry pool down by hand degrades it to caller-only
     execution (correct, just sequential); the registry replaces it on
     the next get. *)
  let p = Pool.get ~domains:4 in
  Pool.shutdown p;
  let r = Pool.map_array p ~cost:1.0 (fun x -> x * x) [| 1; 2; 3 |] in
  checkb "shut-down pool still completes operations" true (r = [| 1; 4; 9 |]);
  let p' = Pool.get ~domains:4 in
  checkb "registry replaces a shut-down pool" true (not (p' == p));
  let r' = Pool.init_array p' ~cost:1.0 64 (fun i -> i + 1) in
  checkb "replacement pool works" true (r' = Array.init 64 (fun i -> i + 1))

(* Chunk batching is scheduling only: for any (n, domains, cost hint)
   — from one-index chunks to hints coarse enough to force the inline
   path — the result is bit-identical to Array.init. *)
let prop_chunking_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"batched = sequential bit-identical" ~count:30
       QCheck2.Gen.(
         tup4 (int_range 0 200) (int_range 1 5)
           (map (fun ms -> float_of_int ms /. 100.) (int_range 0 400))
           (int_range 0 1000))
       (fun (n, domains, cost, salt) ->
         let f i = Hash.to_hex (Hash.of_string (Printf.sprintf "%d-%d" salt i)) in
         let expected = Array.init n f in
         Pool.init_array (Pool.get ~domains) ~cost n f = expected))

(* ---- determinism of the parallel builders ---- *)

let test_merkle_parallel_identical () =
  let data = List.init 100 (fun i -> Printf.sprintf "block-%d" i) in
  let seq = Merkle.of_data data in
  let pool = Pool.get ~domains:4 in
  let par = Merkle.of_data ~pool data in
  checkb "merkle root identical" true
    (Hash.equal (Merkle.root seq) (Merkle.root par))

(* ---- epoch proofs and certificates across domain counts ---- *)

let workload steps seed =
  List.init steps (fun i ->
      Sc_tx.Insert
        (Utxo.make
           ~addr:(Hash.of_string "t-pool")
           ~amount:(Amount.of_int_exn (i + 1))
           ~nonce:(Hash.of_string (Printf.sprintf "t-pool-%d-%d" seed i))))

(* Everything observable from one epoch proven on [domains] domains:
   per-task proof bytes, dispatch rewards, the merged epoch proof, the
   certificate-facing binding proof, and the certificate hash. *)
let epoch_fingerprint ~domains ~steps ~seed =
  let family = Lazy.force family in
  let pool = Pool.get ~domains in
  let rsys =
    Zen_snark.Recursive.create ~name:"t-pool"
      ~base_vks:(Circuits.base_vks family)
  in
  let proofs, stats, top =
    ok
      (Prover_pool.prove_and_merge ~pool family rsys
         ~initial:(Sc_state.create params)
         ~steps:(workload steps seed) ~workers:3 ~seed)
  in
  let bt_root = Backward_transfer.list_root [] in
  let proofdata = Proofdata.[ Digest Hash.zero; Field Fp.one; Blob "" ] in
  let binding =
    ok
      (Circuits.prove_wcert_binding family ~quality:1 ~bt_root
         ~end_prev_epoch:(Hash.of_string "prev")
         ~end_epoch:(Hash.of_string "cur") ~proofdata
         ~s_prev:(Zen_snark.Recursive.s_from top)
         ~s_last:(Zen_snark.Recursive.s_to top))
  in
  let cert =
    Withdrawal_certificate.make ~ledger_id:(Hash.of_string "sc") ~epoch_id:0
      ~quality:1 ~bt_list:[] ~proofdata ~proof:binding
  in
  ( List.map
      (fun tp ->
        Zen_snark.Backend.proof_encode
          (Zen_snark.Recursive.final_proof tp.Prover_pool.transition))
      proofs,
    stats.Prover_pool.rewards,
    Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top),
    Zen_snark.Backend.proof_encode binding,
    Withdrawal_certificate.hash cert )

let prop_epoch_identical_across_domains =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"epoch proof/certificate identical on 1/2/4 domains"
       ~count:3
       QCheck2.Gen.(pair (int_range 1 6) (int_range 0 1000))
       (fun (steps, seed) ->
         let base, rew, top, bind, cert =
           epoch_fingerprint ~domains:1 ~steps ~seed
         in
         List.for_all
           (fun domains ->
             let base', rew', top', bind', cert' =
               epoch_fingerprint ~domains ~steps ~seed
             in
             base = base' && rew = rew' && String.equal top top'
             && String.equal bind bind' && Hash.equal cert cert')
           [ 2; 4 ]))

(* A 7-leaf epoch folded sequentially by prove_and_merge, then the same
   wrapped base proofs folded by fold_balanced on two domains. *)
let test_fold_balanced_parallel_identical () =
  let family = Lazy.force family in
  let rsys =
    Zen_snark.Recursive.create ~name:"t-pool-fold"
      ~base_vks:(Circuits.base_vks family)
  in
  let proofs, _, seq =
    ok
      (Prover_pool.prove_and_merge family rsys
         ~initial:(Sc_state.create params)
         ~steps:(workload 7 5) ~workers:2 ~seed:5)
  in
  let transitions = List.map (fun tp -> tp.Prover_pool.transition) proofs in
  let pool = Pool.get ~domains:2 in
  let par = ok (Fold_oracle.fold_balanced ~pool rsys transitions) in
  checkb "odd-width merge tree identical" true
    (String.equal
       (Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof seq))
       (Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof par)))

let suite =
  ( "pool",
    [
      Alcotest.test_case "empty input" `Quick test_empty_input;
      Alcotest.test_case "one domain is sequential" `Quick
        test_one_domain_is_sequential;
      Alcotest.test_case "more domains than tasks" `Quick
        test_more_domains_than_tasks;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "shared pool reuse" `Quick test_shared_pool_reuse;
      Alcotest.test_case "nested parallel on shared pool" `Quick
        test_nested_parallel_shared;
      Alcotest.test_case "shutdown then reuse degrades" `Quick
        test_shutdown_then_reuse;
      prop_chunking_deterministic;
      Alcotest.test_case "merkle parallel identical" `Quick
        test_merkle_parallel_identical;
      Alcotest.test_case "odd-width fold identical" `Slow
        test_fold_balanced_parallel_identical;
      prop_epoch_identical_across_domains;
    ] )
