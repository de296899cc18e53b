(* Pipelined epoch proving: the Fold online fold over Recursive.merge
   must be byte-identical to the batch fold_balanced oracle for every prefix
   length and every domain count (including error selection),
   Prover_pool.prove_and_merge must reproduce the two-phase prover
   (below: prove every step, then fold) exactly, Proof_pipeline must
   match the burst prover (prove every kept step synchronously, then
   fold) through truncations and drops, and a harness run is a pure
   function of its seed for every domain count. *)

open Zen_crypto
open Zen_snark
open Zen_latus
open Zendoo
open Zen_sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let params = Params.default
let family = Circuits.make params

let ceil_log2 n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

(* ---- Fold = fold_balanced, on a cheap synthetic chain ---- *)

(* The t_snark step circuit: s_to = Poseidon(s_from, x). Cheap enough
   to build a 17-link chain once and reuse across all the prefix
   tests. *)
let synth_step s x =
  let ctx = Gadget.create () in
  let w_from = Gadget.input ctx s in
  let s_to = Poseidon.hash2 s x in
  let w_to = Gadget.input ctx s_to in
  let wx = Gadget.witness ctx x in
  Gadget.assert_eq ~label:"step" ctx (Gadget.poseidon2 ctx w_from wx) w_to;
  (Gadget.finalize ~name:"pipe.step" ctx, s_to)

let make_chain sys pk vk s0 n =
  let rec go s i acc =
    if i = n then List.rev acc
    else begin
      let (_, public, witness), s_to = synth_step s (Fp.of_int (2000 + i)) in
      let proof = ok (Backend.prove pk ~public ~witness) in
      let tp =
        ok (Recursive.of_base sys ~vk ~s_from:s ~s_to ~extra:[||] proof)
      in
      go s_to (i + 1) (tp :: acc)
    end
  in
  go s0 0 []

let chain17 =
  lazy
    (let (c, _, _), _ = synth_step Fp.zero Fp.zero in
     let pk, vk = Backend.setup c in
     let sys = Recursive.create ~name:"t-pipe" ~base_vks:[ vk ] in
     (sys, make_chain sys pk vk (Fp.of_int 1) 17))

let take n l = List.filteri (fun i _ -> i < n) l
let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let bytes_of tp = Backend.proof_encode (Recursive.final_proof tp)

let fold_of sys = Fold.create ~merge:(Recursive.merge sys)

let incremental_of sys ts =
  let acc = fold_of sys in
  List.iter (Fold.push acc) ts;
  (acc, Fold.finish acc)

(* Every prefix length 1..17 (all binary-counter shapes), every pool
   arity, one growing accumulator: each [finish] must match the batch
   fold of the same prefix, proving [finish] is non-destructive — the
   lost-certificate rebuild path. *)
let test_incremental_all_prefixes () =
  let sys, chain = Lazy.force chain17 in
  let acc = fold_of sys in
  checkb "empty finish is the fold_balanced error" true
    (Fold.finish acc = Error "fold_balanced: empty transition list");
  List.iteri
    (fun i tp ->
      let len = i + 1 in
      Fold.push acc tp;
      checki (Printf.sprintf "len %d count" len) len (Fold.count acc);
      checkb
        (Printf.sprintf "len %d pending <= ceil(log2 %d)" len len)
        true
        (Fold.pending_merges acc <= ceil_log2 len);
      checki
        (Printf.sprintf "len %d pending = popcount - 1" len)
        (popcount len - 1)
        (Fold.pending_merges acc);
      let inc = ok (Fold.finish acc) in
      List.iter
        (fun domains ->
          let pool = Pool.get ~domains in
          let bal = ok (Fold_oracle.fold_balanced ~pool sys (take len chain)) in
          checks
            (Printf.sprintf "len %d domains %d bytes" len domains)
            (bytes_of bal) (bytes_of inc))
        [ 1; 2; 4 ];
      checkb
        (Printf.sprintf "len %d endpoints" len)
        true
        (Fp.equal (Recursive.s_from inc) (Fp.of_int 1)
        && Fp.equal (Recursive.s_to inc)
             (Recursive.s_to (List.nth chain (len - 1)))))
    chain

(* qcheck: random prefix x pool arity x optional adjacency break. On
   success the bytes must match; on failure the error strings must —
   the incremental fold reports the same (level, pair)-first failure
   fold_balanced does, even with several broken pairs. *)
let equivalence_prop (len, domains, gap) =
  let sys, chain = Lazy.force chain17 in
  let ts = take len chain in
  let ts, broken =
    match gap with
    | Some k when len >= 3 -> (drop_nth (1 + (k mod (len - 2))) ts, true)
    | _ -> (ts, false)
  in
  let pool = Pool.get ~domains in
  let bal = Fold_oracle.fold_balanced ~pool sys ts in
  let _, inc = incremental_of sys ts in
  match (bal, inc) with
  | Ok b, Ok i -> (not broken) && String.equal (bytes_of b) (bytes_of i)
  | Error eb, Error ei -> broken && String.equal eb ei
  | Ok _, Error _ | Error _, Ok _ -> false

let test_incremental_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Fold = fold_balanced" ~count:60
       ~print:(fun (len, domains, gap) ->
         Printf.sprintf "len=%d domains=%d gap=%s" len domains
           (match gap with None -> "-" | Some k -> string_of_int k))
       QCheck2.Gen.(
         triple (int_range 1 17) (oneofl [ 1; 2; 4 ])
           (option (int_range 0 14)))
       equivalence_prop)

let test_incremental_double_break () =
  (* Two broken pairs: the reported failure must still be the first in
     fold_balanced's (level, pair) execution order. *)
  let sys, chain = Lazy.force chain17 in
  let ts = take 11 chain |> drop_nth 8 |> drop_nth 3 in
  let bal = Fold_oracle.fold_balanced sys ts in
  let _, inc = incremental_of sys ts in
  match (bal, inc) with
  | Error eb, Error ei -> checks "same first error" eb ei
  | _ -> Alcotest.fail "both folds should fail on a doubly-broken chain"

(* ---- prove_and_merge = prove_epoch + merge_all ---- *)

let ( let* ) = Result.bind

(* The two-phase prover, kept here as the reference prove_and_merge
   must reproduce. Phase one applies the epoch natively, then proves
   every step in order under the §5.4.1 dispatch, re-dispatching away
   from crashed workers with the task's derived rng and the same
   attempt budget and error strings as the pool. *)
let prove_epoch ~faults ~attempt_budget ~initial ~steps ~workers ~seed =
  let crashed w = List.assoc_opt w faults = Some Prover_pool.Crash in
  let survivors =
    Array.of_list
      (List.filter (fun w -> not (crashed w)) (List.init workers Fun.id))
  in
  if Array.length survivors = 0 then
    Error "prover pool: no surviving workers (all crashed)"
  else
    let rng = Rng.create seed in
    let assignment =
      Prover_pool.dispatch ~rng ~workers ~tasks:(List.length steps)
    in
    let* _, snaps_rev =
      List.fold_left
        (fun acc step ->
          let* st, out = acc in
          let* st' = Sc_tx.apply_step st step in
          Ok (st', (st, step) :: out))
        (Ok (initial, []))
        steps
    in
    let rec attempt task_rng index k w =
      if not (crashed w) then Ok (w, k)
      else if k >= attempt_budget then
        Error
          (Printf.sprintf "prover pool: task %d exceeded its attempt budget (%d)"
             index attempt_budget)
      else
        attempt task_rng index (k + 1)
          survivors.(Rng.int task_rng (Array.length survivors))
    in
    List.rev snaps_rev
    |> List.mapi (fun index snap -> (index, snap))
    |> List.fold_left
         (fun acc (index, (st, step)) ->
           let* out = acc in
           let* worker, attempts =
             attempt (Rng.derive rng index) index 1 assignment.(index)
           in
           let* proof, vk, s_from, s_to = Circuits.prove_step family st step in
           Ok ((worker, attempts, proof, vk, s_from, s_to) :: out))
         (Ok [])
    |> Result.map List.rev

(* Phase two wraps every base proof and folds them with fold_balanced. *)
let merge_all ~pool rsys proofs =
  let* transitions =
    List.fold_right
      (fun (_, _, proof, vk, s_from, s_to) acc ->
        let* out = acc in
        let* t = Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof in
        Ok (t :: out))
      proofs (Ok [])
  in
  Fold_oracle.fold_balanced ~pool rsys transitions

let pipe_steps n tag =
  List.init n (fun i ->
      Sc_tx.Insert
        (Utxo.make
           ~addr:(Hash.of_string ("t-pipe." ^ tag))
           ~amount:(amount (i + 1))
           ~nonce:(Hash.of_string (Printf.sprintf "tp-%s-%d" tag i))))

let test_prove_and_merge_identical () =
  let rsys =
    Recursive.create ~name:"t-pipe-pp" ~base_vks:(Circuits.base_vks family)
  in
  let st = Sc_state.create params in
  let steps = pipe_steps 11 "pp" in
  let both ?(attempt_budget = 3) ~pool ~faults ~steps ~workers () =
    let oracle =
      let* proofs =
        prove_epoch ~faults ~attempt_budget ~initial:st ~steps ~workers
          ~seed:9
      in
      let* top = merge_all ~pool rsys proofs in
      Ok (proofs, top)
    in
    ( oracle,
      Prover_pool.prove_and_merge ~pool ~faults ~attempt_budget family rsys
        ~initial:st ~steps ~workers ~seed:9 )
  in
  let faults = [ (2, Prover_pool.Crash); (0, Prover_pool.Slow 5) ] in
  List.iter
    (fun domains ->
      let pool = Pool.get ~domains in
      let label s = Printf.sprintf "domains %d: %s" domains s in
      match both ~pool ~faults ~steps ~workers:4 () with
      | Ok (proofs, top), Ok (proofs', stats', top') ->
        checks (label "epoch proof bytes") (bytes_of top) (bytes_of top');
        checki (label "retries")
          (List.fold_left (fun a (_, k, _, _, _, _) -> a + k - 1) 0 proofs)
          stats'.Prover_pool.retries;
        checkb (label "rewards") true
          (List.init 4 (fun w ->
               ( w,
                 List.length
                   (List.filter (fun (w', _, _, _, _, _) -> w' = w) proofs) ))
          = stats'.Prover_pool.rewards);
        checkb (label "retries happened") true (stats'.Prover_pool.retries > 0);
        checkb (label "task proofs") true
          (List.for_all2
             (fun (w, k, p, _, _, _) b ->
               w = b.Prover_pool.worker
               && k = b.Prover_pool.attempts
               && String.equal (Backend.proof_encode p)
                    (Backend.proof_encode
                       (Recursive.final_proof b.Prover_pool.transition)))
             proofs proofs')
      | Error e, _ | _, Error e -> Alcotest.fail (label e))
    [ 1; 2 ];
  (* error selection: the same first error, on every domain count *)
  let stranger =
    Utxo.make ~addr:(Hash.of_string "t-pipe.stranger") ~amount:(amount 1)
      ~nonce:(Hash.of_string "tp-stranger")
  in
  List.iter
    (fun domains ->
      let pool = Pool.get ~domains in
      List.iter
        (fun (what, attempt_budget, faults, steps, workers) ->
          match both ~attempt_budget ~pool ~faults ~steps ~workers () with
          | Error e, Error e' ->
            checks (Printf.sprintf "domains %d: %s" domains what) e e'
          | _ -> Alcotest.fail (what ^ ": both provers should fail"))
        [
          ( "all workers crashed", 3,
            [ (0, Prover_pool.Crash); (1, Prover_pool.Crash) ], steps, 2 );
          ("attempt budget exhausted", 1, [ (0, Prover_pool.Crash) ], steps, 2);
          ("step fails natively", 3, [], steps @ [ Sc_tx.Remove stranger ], 4);
        ])
    [ 1; 2 ]

(* ---- Proof_pipeline = synchronous prove + fold_balanced ---- *)

(* Tasks enqueued but not yet folded, as the pipeline last reported. *)
let depth_gauge () =
  Zen_obs.Gauge.value (Zen_obs.Gauge.make "latus.pipeline.depth")

(* Applies [steps] natively from [state]: the end state and each step's
   traced record, as the node enqueues them. *)
let snapshots state steps = ok (Sc_tx.trace state steps)

(* The burst prover: every step proven synchronously in order from its
   pre-state alone (the first failure is the error), then one batch
   fold. *)
let burst_top rsys snaps =
  let* leaves_rev =
    List.fold_left
      (fun acc { Sc_tx.pre; step; _ } ->
        let* out = acc in
        let* proof, vk, s_from, s_to = Circuits.prove_step family pre step in
        let* tp = Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof in
        Ok (tp :: out))
      (Ok []) snaps
  in
  Fold_oracle.fold_balanced rsys (List.rev leaves_rev)

let test_pipeline_matches_burst () =
  let rsys =
    Recursive.create ~name:"t-pipe-burst" ~base_vks:(Circuits.base_vks family)
  in
  let s3, prefix = snapshots (Sc_state.create params) (pipe_steps 3 "pre") in
  let _, stale = snapshots s3 (pipe_steps 2 "stale") in
  let s7, fresh = snapshots s3 (pipe_steps 4 "fresh") in
  (* A step that cannot be proven between two that can: the base
     failure must win over everything after it. *)
  let s8, good = snapshots s7 (pipe_steps 1 "good") in
  let stranger =
    Utxo.make ~addr:(Hash.of_string "t-pipe.stranger") ~amount:(amount 1)
      ~nonce:(Hash.of_string "tp-burst-stranger")
  in
  let _, after = snapshots s8 (pipe_steps 1 "after") in
  let failing =
    good @ [ { Sc_tx.pre = s8; step = Sc_tx.Remove stranger; post = s8 } ] @ after
  in
  (* Two links that are not adjacent: the fold's merge fails. *)
  let broken = [ List.nth prefix 0; List.nth prefix 2 ] in
  List.iter
    (fun domains ->
      Zen_obs.Registry.reset ();
      Fun.protect ~finally:Zen_obs.Registry.reset @@ fun () ->
      Zen_obs.Registry.with_enabled @@ fun () ->
      let label s = Printf.sprintf "domains %d: %s" domains s in
      let p = Proof_pipeline.create ~pool:(Pool.get ~domains) ~family ~rsys in
      let enqueue epoch = List.iter (Proof_pipeline.enqueue p ~epoch) in
      enqueue 0 fresh;
      enqueue 1 (prefix @ stale);
      Proof_pipeline.pump p;
      (* reorg: the stale tail goes, a fresh branch replaces it *)
      Proof_pipeline.truncate p ~epoch:1 ~keep:3;
      enqueue 1 fresh;
      enqueue 2 failing;
      enqueue 3 broken;
      Proof_pipeline.drop_below p ~epoch:1;
      checki (label "dropped epoch has no leaves") 0
        (Proof_pipeline.leaves p ~epoch:0);
      checkb (label "dropped epoch has no stream") true
        (Proof_pipeline.await_epoch p ~epoch:0
        = Error "pipeline: no proving stream for epoch");
      checki (label "kept leaves") 7 (Proof_pipeline.leaves p ~epoch:1);
      (match
         (Proof_pipeline.await_epoch p ~epoch:1, burst_top rsys (prefix @ fresh))
       with
      | Ok top, Ok oracle ->
        checks (label "epoch proof bytes") (bytes_of oracle) (bytes_of top)
      | Error e, _ | _, Error e -> Alcotest.fail (label e));
      List.iter
        (fun (what, epoch, snaps) ->
          match
            (Proof_pipeline.await_epoch p ~epoch, burst_top rsys snaps)
          with
          | Error e, Error oracle -> checks (label what) oracle e
          | _ -> Alcotest.fail (label (what ^ ": both provers should fail")))
        [
          ("base proof fails", 2, failing);
          ("merge fails", 3, broken);
        ];
      checkb (label "drained") true (depth_gauge () = 0.);
      match Proof_pipeline.certificate_log p with
      | [ broken_stats; kept_stats ] ->
        checki (label "broken epoch logged") 3 broken_stats.cert_epoch;
        checki (label "kept epoch logged") 1 kept_stats.cert_epoch;
        checki (label "kept carries = popcount - 1") (popcount 7 - 1)
          kept_stats.cert_carry_merges
      | l ->
        Alcotest.fail
          (label (Printf.sprintf "%d certificate log entries" (List.length l))))
    [ 1; 2 ]

(* ---- prove_and_merge is the node's prover ---- *)

let pp_rsys =
  lazy
    (Recursive.create ~name:"t-pipe-node" ~base_vks:(Circuits.base_vks family))

let prove_and_merge ?pool steps =
  Prover_pool.prove_and_merge ?pool family (Lazy.force pp_rsys)
    ~initial:(Sc_state.create params) ~steps ~workers:3 ~seed:4

(* The same traced records, enqueued block by block into a pipeline
   the way a node forges them and awaited at certify time, give the
   epoch proof prove_and_merge gives. *)
let test_node_pipeline_equals_prove_and_merge () =
  let steps = pipe_steps 9 "node" in
  let _, records = snapshots (Sc_state.create params) steps in
  List.iter
    (fun domains ->
      let label s = Printf.sprintf "domains %d: %s" domains s in
      let pool = Pool.get ~domains in
      let p = Proof_pipeline.create ~pool ~family ~rsys:(Lazy.force pp_rsys) in
      List.iteri
        (fun i r ->
          Proof_pipeline.enqueue p ~epoch:5 r;
          if i mod 4 = 3 then Proof_pipeline.pump p)
        records;
      let node_top = ok (Proof_pipeline.await_epoch p ~epoch:5) in
      let proofs, _, top = ok (prove_and_merge ~pool steps) in
      checks (label "epoch proof bytes") (bytes_of node_top) (bytes_of top);
      checkb (label "leaf transitions") true
        (List.for_all2
           (fun (leaf, _) tp ->
             String.equal
               (bytes_of (ok leaf))
               (bytes_of tp.Prover_pool.transition))
           (Proof_pipeline.leaf_results p ~epoch:5)
           proofs))
    [ 1; 2 ]

(* [name]'s count over [f], with the registry on. *)
let counted name f =
  Zen_obs.Registry.reset ();
  Fun.protect ~finally:Zen_obs.Registry.reset @@ fun () ->
  Zen_obs.Registry.with_enabled @@ fun () ->
  let c = Zen_obs.Counter.make name in
  let before = Zen_obs.Counter.value c in
  ignore (f ());
  Zen_obs.Counter.value c - before

(* Each base proof is checked once, at its wrap; each merge checks its
   two children. *)
let test_verify_count () =
  List.iter
    (fun n ->
      let steps = pipe_steps n "verify" in
      checki
        (Printf.sprintf "%d steps: n wraps + 2 per merge" n)
        ((3 * n) - 2)
        (counted "snark.verify" (fun () -> ok (prove_and_merge steps))))
    [ 1; 2; 7 ]

(* An epoch of n consecutive steps hashes its n + 1 states once each: a
   prover that hashes both states of every record, with the same trace,
   proofs, wraps and fold, does n - 1 more Poseidon permutations. *)
let test_each_state_hashed_once () =
  let rsys = Lazy.force pp_rsys in
  List.iter
    (fun n ->
      let steps = pipe_steps n "hash" in
      let per_record () =
        let _, records = snapshots (Sc_state.create params) steps in
        let inc = fold_of rsys in
        List.iter
          (fun (r : Sc_tx.traced) ->
            let s_from = Sc_state.hash r.pre and s_to = Sc_state.hash r.post in
            let proof, vk, _, _ =
              ok (Circuits.prove_traced family ~s_from ~s_to r)
            in
            Fold.push inc
              (ok (Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof)))
          records;
        ok (Fold.finish inc)
      in
      let perms = "crypto.poseidon.permutations" in
      checki
        (Printf.sprintf "%d steps: n - 1 fewer permutations" n)
        (counted perms per_record - (n - 1))
        (counted perms (fun () -> ok (prove_and_merge steps))))
    [ 1; 2; 7 ]

(* ---- harness determinism: fault storm ---- *)

(* One storm world. The default is a single sidechain fed by FTs; with
   [~sidechains:4 ~workload] every sidechain also carries live workload
   traffic (payments, FTs and BTs) from the harness driver. *)
let storm_run ?(sidechains = 1) ?workload ~domains () =
  let plan =
    Faults.storm ~seed:11 ~first_tick:8 ~ticks:12 ~epochs:4 ~workers:4
      ~intensity:40 ()
  in
  let faults = Faults.create plan in
  let pool = Pool.get ~domains in
  let h = Harness.create ~pool ~faults ~seed:"pipe.storm" () in
  Harness.fund h ~blocks:5;
  let scs =
    List.init sidechains (fun i ->
        ok
          (Harness.add_latus h
             ~name:(if i = 0 then "sc" else Printf.sprintf "sc%d" i)
             ~family ~epoch_len:2 ~submit_len:5 ~activation_delay:1 ()))
  in
  let sc = List.hd scs in
  Option.iter
    (fun profile -> ok (Harness.set_workload h ~profile ~seed:11))
    workload;
  (* real traffic, so epoch proofs have leaves to pipeline *)
  let receiver = Hash.of_string "pipe-user" in
  for i = 1 to 4 do
    ok
      (Harness.forward_transfer h sc ~receiver ~payback:receiver
         ~amount:(amount (100 * i)));
    Harness.tick_n h 3
  done;
  let certified =
    match
      Zen_mainchain.Sc_ledger.find
        (Zen_mainchain.Chain.tip_state h.chain).scs sc.ledger_id
    with
    | None -> 0
    | Some s -> List.length s.certs
  in
  Zen_obs.Clock.reset ();
  ( Harness.dump_log h,
    certified,
    Zen_mainchain.Chain.height h.chain,
    List.concat_map (fun sc -> Node.certificate_stats sc.Harness.node) scs )

(* Hash digests of the storm logs (lines joined by newlines), pinned
   from runs in which the pipelined node and the burst prover it
   replaced produced the same bytes. *)
let storm_digest =
  "b8211fe23655519fc49be76421be2be2c692f62333cb47dcee7930cd2aa13126"

let storm_smoke_digest =
  "a983dc4b23b7e0866103d9c5a9264dd54736819ac1fefccc38ee11a57fc81f19"

let log_digest log = Hash.to_hex (Hash.of_string (String.concat "\n" log))

let test_storm_pinned () =
  let log1, cert1, height1, stats1 = storm_run ~domains:1 () in
  let log2, cert2, height2, _ = storm_run ~domains:2 () in
  checkb "liveness under faults" true (cert1 > 0);
  checks "pinned log digest" storm_digest (log_digest log1);
  checki "same certified (1/2 domains)" cert1 cert2;
  checki "same height (1/2 domains)" height1 height2;
  checki "same log length (1/2 domains)" (List.length log1) (List.length log2);
  List.iter2 (fun a b -> checks "log line (1/2 domains)" a b) log1 log2;
  checkb "certificate stats" true (List.length stats1 > 0);
  (* the certify path really is logarithmic: carry merges are the
     binary-counter tail, never the (leaves - 1) burst fold *)
  List.iter
    (fun (cs : Proof_pipeline.certificate_stats) ->
      checkb
        (Printf.sprintf "epoch %d carries %d <= ceil(log2 %d) + 1"
           cs.cert_epoch cs.cert_carry_merges cs.cert_leaves)
        true
        (cs.cert_carry_merges <= ceil_log2 (max 1 cs.cert_leaves) + 1);
      if cs.cert_leaves > 0 then
        checki
          (Printf.sprintf "epoch %d carries = popcount - 1" cs.cert_epoch)
          (popcount cs.cert_leaves - 1)
          cs.cert_carry_merges)
    stats1;
  (* four sidechains under the smoke workload: reorgs truncate
     in-flight proof streams of several nodes at once, and the log
     still may not move a byte *)
  let log_wl, _, _, stats_wl =
    storm_run ~sidechains:4 ~workload:Workload.smoke ~domains:1 ()
  in
  checkb "workload injected" true
    (List.exists
       (fun l -> String.length l > 8 && String.sub l 0 8 = "workload")
       log_wl);
  checkb "multi-leaf pipelined epochs" true
    (List.exists
       (fun (cs : Proof_pipeline.certificate_stats) -> cs.cert_leaves > 1)
       stats_wl);
  checks "pinned log digest (smoke)" storm_smoke_digest (log_digest log_wl)

let test_burst_label_rejected () =
  match Harness.create ~pipeline:false ~seed:"pipe.off" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "~pipeline:false accepted"

(* ---- record retention ---- *)

let test_record_pruning () =
  Zen_obs.Registry.reset ();
  Fun.protect ~finally:Zen_obs.Registry.reset @@ fun () ->
  Zen_obs.Registry.with_enabled @@ fun () ->
  let h = Harness.create ~seed:"pipe.prune" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:2 ~submit_len:5
         ~activation_delay:1 ())
  in
  let receiver = Hash.of_string "prune-user" in
  ok
    (Harness.forward_transfer h sc ~receiver ~payback:receiver
       ~amount:(amount 500));
  Harness.tick_n h 40;
  let certified =
    match
      Zen_mainchain.Sc_ledger.find
        (Zen_mainchain.Chain.tip_state h.chain).scs sc.ledger_id
    with
    | None -> 0
    | Some s -> List.length s.certs
  in
  checkb "many epochs certified" true (certified >= 10);
  (* 40 ticks at epoch_len 2 forge ~20 epochs of records; retention
     keeps the window anchored at the certified horizon instead *)
  checkb "records pruned" true
    (Zen_obs.Counter.value (Zen_obs.Counter.make "latus.records.pruned") > 0);
  checkb "records pruned to the retention window" true
    (List.length (Node.blocks sc.node) <= 2 * 10);
  checkb "pipeline drained" true (depth_gauge () = 0.)

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "incremental fold, all prefixes" `Quick
        test_incremental_all_prefixes;
      test_incremental_equivalence;
      Alcotest.test_case "incremental fold, double break" `Quick
        test_incremental_double_break;
      Alcotest.test_case "prove_and_merge = prove_epoch + merge_all" `Quick
        test_prove_and_merge_identical;
      Alcotest.test_case "pipeline = burst prover oracle" `Quick
        test_pipeline_matches_burst;
      Alcotest.test_case "node pipeline = prove_and_merge" `Quick
        test_node_pipeline_equals_prove_and_merge;
      Alcotest.test_case "verifies: n wraps + 2 per merge" `Quick
        test_verify_count;
      Alcotest.test_case "each state hashed once per epoch" `Quick
        test_each_state_hashed_once;
      Alcotest.test_case "storm: pinned log digests" `Quick test_storm_pinned;
      Alcotest.test_case "harness rejects ~pipeline:false" `Quick
        test_burst_label_rejected;
      Alcotest.test_case "records pruned to certified horizon" `Quick
        test_record_pruning;
    ] )
