(* prove: epoch proving, the prover kernels alone (paper §5.4).

   Seeded epochs of 64 mixed Insert / Remove / Remove+Append_bt steps
   at MST depth 18, each proven and merged with
   [Prover_pool.prove_and_merge] on a 1-domain pool with 4 incentive
   workers. R1cs, Gadget, Backend and Recursive do nearly all the work
   here. The operation is one epoch. The traced run also proves one
   epoch on a 2-domain pool to measure the Pool layer ([pool_probe]). *)

open Zen_crypto
open Zen_latus
open Zendoo
module M = Measure

(* One domain: on a 2-vCPU box with steal time, 2-domain epochs were
   bimodal (p50 spread 0.19 across ten seeds) as the second vCPU came
   and went. *)
let domains = 1

(* Epochs slow about half as much as the reference loop when the host
   slows: over five runs, log raw epoch p50 against log host speed had
   slope -0.53, residuals within 2%. So epoch times scale by the square
   root of the loop's speed (see [Measure.timed_ref]). *)
let sensitivity = 0.5
let workers = 4
let steps_per_epoch = 64
let mst_depth = 18
let base_coins = 256
let setup_reps = 3

(* The highest percentile leaving at least ten epochs beyond it: an
   untraced run proves at least [min_epochs] epochs (~45 fit in 20 s). *)
let tail_pct = 75.
let min_epochs = 40

(* Coins the generator may spend; swap-remove keeps picks O(1). *)
type live = { mutable coins : Utxo.t array; mutable n : int }

let push l u =
  if l.n = Array.length l.coins then
    l.coins <- Array.append l.coins (Array.make (max 16 l.n) u);
  l.coins.(l.n) <- u;
  l.n <- l.n + 1

let take l i =
  let u = l.coins.(i) in
  l.coins.(i) <- l.coins.(l.n - 1);
  l.n <- l.n - 1;
  u

let fresh_coin ~seed ~epoch i rng =
  Utxo.make
    ~addr:(Hash.tagged "perfbench.prove.addr" [ string_of_int (Rng.int rng 4096) ])
    ~amount:(Amount.of_int_exn (1 + Rng.int rng 1_000_000))
    ~nonce:
      (Hash.tagged "perfbench.prove"
         [ string_of_int seed; string_of_int epoch; string_of_int i ])

(* One epoch's steps from [st]: 45% Insert of a fresh coin, 35% Remove
   of a live coin, 20% withdrawal (Remove then Append_bt of its
   amount). Steps whose slot is taken are redrawn, so every step
   applies. Returns the steps and the state after them. *)
let gen_epoch ~seed ~epoch live st =
  let rng = Rng.derive (Rng.create seed) epoch in
  let rec go st acc n i =
    if n >= steps_per_epoch then (List.rev acc, st)
    else begin
      let kind = Rng.int rng 100 in
      let apply steps =
        List.fold_left
          (fun acc s ->
            match acc with
            | None -> None
            | Some st -> Result.to_option (Sc_tx.apply_step st s))
          (Some st) steps
      in
      if kind < 45 || live.n = 0 || (kind >= 80 && n = steps_per_epoch - 1) then begin
        let u = fresh_coin ~seed ~epoch i rng in
        match apply [ Sc_tx.Insert u ] with
        | None -> go st acc n (i + 1)
        | Some st' ->
          push live u;
          go st' (Sc_tx.Insert u :: acc) (n + 1) (i + 1)
      end
      else begin
        let u = take live (Rng.int rng live.n) in
        let steps =
          if kind < 80 then [ Sc_tx.Remove u ]
          else
            [
              Sc_tx.Remove u;
              Sc_tx.Append_bt
                (Backward_transfer.make
                   ~receiver_addr:
                     (Hash.tagged "perfbench.prove.mc" [ string_of_int i ])
                   ~amount:u.Utxo.amount);
            ]
        in
        match apply steps with
        | None -> failwith "prove: generated step did not apply"
        | Some st' ->
          go st' (List.rev_append steps acc) (n + List.length steps) (i + 1)
      end
    end
  in
  go st [] 0 0

type setup = {
  family : Circuits.family;
  rsys : Zen_snark.Recursive.system;
  st0 : Sc_state.t;
  live : live;
}

let setup ~seed =
  ignore (Pool.get ~domains);
  let params = { Params.default with mst_depth } in
  let family = Circuits.make params in
  let rsys =
    Zen_snark.Recursive.create ~name:"perfbench.prove"
      ~base_vks:(Circuits.base_vks family)
  in
  let live = { coins = [||]; n = 0 } in
  let rng = Rng.derive (Rng.create seed) (-1) in
  let rec seed_coins st i =
    if live.n >= base_coins then st
    else begin
      let u = fresh_coin ~seed ~epoch:(-1) i rng in
      match Sc_tx.apply_step st (Sc_tx.Insert u) with
      | Error _ -> seed_coins st (i + 1)
      | Ok st ->
        push live u;
        seed_coins st (i + 1)
    end
  in
  let st0 = Sc_state.reset_epoch (seed_coins (Sc_state.create params) 0) in
  { family; rsys; st0; live }

type epoch = { initial : Sc_state.t; steps : Sc_tx.step list; final : Sc_state.t }

let proof_digest top =
  Hash.to_hex
    (Hash.tagged "perfbench.prove.proof"
       [
         Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top);
       ])

(* Proves and merges one epoch; the proof must verify and bind the
   epoch's end states. *)
let prove ?(pool = Pool.get ~domains) s ~epoch_no e =
  match
    Prover_pool.prove_and_merge ~pool s.family s.rsys
      ~initial:e.initial ~steps:e.steps ~workers ~seed:epoch_no
  with
  | Error _ -> None
  | Ok (_, stats, top) ->
    let ok =
      Zen_snark.Recursive.verify s.rsys top
      && Fp.equal (Zen_snark.Recursive.s_from top) (Sc_state.hash e.initial)
      && Fp.equal (Zen_snark.Recursive.s_to top) (Sc_state.hash e.final)
    in
    if ok then Some (stats, top) else None

let kind_of = function
  | Sc_tx.Insert _ -> "insert"
  | Sc_tx.Remove _ -> "remove"
  | Sc_tx.Append_bt _ -> "append_bt"

(* Unit cost of one base proof per step kind, proven sequentially from
   the epoch's own intermediate states. *)
let prove_step_probes s e =
  M.calibrate ();
  let samples = Hashtbl.create 3 in
  ignore
    (List.fold_left
       (fun st step ->
         let k = kind_of step in
         let have = Option.value (Hashtbl.find_opt samples k) ~default:[] in
         if List.length have < 8 then begin
           let _, dt = M.timed (fun () -> Circuits.prove_step s.family st step) in
           Hashtbl.replace samples k ((dt *. !M.speed) :: have)
         end;
         Result.get_ok (Sc_tx.apply_step st step))
       e.initial e.steps);
  List.map
    (fun k ->
      ( "circuits.prove_step_ms." ^ k,
        1000. *. M.median (Option.value (Hashtbl.find_opt samples k) ~default:[]) ))
    [ "insert"; "remove"; "append_bt" ]

(* The measured epochs run on one domain, where the pool spawns no
   workers, so the pool metrics come from one more epoch proven on a
   2-domain pool in a traced window of its own. Per-layer metrics carry
   no bound, so its spread on a shared host does not matter. The proof
   must verify like any other. *)
let pool_probe s e =
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let ok = M.traced_window (fun () -> Option.is_some (prove ~pool s ~epoch_no:0 e)) in
  ( ok,
    [
      ("pool.busy_ratio", M.pool_busy_ratio ());
      ("pool.steals", float_of_int (M.counter "pool.steals"));
    ] )

let run ~seed ~seconds ~trace =
  let s, setup_s = M.set_up ~reps:setup_reps (fun () -> M.step (fun () -> setup ~seed)) in
  let next = ref 0 and st = ref s.st0 in
  let gen () =
    let steps, final = gen_epoch ~seed ~epoch:!next s.live !st in
    let e = { initial = !st; steps; final } in
    st := Sc_state.reset_epoch final;
    incr next;
    e
  in
  (* Warm-up epoch 0, untimed: first-touch costs land here. It is
     proven again after the measured window; its digest must not move. *)
  let e0 = gen () in
  let digest0 = Option.map (fun (_, top) -> proof_digest top) (prove s ~epoch_no:0 e0) in
  let heap_mw = M.live_heap_mw () in
  let epoch_s = ref [] and verify_s = ref [] in
  let steps = ref 0 and failed = ref 0 and epochs = ref 0 and retries = ref 0 in
  let last = ref e0 in
  let until ?(min = 0) deadline =
    while M.now () < deadline || !epochs < min do
      let e = gen () in
      last := e;
      let r, dt =
        M.timed_ref ~sensitivity (fun () -> M.op (fun () -> prove s ~epoch_no:(!next - 1) e))
      in
      incr epochs;
      steps := !steps + List.length e.steps;
      epoch_s := dt :: !epoch_s;
      match r with
      | None -> incr failed
      | Some (stats, top) ->
        retries := !retries + stats.Prover_pool.retries;
        let n = 1000 in
        let (), v =
          M.timed (fun () ->
              for _ = 1 to n do
                ignore (Zen_snark.Recursive.verify s.rsys top)
              done)
        in
        verify_s := (v *. !M.speed /. float_of_int n) :: !verify_s
    done
  in
  let stable () =
    let again = Option.map (fun (_, top) -> proof_digest top) (prove s ~epoch_no:0 e0) in
    match (digest0, again) with
    | Some d, Some d' ->
      String.equal d d' && M.check_pin ~workload:"prove" ~seed "epoch0" d
    | _ -> false
  in
  let start = M.now () in
  if not trace then begin
    until ~min:min_epochs (start +. seconds);
    let correct = !failed = 0 && stable () in
    let n = List.length !epoch_s in
    let pct = tail_pct in
    Printf.printf "prove: %d epochs, %d steps, %d failed; tail = p%.0f of %d epochs (%d beyond)\n"
      !epochs !steps !failed pct n (M.beyond n pct);
    {
      M.correct;
      attempted = !steps;
      failed = !failed * steps_per_epoch;
      values =
        [
          ("setup_s", setup_s);
          ("live_heap_mw", heap_mw);
          ("op_p50_ms", 1000. *. M.median !epoch_s);
          ("op_tail_ms", 1000. *. M.percentile !epoch_s pct);
          ("rate_per_s", float_of_int !steps /. List.fold_left ( +. ) 0. !epoch_s);
          ("aux_p50_ms", 1000. *. M.median !verify_s);
        ];
    }
  end
  else begin
    until (start +. (seconds /. 2.));
    let untraced_p50 = 1000. *. M.median !epoch_s in
    let e0n = !epochs in
    epoch_s := [];
    M.traced_window (fun () -> until (M.now () +. (seconds /. 2.)));
    let ops = !epochs - e0n in
    let traced_p50 = 1000. *. M.median !epoch_s in
    let b = M.breakdown () in
    M.print_decomposition ~workload:"prove" ~unit_name:"epoch" ~ops_label:"epochs"
      b ~untraced_p50 ~traced_p50;
    (* Merges run inside prove_and_merge's own span: the merge latency
       histogram attributes that self time. *)
    Printf.printf "  of which recursive merges: %.2f per epoch x %.4f ms = %.4f ms\n"
      (M.ratio (M.counter "snark.merges") ops)
      (M.hist_mean_ms "snark.merge.seconds")
      (M.ratio (M.counter "snark.merges") ops *. M.hist_mean_ms "snark.merge.seconds");
    Printf.printf "  %d steps per epoch; divide per-epoch counts by %d for per-step\n"
      steps_per_epoch steps_per_epoch;
    let per_op name = M.ratio (M.counter name) ops in
    let apply_ms =
      1000.
      *. snd
           (M.timed_ref (fun () ->
                Sc_tx.apply_steps ~batched:true !last.initial !last.steps))
    in
    let probes = prove_step_probes s !last in
    let values =
      [
        ("residual_ms", M.residual_ms b);
        ("latus.prove_step_self_ms", M.row_self_ms b "latus.prove_step");
        ("snark.prove_self_ms", M.row_self_ms b "snark.prove");
        ("smt.update_batch_self_ms", M.row_self_ms b "smt.update_batch");
        ("poseidon.perms", per_op "crypto.poseidon.permutations");
        ("sha256.kib", per_op "crypto.sha256.bytes" /. 1024.);
        ("backend.proves", per_op "snark.prove");
        ("backend.verifies", per_op "snark.verify");
        ("backend.constraints_proved", per_op "snark.constraints_proved");
        ("r1cs.constraint_evals", per_op "snark.r1cs.constraint_evals");
        ("recursive.merges", per_op "snark.merges");
        ("recursive.merge_ms", M.hist_mean_ms "snark.merge.seconds");
        ("prover_pool.retries", M.ratio !retries !epochs);
        ("sc_tx.apply_steps_ms", apply_ms);
        ( "trace.overhead_ratio",
          if untraced_p50 = 0. then 0. else traced_p50 /. untraced_p50 );
      ]
      @ probes @ M.crypto_probes ()
    in
    (* Last: the probe's window resets the registry read above. *)
    let pool_ok, pool = pool_probe s !last in
    let correct = !failed = 0 && pool_ok && stable () in
    {
      M.correct;
      attempted = !steps;
      failed = !failed * steps_per_epoch;
      values = values @ pool;
    }
  end
