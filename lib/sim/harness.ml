open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

type sidechain = {
  name : string;
  ledger_id : Hash.t;
  config : Sidechain_config.t;
  node : Node.t;
  mutable withhold_certs : bool;
}

(* Flight recorder: per-(sidechain, epoch) certificate outcomes, kept
   as plain mutable counters so recording costs nothing on the tick
   path and the scoreboard survives a disabled obs registry. *)
type score = {
  mutable submitted : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable withheld : int;
  mutable cert_errors : int;
}

(* Live-traffic driver (attached by [set_workload]): each tick draws
   one transaction kind per sidechain from the profile's mix and
   submits a real signed transaction to that node, so simulate/chaos
   runs exercise the mempool/forge path under sustained load. The
   soak-scale batching itself lives in [Workload.run]; here the profile
   only shapes rate (diurnal gate) and mix. *)
type workload_driver = {
  wl_profile : Workload.profile;
  wl_seed : int;
  mutable wl_wallets : (string * Sc_wallet.t) list;
  mutable wl_injected : int;
}

(* Certificate txids under fault management: a set, so membership is a
   hash lookup instead of a list scan. *)
type cert_set = (Hash.t, unit) Hashtbl.t

type t = {
  mutable chain : Chain.t;
  mutable mempool : Mempool.t;
  mc_wallet : Wallet.t;
  miner_addr : Hash.t;
  pool : Pool.t;
  aggregate : bool;
  mutable time : int;
  mutable sidechains_rev : sidechain list;
  mutable next_sc_nonce : int;
  log : Zen_obs.Events.t;
  faults : Faults.t option;
  mutable pending_certs : (int * Tx.t) list;
  managed_certs : cert_set;
  scores : (string * int, score) Hashtbl.t;
  mutable reorgs : (int * int) list; (* (tick, depth), newest first *)
  mutable workload : workload_driver option;
}

let sidechains t = List.rev t.sidechains_rev
let logf t fmt = Printf.ksprintf (Zen_obs.Events.add t.log) fmt
let dump_log t = Zen_obs.Events.items t.log

let create ?(pow = Pow.trivial) ?(pool = Pool.sequential) ?(aggregate = false)
    ?(pipeline = true) ?faults ~seed () =
  if not pipeline then
    invalid_arg "Harness.create: ~pipeline:false (the burst prover) is gone";
  let params = { Chain_state.default_params with pow } in
  let mc_wallet = Wallet.create ~seed in
  let miner_addr = Wallet.fresh_address mc_wallet in
  {
    chain = Chain.create ~params ~time:0 ();
    mempool = Mempool.empty;
    mc_wallet;
    miner_addr;
    pool;
    aggregate;
    time = 0;
    sidechains_rev = [];
    next_sc_nonce = 1;
    log = Zen_obs.Events.create ();
    faults;
    pending_certs = [];
    managed_certs = Hashtbl.create 16;
    scores = Hashtbl.create 16;
    reorgs = [];
    workload = None;
  }

let set_workload t ~profile ~seed =
  match Workload.validate profile with
  | Error e -> Error e
  | Ok p ->
    t.workload <-
      Some { wl_profile = p; wl_seed = seed; wl_wallets = []; wl_injected = 0 };
    logf t "workload %s attached (seed %d)" (Workload.to_string p) seed;
    Ok ()

let score_of t sc ~epoch =
  let key = (sc.name, epoch) in
  match Hashtbl.find_opt t.scores key with
  | Some s -> s
  | None ->
    let s =
      {
        submitted = 0;
        dropped = 0;
        delayed = 0;
        duplicated = 0;
        withheld = 0;
        cert_errors = 0;
      }
    in
    Hashtbl.add t.scores key s;
    s

(* The reorg path the seed ignored: when a side branch overtakes the
   tip, the abandoned branch's transactions must return to the mempool
   or they are silently lost (certificates especially — losing one can
   cease a healthy sidechain). *)
let handle_outcome t = function
  | Chain.Extended_tip | Chain.Side_branch -> ()
  | Chain.Reorg { old_tip; depth } ->
    let disconnected, connected = Chain.reorg_diff t.chain ~old_tip in
    let before = Mempool.size t.mempool in
    t.mempool <-
      Mempool.reinject_disconnected t.mempool ~disconnected ~connected;
    (* Reinjected certificates may be stale (their node already
       archived the epoch); track them so copies the miner later skips
       get purged instead of polluting the pool forever. *)
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun tx ->
            match tx with
            | Tx.Certificate _ ->
              let id = Tx.txid tx in
              if Mempool.mem t.mempool id then
                Hashtbl.replace t.managed_certs id ()
            | _ -> ())
          b.txs)
      disconnected;
    let reinjected = Mempool.size t.mempool - before in
    t.reorgs <- (t.time, depth) :: t.reorgs;
    Zen_obs.Trace.instant ~cat:"sim"
      ~args:
        [
          ("depth", string_of_int depth);
          ("reinjected", string_of_int reinjected);
        ]
      "sim.reorg";
    logf t "reorg depth %d: %d blocks disconnected, %d txs reinjected" depth
      (List.length disconnected) reinjected

let mine t =
  t.time <- t.time + 1;
  match
    Miner.build_block ~pool:t.pool ~aggregate:t.aggregate t.chain
      ~time:t.time ~miner_addr:t.miner_addr
      ~candidates:(Mempool.txs t.mempool)
  with
  | Error e -> logf t "mine failed: %s" e
  | Ok (block, skipped) ->
    if skipped <> [] then
      logf t "miner skipped %d invalid txs" (List.length skipped);
    (match Chain.add_block ~pool:t.pool t.chain block with
    | Error e -> logf t "block rejected: %s" e
    | Ok (chain, outcome) ->
      t.chain <- chain;
      t.mempool <- Mempool.remove_included t.mempool block;
      handle_outcome t outcome;
      (* Fault-managed certificates the miner skipped are stale
         (reinjected across an epoch boundary, or duplicate
         resubmissions): drop them from the pool. *)
      List.iter
        (fun tx ->
          match tx with
          | Tx.Certificate _ ->
            let id = Tx.txid tx in
            if Hashtbl.mem t.managed_certs id then begin
              t.mempool <- Mempool.remove t.mempool id;
              Hashtbl.remove t.managed_certs id;
              logf t "purged stale certificate from mempool"
            end
          | _ -> ())
        skipped)

let mine_n t n =
  for _ = 1 to n do
    mine t
  done

let submit t tx = t.mempool <- Mempool.add t.mempool tx
let fund t ~blocks = mine_n t blocks

let add_latus t ~name ?(params = Params.default) ?family ~epoch_len
    ~submit_len ~activation_delay () =
  let family = match family with Some f -> f | None -> Circuits.make params in
  (* A monotonic counter, never the list length: removal or ceasing of
     a sidechain must not make a future registration reuse a nonce
     (and thereby collide on the derived ledger id). *)
  let nonce = t.next_sc_nonce in
  t.next_sc_nonce <- t.next_sc_nonce + 1;
  let ledger_id =
    Sidechain_config.derive_ledger_id ~creator:t.miner_addr ~nonce
  in
  (* The creation transaction lands in the next block; activation must
     be strictly after it. *)
  let start_block = Chain.height t.chain + 1 + activation_delay in
  match
    Node.config_for ~ledger_id ~start_block ~epoch_len ~submit_len family
  with
  | Error e -> Error e
  | Ok config -> (
    let forger = Sc_wallet.create ~seed:("forger." ^ name) in
    let (_ : Hash.t) = Sc_wallet.fresh_address forger in
    match Node.create ~config ~params ~family ~forger ~pool:t.pool () with
    | Error e -> Error e
    | Ok node ->
      submit t (Tx.Sc_create config);
      mine t;
      let sc = { name; ledger_id; config; node; withhold_certs = false } in
      (* Constant-time prepend; iteration order (registration order) is
         restored by the [sidechains] accessor. *)
      t.sidechains_rev <- sc :: t.sidechains_rev;
      logf t "sidechain %s registered (activates at MC height %d)" name
        start_block;
      Ok sc)

let forward_transfer t sc ~receiver ~payback ~amount =
  let state = Chain.tip_state t.chain in
  match
    Wallet.build_forward_transfer t.mc_wallet state ~ledger_id:sc.ledger_id
      ~receiver_metadata:(Sc_tx.ft_metadata ~receiver ~payback)
      ~amount ~fee:(Amount.of_int_exn 1000)
  with
  | Error e -> Error e
  | Ok tx ->
    submit t tx;
    mine t;
    logf t "FT of %s to %s" (Amount.to_string amount) sc.name;
    Ok ()

(* One workload transaction for [sc] this tick, if the diurnal gate is
   open. Everything drawn comes from a stream derived from
   (seed, tick, sidechain index), so injection — and every log line it
   produces — is a pure function of (seed, profile). One transaction
   per sidechain per tick: it forges in the same round, so submissions
   never contend for the same inputs and the pool drains every tick. *)
let inject_workload_for t d ~tick_no ~idx sc =
  let p = d.wl_profile in
  let rng = Rng.derive (Rng.create d.wl_seed) ((tick_no * 8191) + idx) in
  let wave =
    Workload.phase_wave ~phases:p.phases ~burst:p.burst (tick_no mod p.phases)
  in
  (* wave averages 200 over an epoch; gating on 400 injects on about
     half the ticks, concentrated in the burst phases. *)
  if Rng.int rng 400 < wave then begin
    let wallet =
      match List.assoc_opt sc.name d.wl_wallets with
      | Some w -> w
      | None ->
        let w =
          Sc_wallet.create
            ~seed:(Printf.sprintf "workload.%d.%s" d.wl_seed sc.name)
        in
        for _ = 1 to 4 do
          ignore (Sc_wallet.fresh_address w)
        done;
        d.wl_wallets <- (sc.name, w) :: d.wl_wallets;
        w
    in
    let st = Node.next_block_state sc.node in
    let addrs = Array.of_list (Sc_wallet.addresses wallet) in
    (* Funding fallback: an FT from the harness wallet, mined next tick
       and credited when the node forges past that MC reference. *)
    let fund () =
      let addr = Rng.pick rng addrs in
      let amount = Amount.of_int_exn (100_000 + Rng.int rng 900_000) in
      match
        Wallet.build_forward_transfer t.mc_wallet (Chain.tip_state t.chain)
          ~ledger_id:sc.ledger_id
          ~receiver_metadata:(Sc_tx.ft_metadata ~receiver:addr ~payback:addr)
          ~amount ~fee:(Amount.of_int_exn 1000)
      with
      | Error e -> logf t "workload: %s ft failed: %s" sc.name e
      | Ok tx ->
        submit t tx;
        d.wl_injected <- d.wl_injected + 1;
        logf t "workload: %s funded with FT of %s" sc.name
          (Amount.to_string amount)
    in
    let submit_sc what tx =
      match Node.submit_tx sc.node tx with
      | Error e -> logf t "workload: %s %s rejected: %s" sc.name what e
      | Ok () ->
        d.wl_injected <- d.wl_injected + 1;
        logf t "workload: %s %s submitted" sc.name what
    in
    let kind = Rng.int rng 100 in
    (* The BTR share folds into BT here: at the state layer they are
       the same withdrawal; MC-initiated BTRs are exercised separately
       by the scenario tests. *)
    if kind < p.mix.payment then begin
      let bal = Amount.to_int (Sc_wallet.balance wallet st) in
      if bal < 2 then fund ()
      else begin
        let amount = 1 + Rng.int rng (min 50_000 (bal / 2)) in
        match
          Sc_wallet.build_payment wallet st ~to_:(Rng.pick rng addrs)
            ~amount:(Amount.of_int_exn amount)
        with
        | Error _ -> fund ()
        | Ok tx -> submit_sc "payment" tx
      end
    end
    else if kind < p.mix.payment + p.mix.ft then fund ()
    else begin
      match List.rev (Sc_wallet.utxos wallet st) with
      | smallest :: _ -> (
        match
          Sc_wallet.build_backward_transfer wallet st ~utxo:smallest
            ~mc_receiver:
              (Hash.tagged "workload.mc" [ string_of_int (Rng.int rng 1000) ])
        with
        | Error _ -> fund ()
        | Ok tx -> submit_sc "bt" tx)
      | [] -> fund ()
    end
  end

let inject_workload t ~tick_no =
  match t.workload with
  | None -> ()
  | Some d ->
    List.iteri
      (fun idx sc -> inject_workload_for t d ~tick_no ~idx sc)
      (sidechains t)

let workload_injected t =
  match t.workload with None -> 0 | Some d -> d.wl_injected

let ticks = Zen_obs.Counter.make ~help:"Harness rounds executed" "sim.ticks"

let tick_s =
  Zen_obs.Histogram.make ~help:"harness tick latency (mine + forge + submit)"
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:8)
    "sim.tick.seconds"

let mempool_depth =
  Zen_obs.Gauge.make ~help:"Mainchain mempool depth after the last tick"
    "sim.mempool.depth"

let fault_injections =
  Zen_obs.Counter.make ~help:"Faults injected by the harness"
    "sim.faults.injected"

let adversary_addr = Hash.of_string "sim.fault.adversary"

let force_reorg t ~depth =
  let h = Chain.height t.chain in
  let d = min depth h in
  if d < 1 then logf t "reorg skipped (chain too short)"
  else begin
    let fork_height = h - d in
    match Chain_state.block_hash_at (Chain.tip_state t.chain) fork_height with
    | None -> logf t "reorg skipped (no fork point)"
    | Some fork_hash ->
      let params = Chain.params t.chain in
      (* d + 1 adversarial blocks above the fork point: one more than
         the honest branch, so cumulative work strictly overtakes and
         the last add_block returns Reorg. *)
      let rec build prev height i =
        if i > d + 1 then Ok ()
        else begin
          let txs =
            [
              Tx.Coinbase
                {
                  height;
                  reward =
                    { Tx.addr = adversary_addr; amount = params.subsidy };
                };
            ]
          in
          match
            Block.assemble ~pool:t.pool ~prev ~height
              ~time:((1000 * t.time) + i)
              ~txs ~pow:params.pow ()
          with
          | Error e -> Error e
          | Ok b -> (
            match Chain.add_block ~pool:t.pool t.chain b with
            | Error e -> Error e
            | Ok (chain, outcome) ->
              t.chain <- chain;
              handle_outcome t outcome;
              build (Block.hash b) (height + 1) (i + 1))
        end
      in
      (match build fork_hash (fork_height + 1) 1 with
      | Ok () -> logf t "adversarial branch overtook the tip (depth %d)" d
      | Error e -> logf t "reorg injection failed: %s" e)
  end

(* What the fault plan injects at the top of a tick: clock skew, then
   an adversarial reorg, then delivery of certificate submissions a
   Delay/Duplicate fault postponed to this tick. *)
let inject_tick_faults t ~tick_no =
  (match t.faults with
  | None -> ()
  | Some f ->
    (match Faults.skew_at f ~tick:tick_no with
    | Some ms when Faults.fire f (Printf.sprintf "skew@%d" tick_no) ->
      Zen_obs.Counter.incr fault_injections;
      Zen_obs.Clock.skew (float_of_int ms /. 1000.);
      logf t "fault: clock skewed +%dms" ms
    | _ -> ());
    match Faults.reorg_at f ~tick:tick_no with
    | Some depth when Faults.fire f (Printf.sprintf "reorg@%d" tick_no) ->
      Zen_obs.Counter.incr fault_injections;
      logf t "fault: adversarial reorg depth %d" depth;
      force_reorg t ~depth
    | _ -> ());
  let due, later =
    List.partition (fun (at, _) -> at <= tick_no) t.pending_certs
  in
  t.pending_certs <- later;
  List.iter
    (fun (_, tx) ->
      submit t tx;
      logf t "fault: postponed certificate submitted")
    due

let submit_certificate t sc =
  (* A certificate fault targets the epoch the node would certify
     next; [build_certificate] archives the epoch as a side effect, so
     Withhold must short-circuit before the build. *)
  let epoch = Node.certificate_target sc.node ~mc:t.chain in
  let cert_fault =
    match t.faults with
    | None -> None
    | Some f ->
      Option.map (fun cf -> (f, epoch, cf)) (Faults.cert_fault f ~epoch)
  in
  let score () = score_of t sc ~epoch in
  match cert_fault with
  | Some (f, epoch, Faults.Withhold) ->
    if Faults.fire f (Printf.sprintf "withhold@%d:%s" epoch sc.name) then begin
      Zen_obs.Counter.incr fault_injections;
      (score ()).withheld <- (score ()).withheld + 1;
      logf t "fault: %s withholds certificate for epoch %d" sc.name epoch
    end
  | _ -> (
    match Node.build_certificate sc.node ~mc:t.chain with
    | Error e ->
      (score ()).cert_errors <- (score ()).cert_errors + 1;
      logf t "%s certificate error: %s" sc.name e
    | Ok None -> ()
    | Ok (Some cert_tx) -> (
      (* Every harness-submitted certificate is managed: if the miner
         ever skips it as invalid (window closed, quality not beaten,
         already accepted on another branch) it is purged — the node
         rebuilds and resubmits while the epoch is still certifiable,
         so nothing lingers in the mempool. *)
      Hashtbl.replace t.managed_certs (Tx.txid cert_tx) ();
      match cert_fault with
      | Some (f, epoch, Faults.Drop) ->
        if Faults.fire f (Printf.sprintf "drop@%d:%s" epoch sc.name) then
          Zen_obs.Counter.incr fault_injections;
        (score ()).dropped <- (score ()).dropped + 1;
        logf t "fault: %s certificate for epoch %d dropped" sc.name epoch
      | Some (f, epoch, Faults.Delay k) ->
        if Faults.fire f (Printf.sprintf "delay@%d:%s" epoch sc.name) then
          Zen_obs.Counter.incr fault_injections;
        (score ()).delayed <- (score ()).delayed + 1;
        t.pending_certs <- t.pending_certs @ [ (t.time + k, cert_tx) ];
        logf t "fault: %s certificate for epoch %d delayed %d ticks" sc.name
          epoch k
      | Some (f, epoch, Faults.Duplicate n) ->
        if Faults.fire f (Printf.sprintf "dup@%d:%s" epoch sc.name) then
          Zen_obs.Counter.incr fault_injections;
        submit t cert_tx;
        logf t "%s submitted certificate" sc.name;
        let s = score () in
        s.submitted <- s.submitted + 1;
        s.duplicated <- s.duplicated + n;
        t.pending_certs <-
          t.pending_certs @ List.init n (fun j -> (t.time + j + 1, cert_tx));
        logf t "fault: %s certificate for epoch %d duplicated x%d" sc.name
          epoch n
      | Some (_, _, Faults.Withhold) | None ->
        submit t cert_tx;
        (score ()).submitted <- (score ()).submitted + 1;
        logf t "%s submitted certificate" sc.name))

let tick t =
  Zen_obs.Counter.incr ticks;
  let tick_no = t.time + 1 in
  Zen_obs.Histogram.time tick_s @@ fun () ->
  Zen_obs.Trace.with_span ~cat:"sim"
    ~args:[ ("time", string_of_int tick_no) ]
    "sim.tick"
  @@ fun () ->
  inject_tick_faults t ~tick_no;
  mine t;
  inject_workload t ~tick_no;
  List.iter
    (fun sc ->
      (match Node.forge sc.node ~mc:t.chain ~slot:t.time () with
      | Error e -> logf t "%s forge error: %s" sc.name e
      | Ok None -> ()
      | Ok (Some b) ->
        logf t "%s forged block %d (%d refs, %d txs)" sc.name b.height
          (List.length b.mc_refs) (List.length b.txs));
      (* Drain point of the proving pipeline: fold whatever the workers
         finished since the last tick (with a sequential pool, run the
         deferred proofs here) so certify time only sees carry merges
         and genuine stragglers. Scheduling only — the log never
         records pipeline progress, keeping runs byte-identical for
         every domain count. *)
      Node.pump sc.node;
      if not sc.withhold_certs then submit_certificate t sc)
    (sidechains t);
  Zen_obs.Gauge.set_int mempool_depth (List.length (Mempool.txs t.mempool))

let tick_n t n =
  for _ = 1 to n do
    tick t
  done

let sc_balance_on_mc t sc =
  Option.value
    (Chain_state.sc_balance (Chain.tip_state t.chain) sc.ledger_id)
    ~default:Amount.zero

let is_ceased t sc =
  let st = Chain.tip_state t.chain in
  Sc_ledger.is_ceased st.scs sc.ledger_id ~height:st.height

let scoreboard_json t =
  let open Zen_obs.Json in
  let rows =
    Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.scores []
    |> List.sort (fun ((n1, e1), _) ((n2, e2), _) ->
           match String.compare n1 n2 with
           | 0 -> Int.compare e1 e2
           | c -> c)
    |> List.map (fun ((name, epoch), s) ->
           Obj
             [
               ("sidechain", Str name);
               ("epoch", Int epoch);
               ("submitted", Int s.submitted);
               ("dropped", Int s.dropped);
               ("delayed", Int s.delayed);
               ("duplicated", Int s.duplicated);
               ("withheld", Int s.withheld);
               ("errors", Int s.cert_errors);
             ])
  in
  let reorgs = List.rev t.reorgs in
  let cache = Verifier.Cache.stats () in
  let lookups = cache.hits + cache.misses in
  let retries =
    Zen_obs.Counter.value
      (Zen_obs.Counter.make "latus.prover.reassignments")
  in
  Obj
    [
      ("ticks", Int t.time);
      ( "reorgs",
        Arr
          (List.map
             (fun (tick, depth) ->
               Obj [ ("tick", Int tick); ("depth", Int depth) ])
             reorgs) );
      ( "max_reorg_depth",
        Int (List.fold_left (fun m (_, d) -> max m d) 0 reorgs) );
      ("proof_retries", Int retries);
      ( "aggregate",
        (let a = Chain_state.Aggregate_stats.snapshot () in
         Obj
           [
             ("enabled", Bool t.aggregate);
             ("blocks", Int a.Chain_state.Aggregate_stats.blocks);
             ("certs_settled", Int a.Chain_state.Aggregate_stats.certs_settled);
             ("proof_checks", Int a.Chain_state.Aggregate_stats.proof_checks);
             ("rejected", Int a.Chain_state.Aggregate_stats.rejected);
           ]) );
      ( "verify_cache",
        Obj
          [
            ("hits", Int cache.hits);
            ("misses", Int cache.misses);
            ( "hit_rate",
              Float
                (if lookups = 0 then 0.
                 else float_of_int cache.hits /. float_of_int lookups) );
          ] );
      ( "pipeline",
        (* Certify-path accounting per certificate: [leaves] base
           transitions folded, of which only [carry_merges] merges ran
           at certify time (the rest were eager, between ticks). Both
           are deterministic in the seed — CI asserts
           carry_merges ≤ ⌈log₂ leaves⌉ + 1. *)
        Obj
          [
            ( "certs",
              Arr
                (List.concat_map
                   (fun sc ->
                     List.map
                       (fun (cs : Proof_pipeline.certificate_stats) ->
                         Obj
                           [
                             ("sidechain", Str sc.name);
                             ("epoch", Int cs.cert_epoch);
                             ("leaves", Int cs.cert_leaves);
                             ("carry_merges", Int cs.cert_carry_merges);
                           ])
                       (Node.certificate_stats sc.node))
                   (sidechains t)) );
          ] );
      ("certificates", Arr rows);
    ]
