open Zen_crypto
open Zen_snark

module Int_map = Map.Make (Int)

let ( let* ) = Result.bind

(* ---- metrics ---- *)

(* Proving tasks enqueued but not yet folded (all epochs). *)
let depth_gauge = Zen_obs.Gauge.make "latus.pipeline.depth"

let enqueued_c = Zen_obs.Counter.make "latus.pipeline.enqueued"

(* Recursive merges done off the certify path (during pumping). *)
let eager_merges_c = Zen_obs.Counter.make "latus.pipeline.merges.eager"

(* Recursive carry merges done on the certify path. *)
let carry_merges_c = Zen_obs.Counter.make "latus.pipeline.merges.carry"

(* Stream truncations caused by mainchain reorg rollbacks. *)
let truncations_c = Zen_obs.Counter.make "latus.pipeline.truncations"

(* Enqueue-to-execution wait of pipelined proving tasks. *)
let queue_wait_s =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:10)
    "latus.pipeline.queue_wait.seconds"

(* Pipelined base-proof latency (prove_step + recursive wrap). *)
let prove_s =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-4 ~factor:4. ~n:8)
    "latus.pipeline.prove.seconds"

(* ---- streams ---- *)

(* A leaf's wrapped base proof (or the first error of its task) and
   the seconds its task took. *)
type leaf_result = (Recursive.transition_proof, string) result * float

(* A leaf is its task's future. [Pool.await] keeps the result, so a
   reorg truncation replays the kept prefix without re-proving. *)
type leaf = leaf_result Pool.future

type stream = {
  mutable leaves : leaf option array; (* growable; slots [0, n) filled *)
  mutable n : int;
  mutable harvested : int; (* leaves already folded into [inc] *)
  mutable inc : Recursive.transition_proof Fold.t;
  mutable base_error : string option; (* first failing leaf, in order *)
  mutable last_post : (Sc_state.t * Fp.t) option;
      (* the last enqueued record's post-state and its hash: the next
         record's pre-state when the steps are consecutive *)
}

type certificate_stats = {
  cert_epoch : int;
  cert_leaves : int;
  cert_carry_merges : int;
}

type t = {
  pool : Pool.t;
  fam : Circuits.family;
  rsys : Recursive.system;
  mutable epochs : stream Int_map.t;
  mutable certificate_log : certificate_stats list; (* newest first *)
}

let create ~pool ~family ~rsys =
  {
    pool;
    fam = family;
    rsys;
    epochs = Int_map.empty;
    certificate_log = [];
  }

let fresh_stream sys =
  {
    leaves = Array.make 16 None;
    n = 0;
    harvested = 0;
    inc = Fold.create ~merge:(Recursive.merge sys);
    base_error = None;
    last_post = None;
  }

let stream_for t ~epoch =
  match Int_map.find_opt epoch t.epochs with
  | Some s -> s
  | None ->
    let s = fresh_stream t.rsys in
    t.epochs <- Int_map.add epoch s t.epochs;
    s

(* Leaves enqueued but not yet folded, across the live streams. *)
let outstanding t =
  Int_map.fold (fun _ s acc -> acc + s.n - s.harvested) t.epochs 0

let set_depth t = Zen_obs.Gauge.set_int depth_gauge (outstanding t)

let leaves t ~epoch =
  match Int_map.find_opt epoch t.epochs with None -> 0 | Some s -> s.n

let certificate_log t = t.certificate_log

(* Each state is hashed once per stream: a record whose pre-state is
   the previous record's post-state (the same value, as [Sc_tx.trace]
   and [Sc_tx.transition] chain them) reuses that record's hash. States
   are persistent, so a physically equal state has the same hash. *)
let hashes s (traced : Sc_tx.traced) =
  let s_from =
    match s.last_post with
    | Some (post, h) when post == traced.pre -> h
    | _ -> Sc_state.hash traced.pre
  in
  let s_to = Sc_state.hash traced.post in
  s.last_post <- Some (traced.post, s_to);
  (s_from, s_to)

let enqueue t ~epoch traced =
  let s = stream_for t ~epoch in
  if s.n >= Array.length s.leaves then begin
    let bigger = Array.make (2 * Array.length s.leaves) None in
    Array.blit s.leaves 0 bigger 0 s.n;
    s.leaves <- bigger
  end;
  let observing = Zen_obs.Registry.enabled () in
  let t_submit = if observing then Zen_obs.Clock.now () else 0. in
  let fam = t.fam and rsys = t.rsys and index = s.n in
  let s_from, s_to = hashes s traced in
  (* The thunk is pure in the pool's sense: the traced step, its hashes
     and the keys are all captured here; it may run on any worker domain
     or inline at harvest. It must never raise — failures travel as
     [Error] so the worker-side exception accounting stays quiet. The
     wrap's verification is the proof's only check. *)
  let fut =
    Pool.async t.pool (fun () ->
        let t0 = Zen_obs.Clock.now () in
        if observing then Zen_obs.Histogram.observe queue_wait_s (t0 -. t_submit);
        let result =
          Zen_obs.Trace.with_span ~cat:"latus"
            ~args:[ ("step", string_of_int index) ]
            "latus.prove_step"
          @@ fun () ->
          let* proof, vk, _, _ = Circuits.prove_traced fam ~s_from ~s_to traced in
          Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof
        in
        let seconds = Zen_obs.Clock.now () -. t0 in
        Zen_obs.Histogram.observe prove_s seconds;
        (result, seconds))
  in
  s.leaves.(s.n) <- Some fut;
  s.n <- s.n + 1;
  Zen_obs.Counter.incr enqueued_c;
  set_depth t

(* Folds leaf [i]'s result into the stream's incremental accumulator.
   Eager merges run here — off the certify path unless certify itself
   is forcing stragglers. *)
let absorb t s ((result, _) : leaf_result) =
  (match result with
  | Ok tp ->
    let before = Fold.eager_merges s.inc in
    Fold.push s.inc tp;
    Zen_obs.Counter.add eager_merges_c (Fold.eager_merges s.inc - before)
  | Error e -> if s.base_error = None then s.base_error <- Some e);
  s.harvested <- s.harvested + 1;
  set_depth t

(* Advances a stream's fold over every leaf whose proof is available.
   [force] awaits instead of skipping (running the thunk inline when no
   worker claimed it); harvesting stays in leaf order so the fold — and
   with it the certificate bytes — never depends on completion order. *)
let harvest t ?(force = false) s =
  let continue = ref true in
  while !continue && s.harvested < s.n do
    match s.leaves.(s.harvested) with
    | None -> assert false
    | Some fut ->
      if force || Pool.poll fut then absorb t s (Pool.await fut)
      else continue := false
  done

let pump t =
  if Pool.domains t.pool = 1 then
    (* No background workers: the pump point is where deferred proofs
       actually run, spreading them across ticks instead of bursting at
       the epoch boundary. *)
    Int_map.iter (fun _ s -> harvest t ~force:true s) t.epochs
  else Int_map.iter (fun _ s -> harvest t s) t.epochs

let await_epoch t ~epoch =
  match Int_map.find_opt epoch t.epochs with
  | None -> Error "pipeline: no proving stream for epoch"
  | Some s -> (
    harvest t ~force:true s;
    match s.base_error with
    | Some e -> Error e
    | None ->
      let carries = Fold.pending_merges s.inc in
      Zen_obs.Counter.add carry_merges_c carries;
      t.certificate_log <-
        { cert_epoch = epoch; cert_leaves = s.n; cert_carry_merges = carries }
        :: t.certificate_log;
      Fold.finish s.inc)

let leaf_results t ~epoch =
  match Int_map.find_opt epoch t.epochs with
  | None -> []
  | Some s -> List.init s.n (fun i -> Pool.await (Option.get s.leaves.(i)))

let truncate t ~epoch ~keep =
  match Int_map.find_opt epoch t.epochs with
  | None -> ()
  | Some s ->
    if keep >= s.n then ()
    else begin
      Zen_obs.Counter.incr truncations_c;
      (* Unharvested leaves dropped here may still be running on a
         worker; they finish harmlessly and are never read. *)
      if keep = 0 then t.epochs <- Int_map.remove epoch t.epochs
      else begin
        (* Rebuild the fold over the kept prefix. Kept leaves that were
           already harvested replay their futures' kept results (no
           re-prove; the merges re-run — a reorg is rare and shallow, so
           this is still far below a full certify-time fold). *)
        s.n <- keep;
        s.harvested <- 0;
        s.base_error <- None;
        s.inc <- Fold.create ~merge:(Recursive.merge t.rsys);
        harvest t s
      end;
      set_depth t
    end

let drop_below t ~epoch =
  t.epochs <- Int_map.filter (fun e _ -> e >= epoch) t.epochs;
  set_depth t
