(* A bounded Domain-based worker pool with a chunked, work-stealing
   task queue. Plain stdlib only: Domain + Mutex + Condition + Atomic.

   Shape: [create ~domains:d] spawns [d - 1] persistent worker domains
   that block on a condition variable; the caller of a parallel
   operation is always the d-th worker, so a pool with [domains = 1]
   spawns nothing and runs everything in the caller — the sequential
   fallback path, bit-identical by construction.

   Lifecycle: pools are expensive to spawn (a Domain each) and cheap to
   keep, so the normal way to obtain one is the process-wide registry
   ([get] / [shared]): one persistent pool per domain count, spawned on
   first use, reused by every workload and shut down once at process
   exit. [create]/[shutdown] remain for transient pools (tests, code
   that must bound worker lifetime itself).

   A parallel operation turns its index space [0, n) into chunks —
   sized adaptively from a per-item cost hint so that per-chunk sync
   overhead amortizes — and publishes one "help" closure per spare
   domain; every participant (helpers and caller alike) then races on a
   shared atomic chunk counter — dynamic load balancing without
   per-task locking. Because a participant that finds the counter
   exhausted simply leaves, the caller alone can finish the whole
   operation; helpers that never get scheduled (a busy or already
   shut-down pool) cost nothing and cannot deadlock, including when
   operations nest. An operation whose whole index space fits one chunk
   never touches the queue at all. *)

type task = unit -> unit

type t = {
  domains : int;
  mutex : Mutex.t;
  work : Condition.t; (* signalled when the queue grows or the pool closes *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let make_handle domains =
  {
    domains;
    mutex = Mutex.create ();
    work = Condition.create ();
    queue = Queue.create ();
    closed = false;
    workers = [];
  }

let sequential = make_handle 1

let recommended_domains () = Domain.recommended_domain_count ()

let domains t = t.domains

let is_closed t =
  Mutex.lock t.mutex;
  let c = t.closed in
  Mutex.unlock t.mutex;
  c

(* ---- observability ----

   Chunk counters render the granularity the adaptive sizing actually
   chose; steal counts say how much of the work the helpers (as opposed
   to the issuing caller) picked up; busy/idle totals say what the
   spawned workers did with their lifetime. All of it is observation
   only and gated on the registry switch. *)

let chunks_run =
  Zen_obs.Counter.make ~help:"Chunks executed by pool operations"
    "pool.chunks"

let chunk_items =
  Zen_obs.Histogram.make
    ~help:"Indices per executed chunk (adaptive granularity)"
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1. ~factor:4. ~n:8)
    "pool.chunk.items"

let steals =
  Zen_obs.Counter.make
    ~help:"Chunks executed by helper domains (not the issuing caller)"
    "pool.steals"

let ops_inline =
  Zen_obs.Counter.make
    ~help:"Parallel operations that ran as a single inline chunk"
    "pool.ops.inline"

let ops_fanned =
  Zen_obs.Counter.make
    ~help:"Parallel operations that published help closures to the queue"
    "pool.ops.fanned"

let worker_busy_us =
  Zen_obs.Counter.make
    ~help:"Microseconds pool workers spent executing tasks"
    "pool.worker.busy_us"

let worker_idle_us =
  Zen_obs.Counter.make
    ~help:"Microseconds pool workers spent blocked waiting for work"
    "pool.worker.idle_us"

(* A worker wrapper that raises is a bug (the closures built below
   catch their own exceptions), but swallowing everything with
   [try ... with _ -> ()] hides real trouble: it would eat
   [Stack_overflow] and [Out_of_memory] too, leaving a half-dead pool
   with no trace. Asynchronous runtime exceptions are re-raised — the
   domain dies and [Domain.join] in {!shutdown} rethrows them in the
   caller — and anything else is counted so it can never vanish
   silently. *)
let swallowed =
  Zen_obs.Counter.make
    ~help:"Exceptions swallowed by pool worker wrappers (should stay 0)"
    "pool.worker.swallowed"

(* Per-worker GC tuning, applied once per spawned domain. Template-
   cached proving allocates short-lived structures at a high rate from
   every domain at once; with the stock 256k-word minor heap each
   worker promotes early and the domains contend in the shared major
   heap. A larger minor heap (8 MiB per worker on 64-bit) keeps those
   allocations domain-local, which is most of the "GC contention" cost
   the persistent pool is meant to eliminate. Only spawned workers are
   tuned — the caller's domain keeps whatever the host process set. *)
let worker_minor_heap_words = 1 lsl 20

let tune_worker_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words }

let rec worker_loop t =
  Mutex.lock t.mutex;
  let observing = Zen_obs.Registry.enabled () in
  let t_wait = if observing then Zen_obs.Clock.now () else 0. in
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work t.mutex
  done;
  if observing then
    Zen_obs.Counter.add worker_idle_us
      (int_of_float ((Zen_obs.Clock.now () -. t_wait) *. 1e6));
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closed and drained *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    let t_run = if observing then Zen_obs.Clock.now () else 0. in
    (try task () with
    | (Stack_overflow | Out_of_memory) as e -> raise e
    | _ -> Zen_obs.Counter.incr swallowed);
    if observing then
      Zen_obs.Counter.add worker_busy_us
        (int_of_float ((Zen_obs.Clock.now () -. t_run) *. 1e6));
    worker_loop t
  end

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  let t = make_handle domains in
  if domains > 1 then
    t.workers <-
      List.init (domains - 1) (fun _ ->
          Domain.spawn (fun () ->
              tune_worker_gc ();
              worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.work
  end;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(* ---- the process-wide shared registry ----

   One persistent pool per requested domain count, spawned on first
   use and kept for the process lifetime; an [at_exit] hook joins every
   worker so the process never leaks blocked domains. A registry pool
   that was shut down by hand (tests do this to exercise degradation)
   is replaced on the next [get] — the registry never hands out a
   closed pool. *)

let registry_mutex = Mutex.create ()
let registry : (int, t) Hashtbl.t = Hashtbl.create 8
let exit_hook_installed = ref false

let shutdown_shared () =
  Mutex.lock registry_mutex;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex;
  List.iter shutdown pools

let get ~domains =
  if domains < 1 then invalid_arg "Pool.get: domains < 1";
  if domains = 1 then sequential
  else begin
    Mutex.lock registry_mutex;
    let t =
      match Hashtbl.find_opt registry domains with
      | Some t when not (is_closed t) -> t
      | _ ->
        let t = create ~domains in
        Hashtbl.replace registry domains t;
        if not !exit_hook_installed then begin
          exit_hook_installed := true;
          at_exit shutdown_shared
        end;
        t
    in
    Mutex.unlock registry_mutex;
    t
  end

(* ---- adaptive chunk granularity ----

   [cost] is the caller's estimate of one index's work in milliseconds.
   Two pressures shape the chunk size: each chunk must carry at least
   [target_chunk_ms] of estimated work so the per-chunk sync (an atomic
   fetch-and-add, plus the operation's one-time queue broadcast)
   amortizes to noise, and the index space should split into about
   [steal_slices] chunks per domain so dynamic stealing can rebalance a
   skewed workload. When the two conflict — many tiny items on many
   domains — amortization wins: better a few well-fed chunks (or one
   inline run) than a thousand synchronized crumbs, which is exactly
   the regime that made template-cached proving slower at 4 domains
   than at 1. Without a cost hint the legacy shape (8 chunks per
   domain) is kept. *)

let target_chunk_ms = 0.5
let steal_slices = 4

let chunk_size ~domains ~n ~cost =
  match cost with
  | None -> max 1 (n / (domains * 8))
  | Some cost ->
    let amortize =
      if cost <= 0. then n
      else
        let c = ceil (target_chunk_ms /. cost) in
        if c >= float_of_int n then n else int_of_float c
    in
    let slices = domains * steal_slices in
    let balance = (n + slices - 1) / slices in
    min n (max 1 (max amortize balance))

(* One span per executed chunk, recorded by the executing domain —
   this is what renders the per-domain task timeline in the Chrome
   trace export (the tid lane is the domain id). Observation only:
   behind a disabled registry the wrapper is a single branch. *)
let chunk_span ~lo ~hi body =
  Zen_obs.Counter.incr chunks_run;
  Zen_obs.Histogram.observe chunk_items (float_of_int (hi - lo + 1));
  Zen_obs.Trace.with_span ~cat:"pool"
    ~args:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
    "pool.chunk"
    (fun () ->
      for i = lo to hi do
        body i
      done)

let parallel_for t ?cost ~n body =
  if n > 0 then begin
    let chunk = chunk_size ~domains:t.domains ~n ~cost in
    let nchunks = (n + chunk - 1) / chunk in
    if t.domains = 1 || nchunks = 1 then begin
      Zen_obs.Counter.incr ops_inline;
      chunk_span ~lo:0 ~hi:(n - 1) body
    end
    else begin
      Zen_obs.Counter.incr ops_fanned;
      let next = Atomic.make 0 in
      let remaining = Atomic.make nchunks in
      let failed : exn option Atomic.t = Atomic.make None in
      let done_mutex = Mutex.create () in
      let done_cond = Condition.create () in
      let work ~stolen () =
        let rec grab () =
          let c = Atomic.fetch_and_add next 1 in
          if c < nchunks then begin
            (* After a failure the rest of the index space is skipped
               (but still accounted) so the caller can re-raise fast. *)
            (if Atomic.get failed = None then
               try
                 let lo = c * chunk in
                 let hi = min n (lo + chunk) - 1 in
                 if stolen then Zen_obs.Counter.incr steals;
                 chunk_span ~lo ~hi body
               with e -> ignore (Atomic.compare_and_set failed None (Some e)));
            if Atomic.fetch_and_add remaining (-1) = 1 then begin
              Mutex.lock done_mutex;
              Condition.broadcast done_cond;
              Mutex.unlock done_mutex
            end;
            grab ()
          end
        in
        grab ()
      in
      (* Publish at most one helper per spare chunk: waking more workers
         than there are chunks to steal is pure overhead. *)
      let helpers = min (t.domains - 1) (nchunks - 1) in
      Mutex.lock t.mutex;
      for _ = 1 to helpers do
        Queue.push (work ~stolen:true) t.queue
      done;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      work ~stolen:false ();
      (* The caller ran out of chunks; helpers may still be inside the
         last ones. The completion broadcast is taken under done_mutex,
         so the check-then-wait below cannot miss it. *)
      Mutex.lock done_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait done_cond done_mutex
      done;
      Mutex.unlock done_mutex;
      match Atomic.get failed with Some e -> raise e | None -> ()
    end
  end

let init_array t ?cost n f =
  if n < 0 then invalid_arg "Pool.init_array: negative length";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 then Array.init n f
  else begin
    let out = Array.make n None in
    parallel_for t ?cost ~n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_array t ?cost f arr =
  if t.domains = 1 then Array.map f arr
  else init_array t ?cost (Array.length arr) (fun i -> f arr.(i))

let map_list t ?cost f l =
  if t.domains = 1 then List.map f l
  else Array.to_list (map_array t ?cost f (Array.of_list l))

(* ---- single-task futures ----

   A future is a one-shot task whose execution site is decided late:
   a spawned worker may pick it off the queue, or whoever awaits it
   runs it inline if no worker got there first (the same
   caller-participates rule as the chunked operations, so a sequential
   or shut-down pool degrades to deterministic inline execution instead
   of deadlocking). The claim transition Pending -> Running happens
   under the future's own mutex, so exactly one party runs the thunk;
   everyone else blocks on the condition until Done. *)

type 'a fstate =
  | FPending of (unit -> 'a)
  | FRunning
  | FDone of ('a, exn) result

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a fstate;
}

let async_submitted =
  Zen_obs.Counter.make ~help:"Futures submitted to pool queues"
    "pool.async.submitted"

(* Runs the thunk if (and only if) this caller wins the claim. *)
let run_future fut =
  Mutex.lock fut.fmutex;
  match fut.fstate with
  | FRunning | FDone _ -> Mutex.unlock fut.fmutex
  | FPending th ->
    fut.fstate <- FRunning;
    Mutex.unlock fut.fmutex;
    let r = try Ok (th ()) with e -> Error e in
    Mutex.lock fut.fmutex;
    fut.fstate <- FDone r;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmutex

let async t th =
  let fut =
    { fmutex = Mutex.create (); fcond = Condition.create (); fstate = FPending th }
  in
  if t.domains > 1 then begin
    Mutex.lock t.mutex;
    if not t.closed then begin
      Zen_obs.Counter.incr async_submitted;
      Queue.push (fun () -> run_future fut) t.queue;
      Condition.signal t.work
    end;
    Mutex.unlock t.mutex
  end;
  fut

let poll fut =
  Mutex.lock fut.fmutex;
  let r = match fut.fstate with FDone _ -> true | _ -> false in
  Mutex.unlock fut.fmutex;
  r

let await fut =
  run_future fut;
  (* Either we just ran it, or a worker holds it: wait for Done. *)
  Mutex.lock fut.fmutex;
  let rec settle () =
    match fut.fstate with
    | FDone r ->
      Mutex.unlock fut.fmutex;
      (match r with Ok v -> v | Error e -> raise e)
    | FPending _ | FRunning ->
      Condition.wait fut.fcond fut.fmutex;
      settle ()
  in
  settle ()
