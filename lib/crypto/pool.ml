(* A bounded Domain-based worker pool with a chunked, work-stealing
   task queue. Plain stdlib only: Domain + Mutex + Condition.

   Shape: [create ~domains:d] spawns [d - 1] persistent worker domains
   that block on a condition variable; the caller of a parallel
   operation is always the d-th worker, so a pool with [domains = 1]
   spawns nothing and runs everything in the caller — the sequential
   fallback path, bit-identical by construction.

   Lifecycle: pools are expensive to spawn (a Domain each) and cheap to
   keep, so the normal way to obtain one is the process-wide registry
   ([get]): one persistent pool per domain count, spawned on first use,
   reused by every workload and shut down once at process exit.
   [create]/[shutdown] remain for transient pools (tests, code that
   must bound worker lifetime itself).

   A parallel operation turns its index space [0, n) into chunks —
   sized adaptively from a per-item cost hint so that per-chunk sync
   overhead amortizes — makes each chunk a future (below: the pool's
   one way to claim and finish work) and publishes one "help" closure
   per spare domain; every participant (helpers and caller alike) then
   walks the chunks in index order and runs each one still unclaimed.
   Because a participant that finds every chunk claimed simply leaves,
   the caller alone can finish the whole operation; helpers that never
   get scheduled (a busy or already shut-down pool) cost nothing and
   cannot deadlock, including when operations nest. An operation whose
   whole index space fits one chunk never touches the queue at all. *)

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

let chunks_run = Zen_obs.Counter.make "pool.chunks"

(* Indices per executed chunk (adaptive granularity). *)
let chunk_items =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1. ~factor:4. ~n:8)
    "pool.chunk.items"

(* Chunks executed by helper domains, not the issuing caller. *)
let steals = Zen_obs.Counter.make "pool.steals"

(* Parallel operations that ran as a single inline chunk. *)
let ops_inline = Zen_obs.Counter.make "pool.ops.inline"

(* Parallel operations that published help closures to the queue. *)
let ops_fanned = Zen_obs.Counter.make "pool.ops.fanned"

(* Microseconds pool workers spent executing tasks. *)
let worker_busy_us = Zen_obs.Counter.make "pool.worker.busy_us"

(* Microseconds pool workers spent blocked waiting for work. *)
let worker_idle_us = Zen_obs.Counter.make "pool.worker.idle_us"

(* A worker wrapper that raises is a bug (the closures built below
   catch their own exceptions), but swallowing everything with
   [try ... with _ -> ()] hides real trouble: it would eat
   [Stack_overflow] and [Out_of_memory] too, leaving a half-dead pool
   with no trace. Asynchronous runtime exceptions are re-raised — the
   domain dies and [Domain.join] in {!shutdown} rethrows them in the
   caller — and anything else is counted so it can never vanish
   silently. *)
let swallowed = Zen_obs.Counter.make "pool.worker.swallowed"

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
   [target_chunk_ms] of estimated work so the per-chunk sync (a claim
   and a completion under the operation's mutex, plus its one-time
   queue broadcast) amortizes to noise, and the index space should
   split into about [steal_slices] chunks per domain so dynamic
   stealing can rebalance a skewed workload. When the two conflict —
   many tiny items on many domains — amortization wins: better a few
   well-fed chunks (or one inline run) than a thousand synchronized
   crumbs, which is exactly the regime that made template-cached
   proving slower at 4 domains than at 1. *)

let target_chunk_ms = 0.5
let steal_slices = 4

let chunk_size ~domains ~n ~cost =
  let amortize =
    if cost <= 0. then n
    else
      let c = ceil (target_chunk_ms /. cost) in
      if c >= float_of_int n then n else int_of_float c
  in
  let slices = domains * steal_slices in
  let balance = (n + slices - 1) / slices in
  min n (max 1 (max amortize balance))

(* ---- single-task futures ----

   A future is a one-shot task whose execution site is decided late:
   a spawned worker may pick it off the queue, or whoever awaits it
   runs it inline if no worker got there first (the caller-participates
   rule, so a sequential or shut-down pool degrades to deterministic
   inline execution instead of deadlocking). The claim transition
   Pending -> Running happens under the future's mutex, so exactly
   one party runs the thunk; everyone else blocks on the condition
   until Done. This is the pool's one claim/complete protocol: the
   chunks of a parallel operation below are futures too. *)

type 'a fstate =
  | FPending of (unit -> 'a)
  | FRunning
  | FDone of ('a, exn) result

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a fstate;
}

let async_submitted = Zen_obs.Counter.make "pool.async.submitted"

(* Runs the thunk if (and only if) this caller wins the claim; says
   whether it did. A state only moves forward, so one seen past Pending
   without the lock is final for the claim: a helper walking chunks the
   caller already took skips them without contending for the lock. *)
let run_future fut =
  match fut.fstate with
  | FRunning | FDone _ -> false
  | FPending _ -> (
    Mutex.lock fut.fmutex;
    match fut.fstate with
    | FRunning | FDone _ ->
      Mutex.unlock fut.fmutex;
      false
    | FPending th ->
      fut.fstate <- FRunning;
      Mutex.unlock fut.fmutex;
      let r = try Ok (th ()) with e -> Error e in
      Mutex.lock fut.fmutex;
      fut.fstate <- FDone r;
      Condition.broadcast fut.fcond;
      Mutex.unlock fut.fmutex;
      true)

let async t th =
  let fut =
    { fmutex = Mutex.create (); fcond = Condition.create (); fstate = FPending th }
  in
  if t.domains > 1 then begin
    Mutex.lock t.mutex;
    if not t.closed then begin
      Zen_obs.Counter.incr async_submitted;
      Queue.push (fun () -> ignore (run_future fut)) t.queue;
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

(* The task's outcome, without re-raising: either we run it now, or
   someone holds it and we wait for Done. *)
let settle fut =
  ignore (run_future fut);
  Mutex.lock fut.fmutex;
  let rec wait () =
    match fut.fstate with
    | FDone r ->
      Mutex.unlock fut.fmutex;
      r
    | FPending _ | FRunning ->
      Condition.wait fut.fcond fut.fmutex;
      wait ()
  in
  wait ()

let await fut = match settle fut with Ok v -> v | Error e -> raise e

(* One span per executed chunk, recorded by the executing domain —
   this is what renders the per-domain task timeline in the Chrome
   trace export (the tid lane is the domain id). Observation only:
   behind a disabled registry the wrapper is a single branch. *)
let chunk_span ~lo ~hi f =
  Zen_obs.Counter.incr chunks_run;
  Zen_obs.Histogram.observe chunk_items (float_of_int (hi - lo + 1));
  Zen_obs.Trace.with_span ~cat:"pool"
    ~args:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
    "pool.chunk"
    (fun () -> Array.init (hi - lo + 1) (fun k -> f (lo + k)))

let init_array t ~cost n f =
  if n < 0 then invalid_arg "Pool.init_array: negative length";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 then Array.init n f
  else begin
    let chunk = chunk_size ~domains:t.domains ~n ~cost in
    let nchunks = (n + chunk - 1) / chunk in
    if nchunks = 1 then begin
      Zen_obs.Counter.incr ops_inline;
      chunk_span ~lo:0 ~hi:(n - 1) f
    end
    else begin
      Zen_obs.Counter.incr ops_fanned;
      (* The chunks share one mutex and condition: claims are short, and
         a pair per chunk (each allocated and finalized by the runtime)
         cost more than the rest of a small operation's bookkeeping. *)
      let fmutex = Mutex.create () and fcond = Condition.create () in
      let chunks =
        Array.init nchunks (fun c ->
            let lo = c * chunk in
            let hi = min n (lo + chunk) - 1 in
            let run () = chunk_span ~lo ~hi f in
            { fmutex; fcond; fstate = FPending run })
      in
      let steal c = if run_future c then Zen_obs.Counter.incr steals in
      let help () = Array.iter steal chunks in
      (* Publish at most one helper per spare chunk: waking more workers
         than there are chunks to claim is pure overhead. *)
      let helpers = min (t.domains - 1) (nchunks - 1) in
      Mutex.lock t.mutex;
      for _ = 1 to helpers do
        Queue.push help t.queue
      done;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      Array.iter (fun c -> ignore (run_future c)) chunks;
      (* Every chunk settles before an exception leaves, so the lowest
         failing index's is the one re-raised, as in [Array.init]. *)
      Array.iter (fun c -> ignore (settle c)) chunks;
      Array.concat (List.map await (Array.to_list chunks))
    end
  end
