(* A bounded Domain-based worker pool over one-shot futures. Plain
   stdlib only: Domain + Mutex + Condition.

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

   All work is futures (below): [async] submits one, and a parallel
   operation over [0, n) submits n, one per index, in one batch. The
   queue holds only "run this future if nobody has" closures, and
   whoever awaits a future runs it if no worker got there first, so the
   caller alone can finish any operation: workers that never get
   scheduled (a busy or already shut-down pool) cost nothing and cannot
   deadlock, including when operations nest. *)

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

   Submission and steal counts say how much of the work the workers
   (as opposed to the awaiting callers) picked up; busy/idle totals say
   what the spawned workers did with their lifetime. All of it is
   observation only and gated on the registry switch. *)

(* Futures queued for the workers, by [async] and [init_array] alike. *)
let submitted = Zen_obs.Counter.make "pool.async.submitted"

(* Futures a worker domain ran, not the caller that awaited them. *)
let steals = Zen_obs.Counter.make "pool.steals"

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

(* ---- futures ----

   A future is a one-shot task whose execution site is decided late:
   a spawned worker may pick it off the queue, or whoever awaits it
   runs it inline if no worker got there first (the caller-participates
   rule, so a sequential or shut-down pool degrades to deterministic
   inline execution instead of deadlocking). The claim transition
   Pending -> Running happens under the future's mutex, so exactly
   one party runs the thunk; everyone else blocks on the condition
   until Done. This is the pool's one claim/complete protocol. *)

type 'a fstate =
  | FPending of (unit -> 'a)
  | FRunning
  | FDone of ('a, exn) result

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a fstate;
}

let future th =
  { fmutex = Mutex.create (); fcond = Condition.create (); fstate = FPending th }

(* Runs the thunk if (and only if) this caller wins the claim. A state
   only moves forward, so one seen past Pending without the lock is
   final for the claim: a worker popping a future its awaiter already
   took skips it without contending for the lock. A worker's claim is
   counted before the thunk runs, so it is visible to anyone who has
   seen the future done. *)
let run_future ?(stolen = false) fut =
  match fut.fstate with
  | FRunning | FDone _ -> ()
  | FPending _ -> (
    Mutex.lock fut.fmutex;
    match fut.fstate with
    | FRunning | FDone _ -> Mutex.unlock fut.fmutex
    | FPending th ->
      fut.fstate <- FRunning;
      Mutex.unlock fut.fmutex;
      if stolen then Zen_obs.Counter.incr steals;
      let r = try Ok (th ()) with e -> Error e in
      Mutex.lock fut.fmutex;
      fut.fstate <- FDone r;
      Condition.broadcast fut.fcond;
      Mutex.unlock fut.fmutex)

(* Queues [futs] for the workers under one lock with one wake-up. A
   closed pool queues nothing: the awaiters run everything. *)
let submit t futs =
  if t.domains > 1 then begin
    Mutex.lock t.mutex;
    if not t.closed then begin
      Zen_obs.Counter.add submitted (Array.length futs);
      Array.iter
        (fun fut -> Queue.push (fun () -> run_future ~stolen:true fut) t.queue)
        futs;
      if Array.length futs = 1 then Condition.signal t.work
      else Condition.broadcast t.work
    end;
    Mutex.unlock t.mutex
  end

let async t th =
  let fut = future th in
  submit t [| fut |];
  fut

let poll fut =
  Mutex.lock fut.fmutex;
  let r = match fut.fstate with FDone _ -> true | _ -> false in
  Mutex.unlock fut.fmutex;
  r

(* The task's outcome, without re-raising: either we run it now, or
   someone holds it and we wait for Done. *)
let settle fut =
  run_future fut;
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

(* Each index is a future with a [pool.task] span, recorded by the
   domain that runs it — the Chrome trace's per-domain lanes and the
   report's self times. The caller runs every index still pending, in
   order, then waits for those the workers hold; every index settles
   before an exception leaves, so the lowest failing index's is the one
   re-raised, as in [Array.init]. *)
let init_array t n f =
  if n < 0 then invalid_arg "Pool.init_array: negative length";
  if t.domains = 1 || n <= 1 then Array.init n f
  else begin
    let futs =
      Array.init n (fun i ->
          future (fun () ->
              Zen_obs.Trace.with_span ~cat:"pool"
                ~args:[ ("i", string_of_int i) ]
                "pool.task"
                (fun () -> f i)))
    in
    submit t futs;
    Array.iter run_future futs;
    Array.iter (fun fut -> ignore (settle fut)) futs;
    Array.map await futs
  end
