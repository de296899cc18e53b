let real = Unix.gettimeofday

let source : (unit -> float) Atomic.t = Atomic.make real

(* Fault-injection support: an additive offset applied on top of the
   current source. A plain [Atomic.t] of float; updates CAS-loop since
   there is no float fetch_and_add. *)
let offset : float Atomic.t = Atomic.make 0.

let now () = (Atomic.get source) () +. Atomic.get offset
let set f = Atomic.set source f

let reset () =
  Atomic.set source real;
  Atomic.set offset 0.

let skew d =
  let rec go () =
    let cur = Atomic.get offset in
    if not (Atomic.compare_and_set offset cur (cur +. d)) then go ()
  in
  go ()

let deterministic ?(start = 0.) ?(step = 1e-3) () =
  let k = Atomic.make 0 in
  fun () -> start +. (float_of_int (Atomic.fetch_and_add k 1) *. step)
