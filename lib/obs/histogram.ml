type cell = {
  counts : int array;
  mutable sum : float;
  mutable count : int;
  mutable maxv : float;
}

type t = {
  name : string;
  bounds : float array; (* finite upper bounds, ascending *)
  cells : cell Sharded.t;
}

type snapshot = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
}

let registered : t list ref = ref []
let mu = Mutex.create ()

let exponential_bounds ~lo ~factor ~n =
  if n < 1 || lo <= 0. || factor <= 1. then
    invalid_arg "Histogram.exponential_bounds";
  List.init n (fun i -> lo *. (factor ** float_of_int i))

let make ~bounds name =
  let bounds = Array.of_list bounds in
  if Array.length bounds = 0 then invalid_arg "Histogram.make: no bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Histogram.make: bounds must ascend")
    bounds;
  Mutex.lock mu;
  match List.find_opt (fun h -> String.equal h.name name) !registered with
  | Some h ->
    Mutex.unlock mu;
    h
  | None ->
    let nbuckets = Array.length bounds + 1 in
    let h =
      {
        name;
        bounds;
        cells =
          Sharded.create (fun () ->
              {
                counts = Array.make nbuckets 0;
                sum = 0.;
                count = 0;
                maxv = neg_infinity;
              });
      }
    in
    registered := h :: !registered;
    Mutex.unlock mu;
    Registry.on_reset (fun () ->
        Sharded.iter h.cells ~f:(fun c ->
            Array.fill c.counts 0 (Array.length c.counts) 0;
            c.sum <- 0.;
            c.count <- 0;
            c.maxv <- neg_infinity));
    h

let bucket_of t v =
  let n = Array.length t.bounds in
  let rec go i = if i >= n || v <= t.bounds.(i) then i else go (i + 1) in
  go 0

let observe t v =
  if Registry.enabled () then begin
    let c = Sharded.get t.cells in
    let b = bucket_of t v in
    c.counts.(b) <- c.counts.(b) + 1;
    c.sum <- c.sum +. v;
    c.count <- c.count + 1;
    if v > c.maxv then c.maxv <- v
  end

let time t f =
  if not (Registry.enabled ()) then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () -> observe t (Float.max 0. (Clock.now () -. t0)))
      f
  end

let snapshot t =
  let nbuckets = Array.length t.bounds + 1 in
  let counts = Array.make nbuckets 0 in
  let sum = ref 0. and count = ref 0 and maxv = ref neg_infinity in
  Sharded.iter t.cells ~f:(fun c ->
      Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) c.counts;
      sum := !sum +. c.sum;
      count := !count + c.count;
      if c.maxv > !maxv then maxv := c.maxv);
  let buckets =
    List.init nbuckets (fun i ->
        let le = if i < Array.length t.bounds then t.bounds.(i) else infinity in
        (le, counts.(i)))
  in
  { count = !count; sum = !sum; max = (if !count = 0 then 0. else !maxv); buckets }

(* The estimated q-quantile: find the bucket holding the rank-⌈q·count⌉
   observation by a cumulative walk, then interpolate linearly inside
   it. The walk and the exact order statistic land in the same bucket
   by construction, so the estimate is always within one bucket width
   of the truth (and the +inf bucket is clamped to the tracked max). *)
let quantile s q =
  if s.count = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))) in
    let rec walk lo cum = function
      | [] -> s.max
      | (le, n) :: rest ->
        if cum + n >= rank then begin
          let hi = if le = infinity then s.max else Float.min le s.max in
          if n = 0 then Float.min hi s.max
          else if rank - cum = n then Float.min hi s.max
            (* frac = 1: return [hi] directly — [lo +. (hi -. lo)] is
               not always exactly [hi] in floating point, and q = 1.
               must yield the tracked max. *)
          else begin
            let frac = float_of_int (rank - cum) /. float_of_int n in
            Float.min s.max (lo +. ((hi -. lo) *. frac))
          end
        end
        else walk (if le = infinity then lo else le) (cum + n) rest
    in
    walk 0. 0 s.buckets
  end

let name t = t.name

let all () =
  Mutex.lock mu;
  let hs = !registered in
  Mutex.unlock mu;
  List.sort (fun a b -> String.compare a.name b.name) hs
