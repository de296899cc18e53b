(* splitmix64: tiny, fast, and statistically fine for simulation use.
   Not a cryptographic RNG — key material in tests is derived through
   SHA-256 of its output, which is all the determinism we need. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let of_hash h =
  let raw = Hash.to_raw h in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code raw.[i]))
  done;
  { state = !acc }

let next64 t =
  t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Pure per-task derivation: the parent is NOT advanced, so any number
   of domains can derive their streams from a shared parent value
   without synchronization. Mixing (state + (i+1)·golden) through the
   splitmix64 finalizer decorrelates sibling streams. *)
let derive t i =
  let finalize z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  {
    state =
      finalize
        (Int64.add t.state
           (Int64.mul (Int64.of_int (i + 1)) 0x9e3779b97f4a7c15L));
  }

let int64_nonneg t = Int64.logand (next64 t) Int64.max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  Int64.to_int (Int64.rem (int64_nonneg t) (Int64.of_int bound))

let bool t = Int64.logand (next64 t) 1L = 1L

let bytes t n =
  String.init n (fun _ -> Char.chr (Int64.to_int (Int64.logand (next64 t) 0xffL)))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
