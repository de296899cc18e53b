let width = 3
let rounds_full = 8
let rounds_partial = 22
let rounds_total = rounds_full + rounds_partial

(* Round constants and MDS entries are drawn from a SHA-256 counter
   stream under distinct domain tags (a "nothing-up-my-sleeve"
   derivation; see DESIGN.md §3 on parameter provenance). *)
let field_stream tag count =
  Array.init count (fun i ->
      Fp.of_bytes_le (Sha256.digest (Printf.sprintf "zendoo.poseidon.%s.%d" tag i)))

let round_constants = field_stream "arc" (rounds_total * width)

let mds =
  (* A Cauchy matrix 1/(x_i + y_j) over distinct x, y is invertible and
     MDS; build one from small fixed coordinates. *)
  let x = [| Fp.of_int 1; Fp.of_int 2; Fp.of_int 3 |] in
  let y = [| Fp.of_int 4; Fp.of_int 5; Fp.of_int 6 |] in
  Array.init width (fun i ->
      Array.init width (fun j -> Fp.inv (Fp.add x.(i) y.(j))))

(* The MDS entries as nine let-bound constants for the unrolled core. *)
let m00 = mds.(0).(0) and m01 = mds.(0).(1) and m02 = mds.(0).(2)
let m10 = mds.(1).(0) and m11 = mds.(1).(1) and m12 = mds.(1).(2)
let m20 = mds.(2).(0) and m21 = mds.(2).(1) and m22 = mds.(2).(2)

(* x^17 via 4 squarings and one multiply. *)
let[@inline] sbox x =
  let x2 = Fp.sq x in
  let x4 = Fp.sq x2 in
  let x8 = Fp.sq x4 in
  let x16 = Fp.sq x8 in
  Fp.mul x16 x

let permutations = Zen_obs.Counter.make "crypto.poseidon.permutations"

let half_full = rounds_full / 2

(* The permutation, unrolled over the three lanes and allocation-free:
   the lanes live in local variables (refs that never escape compile to
   registers). Returns lane 0; lanes 1 and 2 are stored into [out] when
   it has width 3, and dropped when it is empty (a caller that only
   reads lane 0 passes [[||]]). Uncounted: each native caller counts
   its own permutations. *)
let core out s0 s1 s2 =
  let s0 = ref s0 and s1 = ref s1 and s2 = ref s2 in
  for r = 0 to rounds_total - 1 do
    let k = r * width in
    let a = Fp.add !s0 (Array.unsafe_get round_constants k)
    and b = Fp.add !s1 (Array.unsafe_get round_constants (k + 1))
    and c = Fp.add !s2 (Array.unsafe_get round_constants (k + 2)) in
    let full = r < half_full || r >= half_full + rounds_partial in
    let a = sbox a in
    let b = if full then sbox b else b in
    let c = if full then sbox c else c in
    s0 := Fp.add (Fp.add (Fp.mul m00 a) (Fp.mul m01 b)) (Fp.mul m02 c);
    s1 := Fp.add (Fp.add (Fp.mul m10 a) (Fp.mul m11 b)) (Fp.mul m12 c);
    s2 := Fp.add (Fp.add (Fp.mul m20 a) (Fp.mul m21 b)) (Fp.mul m22 c)
  done;
  if Array.length out = width then begin
    out.(1) <- !s1;
    out.(2) <- !s2
  end;
  !s0

let permute_uncounted input =
  if Array.length input <> width then invalid_arg "Poseidon.permute: width 3";
  let out = Array.make width Fp.zero in
  out.(0) <- core out input.(0) input.(1) input.(2);
  out

let permute input =
  let out = permute_uncounted input in
  Zen_obs.Counter.incr permutations;
  out

let hash2 a b =
  Zen_obs.Counter.incr permutations;
  core [||] a b Fp.two (* domain: 2-to-1 *)

let hash_list fields =
  (* Sponge with rate 2: absorb two elements per permutation; the
     capacity lane is initialized with the message length for
     domain separation between lengths. *)
  let fields = Array.of_list fields in
  let n = Array.length fields in
  let state = [| Fp.zero; Fp.zero; Fp.of_int (n + 3) |] in
  if n = 0 then begin
    Zen_obs.Counter.incr permutations;
    core [||] Fp.zero Fp.zero state.(2)
  end
  else begin
    let i = ref 0 in
    while !i < n do
      Zen_obs.Counter.incr permutations;
      let s0 = Fp.add state.(0) fields.(!i) in
      let s1 = if !i + 1 < n then Fp.add state.(1) fields.(!i + 1) else state.(1) in
      state.(0) <- core state s0 s1 state.(2);
      i := !i + 2
    done;
    state.(0)
  end
