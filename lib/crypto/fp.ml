(* F_p for p = 2^61 - 1. An OCaml int has 63 bits (max_int = 2^62 - 1),
   so a canonical element (< 2^61) fits with room to add two of them.
   A product splits each operand into a 30-bit high and a 31-bit low
   half, a = a1*2^31 + a0, and uses 2^61 ≡ 1 (mod p):

     a*b ≡ 2*a1*b1 + (mid mod 2^30)*2^31 + (mid >> 30) + a0*b0,
     mid = a1*b0 + a0*b1.

   With a1, b1 ≤ 2^30 - 1 and a0, b0 ≤ 2^31 - 1 every term and partial
   sum stays below 2^62: 2*a1*b1 + (mid mod 2^30)*2^31 < 2^61 + 2^61,
   a0*b0 < 2^62 and mid < 2^62. [mul] folds those two sums once each
   (each fold ≤ 2^61 - 1), folds their sum (< 2^62) once more
   (≤ 2^61 - 1), adds mid >> 30 (< 2^32) and so lands below 2p: one
   conditional subtraction makes it canonical. *)

type t = int

let p = (1 lsl 61) - 1
let zero = 0
let one = 1
let two = 2

(* Fold a value < 2^63 into [0, 2^62): x = hi*2^61 + lo ≡ hi + lo. *)
let[@inline] fold62 x = (x land p) + (x lsr 61)

let reduce x =
  let x = fold62 x in
  let x = fold62 x in
  if x >= p then x - p else x

let of_int n =
  let r = n mod p in
  if r < 0 then r + p else r

let to_int x = x

let of_bytes_le s =
  let n = min 8 (String.length s) in
  let acc = ref 0 in
  for i = n - 1 downto 0 do
    acc := ((!acc lsl 8) lor Char.code s.[i]) land max_int
  done;
  reduce !acc

let equal (a : int) b = a = b
let is_zero a = a = 0

let[@inline] add a b =
  let s = a + b in
  if s >= p then s - p else s

let[@inline] sub a b = if a >= b then a - b else a + p - b
let[@inline] neg a = if a = 0 then 0 else p - a

let[@inline] mul a b =
  let a1 = a lsr 31 and a0 = a land 0x7fffffff in
  let b1 = b lsr 31 and b0 = b land 0x7fffffff in
  let mid = (a1 * b0) + (a0 * b1) in
  let hi = fold62 ((2 * a1 * b1) + ((mid land 0x3fffffff) lsl 31)) in
  let lo = fold62 (a0 * b0) in
  let r = fold62 (hi + lo) + (mid lsr 30) in
  if r >= p then r - p else r

let[@inline] sq a = mul a a

let pow a e =
  if e < 0 then invalid_arg "Fp.pow: negative exponent";
  let rec go acc a e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc a) (sq a) (e lsr 1)
    else go acc (sq a) (e lsr 1)
  in
  go one a e

let inv a =
  if a = 0 then raise Division_by_zero;
  pow a (p - 2)

let to_string = string_of_int
