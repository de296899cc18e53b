(* secp256k1: y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977, on a
   dedicated field layer in the style of libsecp256k1's 10x26 field
   (https://github.com/bitcoin-core/secp256k1, field_10x26_impl.h,
   ecmult_gen, ecmult). Nothing here is constant-time: branches and
   table lookups depend on secret scalars. This is a simulation, and
   side channels are out of scope.

   Field elements are ten limbs of 26 bits in OCaml ints, value
   sum a_i * 2^(26 i). Every operation leaves its result "loose":
   limbs 0..8 below 2^28, limb 9 below 2^22, so the value is below
   2^256 + 2^237 but not necessarily below p. With such inputs every
   product a_i * b_j is below 2^56 and a column of ten is below
   2^59.4, so a whole schoolbook column, plus the carry into it, fits
   the 63-bit int (max_int = 2^62 - 1). Limbs allowed to reach 2^29
   would push a column past 2^61 and the folds below past 2^62.

   A product's nineteen columns are carried into 26-bit digits
   t0..t19, then the upper ten fold down with
   2^260 ≡ 0x1000003D10 = 0x3D10 + 0x400 * 2^26 (mod p): t_{i+10} adds
   t_{i+10} * 0x3D10 to digit i and t_{i+10} * 0x400 to digit i+1. The
   folded digits are below 2^43; one more carry pass leaves bits
   256.. as hi < 2^22, and 2^256 ≡ 0x1000003D1 = 977 + 2^6 * 2^26
   folds hi into limbs 0 and 1 (limb 1 stays below 2^28). [normalize]
   makes a value canonical (< p) for encoding and comparison.

   Curve points outside this module are affine with canonical
   coordinates, so [encode] and [equal] need no inversion. Scalar
   multiplication runs on Jacobian accumulators (x = X/Z^2,
   y = Y/Z^3) in a per-call workspace, with doubling for a = 0 and
   mixed Jacobian+affine addition, and converts back with one
   inversion.

   Variable-base multiplication ([mul], [sg_minus_ep_eq]) uses
   secp256k1's endomorphism: λ·(x, y) = (β x, y) for cube roots of
   unity λ mod n and β mod p, so e·P = e1·P + e2·(λ P) with e1, e2
   below 2^128 up to sign (GLV, libsecp256k1's scalar_split_lambda),
   and s·G = s_lo·G + s_hi·(2^128 G) from the fixed-base table's
   windows 0 and 32. Four 129-digit streams share 129 doublings. *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

module Field = struct
  type t = int array

  let m = 0x3ffffff
  let create () = Array.make 10 0

  (* 16p limb by limb: every limb exceeds the loose bound of the
     subtrahend, so [sub] stays non-negative. *)
  let p16_0 = 16 * 0x3fffc2f
  let p16_1 = 16 * 0x3ffffbf
  let p16_m = 16 * m
  let p16_9 = 16 * 0x3fffff

  (* Carry t0..t9 (each non-negative and well below 2^62) into loose
     limbs of [r], folding bits 256.. back with 2^256 ≡ 0x1000003D1. *)
  let[@inline] carry_store r t0 t1 t2 t3 t4 t5 t6 t7 t8 t9 =
    let c = t0 in
    let r0 = c land m in
    let c = t1 + (c lsr 26) in
    let r1 = c land m in
    let c = t2 + (c lsr 26) in
    r.(2) <- c land m;
    let c = t3 + (c lsr 26) in
    r.(3) <- c land m;
    let c = t4 + (c lsr 26) in
    r.(4) <- c land m;
    let c = t5 + (c lsr 26) in
    r.(5) <- c land m;
    let c = t6 + (c lsr 26) in
    r.(6) <- c land m;
    let c = t7 + (c lsr 26) in
    r.(7) <- c land m;
    let c = t8 + (c lsr 26) in
    r.(8) <- c land m;
    let c = t9 + (c lsr 26) in
    r.(9) <- c land 0x3fffff;
    let hi = c lsr 22 in
    let c0 = r0 + (hi * 0x3d1) in
    r.(0) <- c0 land m;
    r.(1) <- r1 + (hi lsl 6) + (c0 lsr 26)

  (* Carry nineteen product columns into digits t0..t19, fold the
     upper ten (see the header), and store. *)
  let[@inline] reduce_store r c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13
      c14 c15 c16 c17 c18 =
    let t0 = c0 land m in
    let c = c1 + (c0 lsr 26) in
    let t1 = c land m in
    let c = c2 + (c lsr 26) in
    let t2 = c land m in
    let c = c3 + (c lsr 26) in
    let t3 = c land m in
    let c = c4 + (c lsr 26) in
    let t4 = c land m in
    let c = c5 + (c lsr 26) in
    let t5 = c land m in
    let c = c6 + (c lsr 26) in
    let t6 = c land m in
    let c = c7 + (c lsr 26) in
    let t7 = c land m in
    let c = c8 + (c lsr 26) in
    let t8 = c land m in
    let c = c9 + (c lsr 26) in
    let t9 = c land m in
    let c = c10 + (c lsr 26) in
    let t10 = c land m in
    let c = c11 + (c lsr 26) in
    let t11 = c land m in
    let c = c12 + (c lsr 26) in
    let t12 = c land m in
    let c = c13 + (c lsr 26) in
    let t13 = c land m in
    let c = c14 + (c lsr 26) in
    let t14 = c land m in
    let c = c15 + (c lsr 26) in
    let t15 = c land m in
    let c = c16 + (c lsr 26) in
    let t16 = c land m in
    let c = c17 + (c lsr 26) in
    let t17 = c land m in
    let c = c18 + (c lsr 26) in
    let t18 = c land m in
    let t19 = c lsr 26 in
    (* t19 * 0x400 lands on digit 10 and folds once more:
       0x400 * 0x3D10 = 0xF44000 to digit 0, 0x400 * 0x400 to digit 1. *)
    carry_store r
      (t0 + (t10 * 0x3d10) + (t19 * 0xf44000))
      (t1 + (t11 * 0x3d10) + (t10 * 0x400) + (t19 * 0x100000))
      (t2 + (t12 * 0x3d10) + (t11 * 0x400))
      (t3 + (t13 * 0x3d10) + (t12 * 0x400))
      (t4 + (t14 * 0x3d10) + (t13 * 0x400))
      (t5 + (t15 * 0x3d10) + (t14 * 0x400))
      (t6 + (t16 * 0x3d10) + (t15 * 0x400))
      (t7 + (t17 * 0x3d10) + (t16 * 0x400))
      (t8 + (t18 * 0x3d10) + (t17 * 0x400))
      (t9 + (t19 * 0x3d10) + (t18 * 0x400))

  let mul r a b =
    let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3)
    and a4 = a.(4) and a5 = a.(5) and a6 = a.(6) and a7 = a.(7)
    and a8 = a.(8) and a9 = a.(9) in
    let b0 = b.(0) and b1 = b.(1) and b2 = b.(2) and b3 = b.(3)
    and b4 = b.(4) and b5 = b.(5) and b6 = b.(6) and b7 = b.(7)
    and b8 = b.(8) and b9 = b.(9) in
    reduce_store r (a0 * b0)
      ((a0 * b1) + (a1 * b0))
      ((a0 * b2) + (a1 * b1) + (a2 * b0))
      ((a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0))
      ((a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0))
      ((a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0))
      ((a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1)
     + (a6 * b0))
      ((a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2)
     + (a6 * b1) + (a7 * b0))
      ((a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3)
     + (a6 * b2) + (a7 * b1) + (a8 * b0))
      ((a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4)
     + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0))
      ((a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4)
     + (a7 * b3) + (a8 * b2) + (a9 * b1))
      ((a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4)
     + (a8 * b3) + (a9 * b2))
      ((a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4)
     + (a9 * b3))
      ((a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4))
      ((a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5))
      ((a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6))
      ((a7 * b9) + (a8 * b8) + (a9 * b7))
      ((a8 * b9) + (a9 * b8))
      (a9 * b9)

  (* Cross terms once, against doubled limbs d_i = 2 a_i (< 2^29). *)
  let sq r a =
    let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3)
    and a4 = a.(4) and a5 = a.(5) and a6 = a.(6) and a7 = a.(7)
    and a8 = a.(8) and a9 = a.(9) in
    let d0 = 2 * a0 and d1 = 2 * a1 and d2 = 2 * a2 and d3 = 2 * a3
    and d4 = 2 * a4 and d5 = 2 * a5 and d6 = 2 * a6 and d7 = 2 * a7
    and d8 = 2 * a8 in
    reduce_store r (a0 * a0) (d0 * a1)
      ((d0 * a2) + (a1 * a1))
      ((d0 * a3) + (d1 * a2))
      ((d0 * a4) + (d1 * a3) + (a2 * a2))
      ((d0 * a5) + (d1 * a4) + (d2 * a3))
      ((d0 * a6) + (d1 * a5) + (d2 * a4) + (a3 * a3))
      ((d0 * a7) + (d1 * a6) + (d2 * a5) + (d3 * a4))
      ((d0 * a8) + (d1 * a7) + (d2 * a6) + (d3 * a5) + (a4 * a4))
      ((d0 * a9) + (d1 * a8) + (d2 * a7) + (d3 * a6) + (d4 * a5))
      ((d1 * a9) + (d2 * a8) + (d3 * a7) + (d4 * a6) + (a5 * a5))
      ((d2 * a9) + (d3 * a8) + (d4 * a7) + (d5 * a6))
      ((d3 * a9) + (d4 * a8) + (d5 * a7) + (a6 * a6))
      ((d4 * a9) + (d5 * a8) + (d6 * a7))
      ((d5 * a9) + (d6 * a8) + (a7 * a7))
      ((d6 * a9) + (d7 * a8))
      ((d7 * a9) + (a8 * a8))
      (d8 * a9) (a9 * a9)

  let add r a b =
    carry_store r
      (a.(0) + b.(0)) (a.(1) + b.(1)) (a.(2) + b.(2)) (a.(3) + b.(3))
      (a.(4) + b.(4)) (a.(5) + b.(5)) (a.(6) + b.(6)) (a.(7) + b.(7))
      (a.(8) + b.(8)) (a.(9) + b.(9))

  let sub r a b =
    carry_store r
      (a.(0) + p16_0 - b.(0))
      (a.(1) + p16_1 - b.(1))
      (a.(2) + p16_m - b.(2))
      (a.(3) + p16_m - b.(3))
      (a.(4) + p16_m - b.(4))
      (a.(5) + p16_m - b.(5))
      (a.(6) + p16_m - b.(6))
      (a.(7) + p16_m - b.(7))
      (a.(8) + p16_m - b.(8))
      (a.(9) + p16_9 - b.(9))

  (* r := k (a - b - c) and r := a - k b, for the doubling's k = 2 and
     k = 8: 2 * 16p and k * 16p exceed what they subtract, and the
     limbs stay below 2^34. *)
  let sub2_mul r a b c k =
    carry_store r
      (k * (a.(0) + (2 * p16_0) - b.(0) - c.(0)))
      (k * (a.(1) + (2 * p16_1) - b.(1) - c.(1)))
      (k * (a.(2) + (2 * p16_m) - b.(2) - c.(2)))
      (k * (a.(3) + (2 * p16_m) - b.(3) - c.(3)))
      (k * (a.(4) + (2 * p16_m) - b.(4) - c.(4)))
      (k * (a.(5) + (2 * p16_m) - b.(5) - c.(5)))
      (k * (a.(6) + (2 * p16_m) - b.(6) - c.(6)))
      (k * (a.(7) + (2 * p16_m) - b.(7) - c.(7)))
      (k * (a.(8) + (2 * p16_m) - b.(8) - c.(8)))
      (k * (a.(9) + (2 * p16_9) - b.(9) - c.(9)))

  let sub_mul r a b k =
    carry_store r
      (a.(0) + (k * (p16_0 - b.(0))))
      (a.(1) + (k * (p16_1 - b.(1))))
      (a.(2) + (k * (p16_m - b.(2))))
      (a.(3) + (k * (p16_m - b.(3))))
      (a.(4) + (k * (p16_m - b.(4))))
      (a.(5) + (k * (p16_m - b.(5))))
      (a.(6) + (k * (p16_m - b.(6))))
      (a.(7) + (k * (p16_m - b.(7))))
      (a.(8) + (k * (p16_m - b.(8))))
      (a.(9) + (k * (p16_9 - b.(9))))

  (* [k] is a small constant (2 or 3): limbs stay below 2^30. *)
  let mul_int r a k =
    carry_store r (a.(0) * k) (a.(1) * k) (a.(2) * k) (a.(3) * k)
      (a.(4) * k) (a.(5) * k) (a.(6) * k) (a.(7) * k) (a.(8) * k)
      (a.(9) * k)

  let neg r a =
    carry_store r (p16_0 - a.(0)) (p16_1 - a.(1)) (p16_m - a.(2))
      (p16_m - a.(3)) (p16_m - a.(4)) (p16_m - a.(5)) (p16_m - a.(6))
      (p16_m - a.(7)) (p16_m - a.(8)) (p16_9 - a.(9))

  let set r a = Array.blit a 0 r 0 10

  (* Exact 26-bit digits in r.(0..8); bits 234.. stay in r.(9). *)
  let carry_exact r =
    for i = 0 to 8 do
      r.(i + 1) <- r.(i + 1) + (r.(i) lsr 26);
      r.(i) <- r.(i) land m
    done

  let ge_p r =
    r.(9) > 0x3fffff
    || r.(9) = 0x3fffff
       && r.(8) = m && r.(7) = m && r.(6) = m && r.(5) = m && r.(4) = m
       && r.(3) = m && r.(2) = m
       && (r.(1) > 0x3ffffbf || (r.(1) = 0x3ffffbf && r.(0) >= 0x3fffc2f))

  (* In place to the canonical representative: a loose value is below
     2^256 + 2^237, so after one fold it is below 2^256 + 2^33 < 2p and
     at most one subtraction of p remains. *)
  let normalize r =
    carry_exact r;
    let hi = r.(9) lsr 22 in
    r.(9) <- r.(9) land 0x3fffff;
    r.(0) <- r.(0) + (hi * 0x3d1);
    r.(1) <- r.(1) + (hi lsl 6);
    carry_exact r;
    if ge_p r then begin
      (* value - p = value + 0x1000003D1 - 2^256 *)
      r.(0) <- r.(0) + 0x3d1;
      r.(1) <- r.(1) + 0x40;
      carry_exact r;
      r.(9) <- r.(9) land 0x3fffff
    end

  (* Whether [a] ≡ 0, using [tmp] as scratch. *)
  let is_zero ~tmp a =
    set tmp a;
    normalize tmp;
    Array.for_all (fun l -> l = 0) tmp

  let equal ~tmp a b =
    sub tmp a b;
    is_zero ~tmp tmp

  let sqn r k =
    for _ = 1 to k do
      sq r r
    done

  (* a^(p-2) with libsecp256k1's addition chain: p - 2 is 223 ones, a
     zero, 22 ones, then 0000101101; x_k = a^(2^k - 1). *)
  let inv r a =
    let a = Array.copy a in
    let x2 = create () and x3 = create () and x22 = create ()
    and x44 = create () and t = create () in
    sq x2 a;
    mul x2 x2 a;
    sq x3 x2;
    mul x3 x3 a;
    set t x3;
    sqn t 3;
    mul t t x3;
    (* t = x6 *)
    sqn t 3;
    mul t t x3;
    (* t = x9 *)
    sqn t 2;
    mul t t x2;
    (* t = x11 *)
    set x22 t;
    sqn x22 11;
    mul x22 x22 t;
    set x44 x22;
    sqn x44 22;
    mul x44 x44 x22;
    set t x44;
    sqn t 44;
    mul t t x44;
    (* t = x88 *)
    let x88 = Array.copy t in
    sqn t 88;
    mul t t x88;
    (* t = x176 *)
    sqn t 44;
    mul t t x44;
    (* t = x220 *)
    sqn t 3;
    mul t t x3;
    (* t = x223 *)
    sqn t 23;
    mul t t x22;
    sqn t 5;
    mul t t a;
    sqn t 3;
    mul t t x2;
    sqn t 2;
    mul r t a

  (* 32 big-endian bytes at [off] (a value below 2^256) into limbs. *)
  let load_bytes r s off =
    let acc = ref 0 and nbits = ref 0 and li = ref 0 in
    for j = 31 downto 0 do
      acc := !acc lor (Char.code s.[off + j] lsl !nbits);
      nbits := !nbits + 8;
      if !nbits >= 26 then begin
        r.(!li) <- !acc land m;
        acc := !acc lsr 26;
        nbits := !nbits - 26;
        incr li
      end
    done;
    r.(9) <- !acc

  (* Canonical limbs into 32 big-endian bytes at [off]. *)
  let store_bytes b off a =
    let acc = ref 0 and nbits = ref 0 and li = ref 0 in
    for j = 31 downto 0 do
      if !nbits < 8 then begin
        acc := !acc lor (a.(!li) lsl !nbits);
        nbits := !nbits + 26;
        incr li
      end;
      Bytes.set b (off + j) (Char.chr (!acc land 0xff));
      acc := !acc lsr 8;
      nbits := !nbits - 8
    done

  let of_bytes s =
    let r = create () in
    load_bytes r s 0;
    r

  let to_bytes a =
    let r = Array.copy a in
    normalize r;
    let b = Bytes.create 32 in
    store_bytes b 0 r;
    Bytes.unsafe_to_string b

  let of_limbs l =
    if Array.length l <> 10
       || Array.exists (fun x -> x < 0 || x >= 1 lsl 28) l
       || l.(9) > 0x3fffff
    then invalid_arg "Ec.Field.of_limbs: outside the loose bound";
    Array.copy l
end

module F = Field

(* ---- scalars mod n ---- *)

(* A scalar is its 32 big-endian bytes, always below the group order n.
   Arithmetic runs on sixteen-bit digits, little-endian, so bit 256
   starts digit 16 and a column of digit products stays far below the
   63-bit int (libsecp256k1's scalar_8x32 uses 32-bit digits, whose
   products would not fit). Reduction follows its scalar_reduce_512:
   the digits above 2^256 fold back with
   2^256 ≡ n_c = 2^256 - n (mod n), a 129-bit constant, so each fold
   takes about 127 bits off a wide value, and once it is below
   2^256 < 2n at most one subtraction of n remains. *)
module Scalar = struct
  type t = string

  let digits s =
    Array.init 16 (fun i ->
        Char.code s.[31 - (2 * i)] lor (Char.code s.[30 - (2 * i)] lsl 8))

  let of_digits d =
    String.init 32 (fun j ->
        Char.chr ((d.((31 - j) / 2) lsr (8 * (1 - (j land 1)))) land 0xff))

  let n =
    digits
      (of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")

  let half_n =
    digits
      (of_hex "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0")

  (* 2^256 - n = 0x1_45512319_50b75fc4_402da173_2fc9bebf, low digit first. *)
  let n_c = [| 0xbebf; 0x2fc9; 0xa173; 0x402d; 0x5fc4; 0x50b7; 0x2319; 0x4551; 1 |]

  (* a ≥ b, and a - b for a ≥ b, on sixteen exact digits. *)
  let geq a b =
    let rec go i = i < 0 || a.(i) > b.(i) || (a.(i) = b.(i) && go (i - 1)) in
    go 15

  let sub a b =
    let borrow = ref 0 in
    Array.init 16 (fun i ->
        let d = a.(i) - b.(i) - !borrow in
        borrow := if d < 0 then 1 else 0;
        d land 0xffff)

  (* Non-negative digit sums (at least sixteen, with room for the
     carries) mod n. A fold writes lo + hi * n_c, which is below
     2^256 + 2^(16 (len - 7) - 15), into max (len - 7) 16 + 1 digits. *)
  let rec reduce_digits t =
    let len = Array.length t in
    for i = 0 to len - 2 do
      t.(i + 1) <- t.(i + 1) + (t.(i) lsr 16);
      t.(i) <- t.(i) land 0xffff
    done;
    let rec high_zero i = i >= len || (t.(i) = 0 && high_zero (i + 1)) in
    if high_zero 16 then begin
      let r = Array.sub t 0 16 in
      of_digits (if geq r n then sub r n else r)
    end
    else begin
      let r = Array.make (max (len - 7) 16 + 1) 0 in
      Array.blit t 0 r 0 16;
      for i = 16 to len - 1 do
        for j = 0 to 8 do
          r.(i - 16 + j) <- r.(i - 16 + j) + (t.(i) * n_c.(j))
        done
      done;
      reduce_digits r
    end

  let reduce s =
    if String.length s <> 32 then invalid_arg "Ec.Scalar.reduce: not 32 bytes";
    reduce_digits (digits s)

  let of_bytes s =
    if String.length s = 32 && not (geq (digits s) n) then Some s else None

  let to_bytes s = s
  let zero = String.make 32 '\000'
  let is_zero = String.equal zero

  let add a b =
    let a = digits a and b = digits b in
    reduce_digits (Array.init 17 (fun i -> if i < 16 then a.(i) + b.(i) else 0))

  let mul a b =
    let a = digits a and b = digits b in
    let t = Array.make 32 0 in
    for i = 0 to 15 do
      for j = 0 to 15 do
        t.(i + j) <- t.(i + j) + (a.(i) * b.(j))
      done
    done;
    reduce_digits t

  (* Above n/2, and n - s for s ≠ 0: [mul_g]'s flip. *)
  let is_high s = not (geq half_n (digits s))
  let neg s = of_digits (sub n (digits s))

  (* The GLV split (libsecp256k1's scalar_split_lambda, after Hankerson,
     Menezes and Vanstone, Alg. 3.74). λ is a cube root of unity mod n,
     and the lattice {(a, b) : a + λ b ≡ 0} has the short basis
     (a1, b1), (a2, b2) with a1 = b2 = 0x3086d221a7d46bcde86c90e49284eb15,
     b1 = -0xe4437ed6010e88286f547fa90abfe4c3 and
     a2 = 0x114ca50f7a8e2f3f657c1108d9d44cfd8 (a1 b2 - a2 b1 = n). With
     c1 = round(b2 k / n) and c2 = round(-b1 k / n),
     k2 = -(c1 b1 + c2 b2) and k1 = k - λ k2 are congruent to the
     closest-vector split, so k1 and k2 or their negations are below
     2^128. The divisions by n are multiplications by
     g1 = round(2^384 b2 / n) and g2 = round(2^384 (-b1) / n) and a
     rounded shift by 384 bits. *)
  let lambda =
    of_hex "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"

  let g1 =
    digits
      (of_hex "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031")

  let g2 =
    digits
      (of_hex "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71")

  let minus_b1 =
    of_hex "00000000000000000000000000000000e4437ed6010e88286f547fa90abfe4c3"

  let minus_b2 =
    of_hex "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"

  (* round(k g / 2^384): digits 24..31 of the product plus bit 383. *)
  let mul_shift_384 k g =
    let t = Array.make 32 0 in
    for i = 0 to 15 do
      for j = 0 to 15 do
        t.(i + j) <- t.(i + j) + (k.(i) * g.(j))
      done
    done;
    for i = 0 to 30 do
      t.(i + 1) <- t.(i + 1) + (t.(i) lsr 16);
      t.(i) <- t.(i) land 0xffff
    done;
    let r = Array.make 16 0 in
    Array.blit t 24 r 0 8;
    r.(0) <- r.(0) + (t.(23) lsr 15);
    reduce_digits r

  let minus a b = if is_zero b then a else add a (neg b)

  let split_lambda k =
    let kd = digits k in
    let k2 =
      add
        (mul (mul_shift_384 kd g1) minus_b1)
        (mul (mul_shift_384 kd g2) minus_b2)
    in
    (minus k (mul k2 lambda), k2)
end

(* An affine point: canonical x limbs then canonical y limbs. *)
type point = Infinity | Affine of int array

let infinity = Infinity
let is_infinity = function Infinity -> true | Affine _ -> false

let equal p1 p2 =
  match (p1, p2) with
  | Infinity, Infinity -> true
  | Affine a, Affine b -> a = b
  | _ -> false

let seven = F.of_limbs [| 7; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]

(* Canonical x, y on the curve: y^2 = x^3 + 7. *)
let curve_eq x y =
  let l = F.create () and r = F.create () in
  F.sq l y;
  F.sq r x;
  F.mul r r x;
  F.add r r seven;
  F.equal ~tmp:(F.create ()) l r

let of_fields x y =
  let a = Array.make 20 0 in
  Array.blit x 0 a 0 10;
  Array.blit y 0 a 10 10;
  Affine a

let coords a =
  (Array.sub a 0 10, Array.sub a 10 10)

let neg = function
  | Infinity -> Infinity
  | Affine a ->
    let x, y = coords a in
    F.neg y y;
    F.normalize y;
    of_fields x y

let encode = function
  | Infinity -> "\000"
  | Affine a ->
    let b = Bytes.create 65 in
    Bytes.set b 0 '\004';
    F.store_bytes b 1 (Array.sub a 0 10);
    F.store_bytes b 33 (Array.sub a 10 10);
    Bytes.unsafe_to_string b

let decode s =
  if String.equal s "\000" then Some Infinity
  else if String.length s = 65 && s.[0] = '\004' then begin
    let x = F.create () and y = F.create () in
    F.load_bytes x s 1;
    F.load_bytes y s 33;
    if F.ge_p x || F.ge_p y || not (curve_eq x y) then None
    else Some (of_fields x y)
  end
  else None

let g =
  let x = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
  and y = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8" in
  Option.get (decode (of_hex ("04" ^ x ^ y)))

(* ---- Jacobian arithmetic on a per-call workspace ---- *)

type jac = { x : F.t; y : F.t; z : F.t; mutable inf : bool }

let jac () = { x = F.create (); y = F.create (); z = F.create (); inf = true }

type ws = {
  acc : jac;
  t0 : F.t; t1 : F.t; t2 : F.t; t3 : F.t; t4 : F.t; t5 : F.t; t6 : F.t;
  t7 : F.t;
  ax : F.t; ay : F.t;  (* the affine addend *)
}

let workspace () =
  let f = F.create in
  {
    acc = jac ();
    t0 = f (); t1 = f (); t2 = f (); t3 = f (); t4 = f (); t5 = f ();
    t6 = f (); t7 = f ();
    ax = f (); ay = f ();
  }

let one = F.of_limbs [| 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]

let jac_set_affine j x y =
  F.set j.x x;
  F.set j.y y;
  F.set j.z one;
  j.inf <- false

let jac_of_affine j a =
  let x, y = coords a in
  jac_set_affine j x y

let set_addend ws a =
  Array.blit a 0 ws.ax 0 10;
  Array.blit a 10 ws.ay 0 10

let jac_copy dst src =
  F.set dst.x src.x;
  F.set dst.y src.y;
  F.set dst.z src.z;
  dst.inf <- src.inf

(* j := 2j (dbl-2009-l, a = 0). secp256k1 has no point of order two,
   so y = 0 never occurs on a finite point. *)
let double ws j =
  if not j.inf then begin
    let a = ws.t0 and b = ws.t1 and c = ws.t2 and d = ws.t3 and e = ws.t4
    and f = ws.t5 and u = ws.t6 in
    F.sq a j.x;
    F.sq b j.y;
    F.sq c b;
    F.add d j.x b;
    F.sq d d;
    F.sub2_mul d d a c 2;
    F.mul_int e a 3;
    F.sq f e;
    F.mul j.z j.y j.z;
    F.mul_int j.z j.z 2;
    F.sub_mul j.x f d 2;
    F.sub u d j.x;
    F.mul u e u;
    F.sub_mul j.y u c 8
  end

(* j := j + (ws.ax, ws.ay), the affine addend (libsecp256k1's
   gej_add_ge_var): 8M + 3S. A finite sum leaves h = z'/z, the ratio
   of the new z to the old, in ws.t3. *)
let add_affine ws j =
  if j.inf then jac_set_affine j ws.ax ws.ay
  else begin
    let z12 = ws.t0 and u2 = ws.t1 and s2 = ws.t2 and h = ws.t3
    and i = ws.t4 and h2 = ws.t5 and h3 = ws.t6 and t = ws.t7 in
    F.sq z12 j.z;
    F.mul u2 ws.ax z12;
    F.mul s2 ws.ay z12;
    F.mul s2 s2 j.z;
    F.sub h u2 j.x;
    F.sub i s2 j.y;
    if F.is_zero ~tmp:u2 h then begin
      if F.is_zero ~tmp:u2 i then double ws j else j.inf <- true
    end
    else begin
      F.sq h2 h;
      F.mul h3 h h2;
      F.mul j.z j.z h;
      F.mul t j.x h2;
      F.sq j.x i;
      F.sub j.x j.x h3;
      F.mul_int u2 t 2;
      F.sub j.x j.x u2;
      F.sub t t j.x;
      F.mul t i t;
      F.mul h3 h3 j.y;
      F.sub j.y t h3
    end
  end

(* j := j + q for a Jacobian q: 12M + 4S. *)
let add_jac ws j q =
  if q.inf then ()
  else if j.inf then jac_copy j q
  else begin
    let z22 = ws.t0 and z12 = ws.t1 and u1 = ws.t2 and u2 = ws.t3
    and s1 = ws.t4 and s2 = ws.t5 and h = ws.t6 and i = ws.t7 in
    F.sq z22 q.z;
    F.sq z12 j.z;
    F.mul u1 j.x z22;
    F.mul u2 q.x z12;
    F.mul s1 j.y z22;
    F.mul s1 s1 q.z;
    F.mul s2 q.y z12;
    F.mul s2 s2 j.z;
    F.sub h u2 u1;
    F.sub i s2 s1;
    if F.is_zero ~tmp:z22 h then begin
      if F.is_zero ~tmp:z22 i then double ws j else j.inf <- true
    end
    else begin
      let h2 = z22 and h3 = z12 and t = u2 in
      F.sq h2 h;
      F.mul h3 h h2;
      F.mul j.z j.z q.z;
      F.mul j.z j.z h;
      F.mul t u1 h2;
      F.sq j.x i;
      F.sub j.x j.x h3;
      F.mul_int u1 t 2;
      F.sub j.x j.x u1;
      F.sub t t j.x;
      F.mul t i t;
      F.mul h3 h3 s1;
      F.sub j.y t h3
    end
  end

let to_point ws j =
  if j.inf then Infinity
  else begin
    let zi = ws.t0 and zi2 = ws.t1 and x = F.create () and y = F.create () in
    F.inv zi j.z;
    F.sq zi2 zi;
    F.mul x j.x zi2;
    F.mul zi2 zi2 zi;
    F.mul y j.y zi2;
    F.normalize x;
    F.normalize y;
    of_fields x y
  end

(* ---- fixed base: 64 signed four-bit windows of multiples of G ---- *)

(* Entry (i, d), 1 <= d <= 8, is d * 16^i * G, affine, at
   ((8 i + d - 1) * 10): each coordinate packs its canonical limbs in
   pairs, l_2j + l_2j+1 * 2^26 (below 2^52), so the table is 5,120
   words. The odd entries of windows 0 and 32 double as the odd
   multiples of G and of 2^128 G that [strauss] adds. *)
let build_table () =
  let tbl = Array.make (64 * 8 * 10) 0 in
  let ws = workspace () in
  let pts = Array.init 8 (fun _ -> jac ()) in
  let base = jac () in
  (match g with
   | Affine a -> jac_of_affine base a
   | Infinity -> assert false);
  let prefix = Array.init 8 (fun _ -> F.create ()) in
  let inv = F.create () and zi = F.create () and zi2 = F.create () in
  let c = F.create () in
  let pack off a =
    for j = 0 to 4 do
      tbl.(off + j) <- a.(2 * j) lor (a.((2 * j) + 1) lsl 26)
    done
  in
  for w = 0 to 63 do
    jac_copy pts.(0) base;
    for d = 1 to 7 do
      jac_copy pts.(d) pts.(d - 1);
      add_jac ws pts.(d) base
    done;
    (* The next window's base: 16 * base = 2 * (8 * base). *)
    jac_copy base pts.(7);
    double ws base;
    (* Montgomery's trick: one inversion for the window's eight z. *)
    F.set prefix.(0) pts.(0).z;
    for d = 1 to 7 do
      F.mul prefix.(d) prefix.(d - 1) pts.(d).z
    done;
    F.inv inv prefix.(7);
    for d = 7 downto 0 do
      if d > 0 then begin
        F.mul zi inv prefix.(d - 1);
        F.mul inv inv pts.(d).z
      end
      else F.set zi inv;
      let off = ((8 * w) + d) * 10 in
      F.sq zi2 zi;
      F.mul c pts.(d).x zi2;
      F.normalize c;
      pack off c;
      F.mul zi2 zi2 zi;
      F.mul c pts.(d).y zi2;
      F.normalize c;
      pack (off + 5) c
    done
  done;
  tbl

(* Built once, on first use. Domains racing on the first use may each
   build it; the tables are equal and one wins. *)
let table_cell = Atomic.make None

let table () =
  match Atomic.get table_cell with
  | Some t -> t
  | None ->
    let t = build_table () in
    ignore (Atomic.compare_and_set table_cell None (Some t));
    t

(* Unpack entry [d * 16^i * G] (for [d] < 0, its negation) into the
   affine addend. *)
let load_entry ws tbl i d =
  let off = ((8 * i) + abs d - 1) * 10 in
  for j = 0 to 4 do
    let x = tbl.(off + j) and y = tbl.(off + 5 + j) in
    ws.ax.(2 * j) <- x land F.m;
    ws.ax.((2 * j) + 1) <- x lsr 26;
    ws.ay.(2 * j) <- y land F.m;
    ws.ay.((2 * j) + 1) <- y lsr 26
  done;
  if d < 0 then F.neg ws.ay ws.ay

(* Sixty-four signed digits in [-7, 8]. A scalar above n/2 is replaced
   by n - k with every digit negated, so the scalar is below 2^255, its
   top window is at most 7 and no carry leaves window 63. *)
let mul_g k =
  let flip = Scalar.is_high k in
  let kb = Scalar.to_bytes (if flip then Scalar.neg k else k) in
  let tbl = table () in
  let ws = workspace () in
  let carry = ref 0 in
  for i = 0 to 63 do
    let d = ((Char.code kb.[31 - (i lsr 1)] lsr (4 * (i land 1))) land 15) + !carry in
    carry := if d > 8 then 1 else 0;
    let d = d - (16 * !carry) in
    if d <> 0 then begin
      load_entry ws tbl i (if flip then -d else d);
      add_affine ws ws.acc
    end
  done;
  to_point ws ws.acc

(* ---- variable base: Strauss–Shamir over width-w NAFs, GLV split ---- *)

(* β, a cube root of unity mod p: λ·(x, y) = (β x, y) for every point,
   λ being [Scalar.lambda]. *)
let beta =
  F.of_bytes
    (of_hex "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee")

let kbit kb i = (Char.code kb.[31 - (i lsr 3)] lsr (i land 7)) land 1

(* The bit length of bits [lo, hi) of the big-endian [kb]. *)
let num_bits kb ~lo ~hi =
  let rec go i = if i < lo then 0 else if kbit kb i = 1 then i - lo + 1 else go (i - 1) in
  go (hi - 1)

(* Width-w NAF of bits [lo, hi) of the big-endian [kb] (libsecp256k1's
   ecmult_wnaf), negated with [neg]: [len] digits, each zero or odd in
   [-(2^(w-1) - 1), 2^(w-1) - 1]. [len] exceeds the value's bit length,
   which leaves room for the last carry. *)
let wnaf w ~len ?(neg = false) kb ~lo ~hi =
  let bit i = if lo + i >= hi then 0 else kbit kb (lo + i) in
  let out = Array.make len 0 in
  let carry = ref 0 and i = ref 0 in
  while !i < len do
    if bit !i = !carry then incr i
    else begin
      let now = min w (len - !i) in
      let word = ref 0 in
      for b = now - 1 downto 0 do
        word := (!word lsl 1) lor bit (!i + b)
      done;
      let word = !word + !carry in
      carry := (word lsr (w - 1)) land 1;
      let d = word - (!carry lsl w) in
      out.(!i) <- (if neg then -d else d);
      i := !i + now
    end
  done;
  out

(* A scalar below 2^128 up to sign, as (negated, magnitude bytes). *)
let signed k =
  if Scalar.is_high k then (true, Scalar.to_bytes (Scalar.neg k))
  else (false, Scalar.to_bytes k)

(* acc := acc + d * (xs, ys), an odd multiple of an iso-affine table
   (negated for d < 0; see [strauss]). *)
let add_entry ws acc xs ys d =
  if d <> 0 then begin
    F.set ws.ax xs.(abs d / 2);
    if d > 0 then F.set ws.ay ys.(d / 2) else F.neg ws.ay ys.(-d / 2);
    add_affine ws acc
  end

(* ws.acc := s * G + e * pt, the doublings shared. s splits at bit 128,
   s = s_lo + 2^128 s_hi, and e = e1 + λ e2 ([Scalar.split_lambda]), so
   four streams of at most 129 digits share 129 doublings where two
   256-bit ones needed 257. The loop runs one more step than the
   longest stream, so its length never rests on the split's bound.

   Every addition is mixed (libsecp256k1's "effective affine" ecmult):
   the width-5 e1 digits add pt's odd multiples 1..15 and the e2
   digits their images under λ, (β x, y); the width-4 s_lo digits add
   the odd multiples 1..7 of G (window 0 of the fixed-base table) and
   the s_hi digits those of 2^128 G (window 32). pt's multiples are
   built with a common Jacobian Z = zg. On the isomorphic curve
   y^2 = x^3 + 7 zg^6, where (X, Y, Z) stands for the secp256k1 point
   (X, Y, Z zg), they are affine; the G multiples become affine there
   as (x zg^2, y zg^3), and the addition formulas do not read the
   curve constant. The sum returns to secp256k1 with Z := Z zg. *)
let strauss ws ~s ~e pt =
  let sb = Scalar.to_bytes s in
  let e1, e2 = Scalar.split_lambda e in
  let neg1, e1 = signed e1 and neg2, e2 = signed e2 in
  let len =
    1
    + List.fold_left max 0
        [
          num_bits sb ~lo:0 ~hi:128;
          num_bits sb ~lo:128 ~hi:256;
          num_bits e1 ~lo:0 ~hi:256;
          num_bits e2 ~lo:0 ~hi:256;
        ]
  in
  let ns_lo = wnaf 4 ~len sb ~lo:0 ~hi:128
  and ns_hi = wnaf 4 ~len sb ~lo:128 ~hi:256 in
  let ne1 = wnaf 5 ~len ~neg:neg1 e1 ~lo:0 ~hi:256
  and ne2 = wnaf 5 ~len ~neg:neg2 e2 ~lo:0 ~hi:256 in
  let nonzero = Array.exists (fun d -> d <> 0) in
  let table8 () = Array.init 8 (fun _ -> F.create ()) in
  let px = table8 () and py = table8 () and pxl = table8 () in
  let zg = F.create () in
  (match pt with
   | Affine a when nonzero ne1 || nonzero ne2 ->
     (* d = 2 pt has z = c. On the isomorphic curve of c, d is affine
        (d.x, d.y) and pt is (x c^2, y c^3), so seven mixed additions
        of d give the odd multiples, each with its own z. *)
     let d = jac () and m = jac () in
     jac_of_affine d a;
     double ws d;
     let c2 = F.create () and c3 = F.create () in
     F.sq c2 d.z;
     F.mul c3 c2 d.z;
     jac_of_affine m a;
     F.mul m.x m.x c2;
     F.mul m.y m.y c3;
     F.set ws.ax d.x;
     F.set ws.ay d.y;
     let ratio = table8 () in
     F.set px.(0) m.x;
     F.set py.(0) m.y;
     for j = 1 to 7 do
       add_affine ws m;
       F.set ratio.(j) ws.t3;
       F.set px.(j) m.x;
       F.set py.(j) m.y
     done;
     (* Rescale multiple j to the last one's z: by zs = z_7 / z_j, the
        product of the ratios above j. Then zg = z_7 c. *)
     let zs = ratio.(7) and t = F.create () in
     for j = 6 downto 0 do
       if j < 6 then F.mul zs zs ratio.(j + 1);
       F.sq t zs;
       F.mul px.(j) px.(j) t;
       F.mul t t zs;
       F.mul py.(j) py.(j) t
     done;
     F.mul zg m.z d.z;
     Array.iteri (fun j x -> F.mul pxl.(j) x beta) px
   | _ ->
     F.set zg one;
     Array.fill ne1 0 len 0;
     Array.fill ne2 0 len 0);
  (* The odd multiples of G and of 2^128 G on the isomorphic curve. *)
  let gx = table8 () and gy = table8 () in
  if nonzero ns_lo || nonzero ns_hi then begin
    let tbl = table () in
    let z2 = F.create () and z3 = F.create () in
    F.sq z2 zg;
    F.mul z3 z2 zg;
    for k = 0 to 7 do
      load_entry ws tbl (if k < 4 then 0 else 32) ((2 * (k land 3)) + 1);
      F.mul gx.(k) ws.ax z2;
      F.mul gy.(k) ws.ay z3
    done
  end;
  let gx_hi = Array.sub gx 4 4 and gy_hi = Array.sub gy 4 4 in
  let acc = ws.acc in
  for i = len - 1 downto 0 do
    double ws acc;
    add_entry ws acc gx gy ns_lo.(i);
    add_entry ws acc gx_hi gy_hi ns_hi.(i);
    add_entry ws acc px py ne1.(i);
    add_entry ws acc pxl py ne2.(i)
  done;
  if not acc.inf then F.mul acc.z acc.z zg

let mul k pt =
  let ws = workspace () in
  strauss ws ~s:Scalar.zero ~e:k pt;
  to_point ws ws.acc

let add p1 p2 =
  match (p1, p2) with
  | Infinity, q | q, Infinity -> q
  | Affine a, Affine b ->
    let ws = workspace () in
    jac_of_affine ws.acc a;
    set_addend ws b;
    add_affine ws ws.acc;
    to_point ws ws.acc

let double pt =
  let ws = workspace () in
  match pt with
  | Infinity -> Infinity
  | Affine a ->
    jac_of_affine ws.acc a;
    double ws ws.acc;
    to_point ws ws.acc

(* s * G - e * pk = r, compared in r's Jacobian form without an
   inversion: X = r.x * Z^2 and Y = r.y * Z^3. *)
let sg_minus_ep_eq ~s ~e pk r =
  match r with
  | Infinity -> false
  | Affine ra ->
    let ws = workspace () in
    strauss ws ~s ~e (neg pk);
    let j = ws.acc in
    (not j.inf)
    &&
    let z2 = F.create () and v = F.create () and tmp = F.create () in
    F.sq z2 j.z;
    set_addend ws ra;
    F.mul v ws.ax z2;
    F.equal ~tmp v j.x
    && begin
      F.mul z2 z2 j.z;
      F.mul v ws.ay z2;
      F.equal ~tmp v j.y
    end
