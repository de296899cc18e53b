(* The secp256k1 field, curve and Schnorr layer against the Bignum
   reference in [Ec_oracle]: field arithmetic, scalars mod n, variable-
   and fixed-base scalar multiplication, signature bytes, verification
   decisions and point decoding must agree, on random inputs and at the
   edges. *)

open Zen_crypto
module O = Ec_oracle

let checkb = Alcotest.(check bool)
let fp_ring = Bignum.Modring.create O.p
let two_256 = Bignum.shift_left Bignum.one 256
let max_256 = Bignum.sub two_256 Bignum.one
let bytes32 = Bignum.to_bytes_be ~len:32
let scalar k = Ec.Scalar.reduce (bytes32 k)

(* Every limb at the bound the field accepts as input: the largest
   columns and carries the multiply can see. *)
let max_limbs = Array.init 10 (fun i -> if i = 9 then 0x3fffff else (1 lsl 28) - 1)

let bignum_of_limbs l =
  Array.fold_right
    (fun limb acc -> Bignum.add (Bignum.shift_left acc 26) (Bignum.of_int limb))
    l Bignum.zero

(* A field element and the value it stands for. *)
type elt = { f : Ec.Field.t; v : Bignum.t }

let of_bignum v = { f = Ec.Field.of_bytes (bytes32 v); v }
let of_limbs l = { f = Ec.Field.of_limbs l; v = bignum_of_limbs l }

let edge_elts () =
  List.map of_bignum
    [
      Bignum.zero; Bignum.one; Bignum.sub O.p Bignum.one; O.p;
      Bignum.add O.p Bignum.one; max_256;
    ]
  @ [ of_limbs max_limbs ]

let gen_bignum256 =
  QCheck2.Gen.(map Bignum.of_bytes_be (string_size ~gen:char (return 32)))

(* Random limbs anywhere inside the input bound, not only canonical
   values. *)
let gen_loose =
  QCheck2.Gen.(
    map
      (fun l -> of_limbs (Array.of_list l))
      (flatten_l
         (List.init 10 (fun i ->
              if i = 9 then int_bound 0x3fffff else int_bound ((1 lsl 28) - 1)))))

let gen_elt =
  QCheck2.Gen.(oneof [ map of_bignum gen_bignum256; gen_loose ])

let red v = Bignum.Modring.reduce fp_ring v

let field_agrees a b =
  let r = Ec.Field.create () in
  let agree what op expect =
    op r;
    let got = Bignum.of_bytes_be (Ec.Field.to_bytes r) in
    if not (Bignum.equal got expect) then
      QCheck2.Test.fail_reportf "%s: got %s, want %s" what (Bignum.to_hex got)
        (Bignum.to_hex expect)
  in
  let ra = red a.v and rb = red b.v in
  agree "mul" (fun r -> Ec.Field.mul r a.f b.f) (Bignum.Modring.mul fp_ring ra rb);
  agree "sq" (fun r -> Ec.Field.sq r a.f) (Bignum.Modring.sq fp_ring ra);
  agree "add" (fun r -> Ec.Field.add r a.f b.f) (Bignum.Modring.add fp_ring ra rb);
  agree "sub" (fun r -> Ec.Field.sub r a.f b.f) (Bignum.Modring.sub fp_ring ra rb);
  (* an operation's output is a valid input to the next *)
  agree "mul of sub" (fun r ->
      Ec.Field.sub r a.f b.f;
      Ec.Field.mul r r r)
    (Bignum.Modring.sq fp_ring (Bignum.Modring.sub fp_ring ra rb));
  if not (Bignum.is_zero ra) then
    agree "inv" (fun r -> Ec.Field.inv r a.f) (Bignum.Modring.inv_prime fp_ring ra);
  true

let test_field_edges () =
  let es = edge_elts () in
  List.iter (fun a -> List.iter (fun b -> ignore (field_agrees a b)) es) es

(* Scalars at the edges of reduction mod n, and either side of n/2,
   where the fixed-base multiply switches to n - k. *)
let edge_scalars =
  let half = Bignum.shift_right O.n 1 in
  [
    Bignum.zero; Bignum.one; Bignum.sub O.n Bignum.one; O.n;
    Bignum.add O.n Bignum.one; max_256; half; Bignum.add half Bignum.one;
  ]

let same_point p q = String.equal (Ec.encode p) (O.encode q)

let mul_agrees k =
  let c = Bignum.of_int 0xC0FFEE in
  let ks = scalar k in
  same_point (Ec.mul_g ks) (O.mul k O.g)
  && same_point (Ec.mul ks Ec.g) (O.mul k O.g)
  && same_point (Ec.mul ks (Ec.mul_g (scalar c))) (O.mul k (O.mul c O.g))

let test_mul_edges () =
  List.iter
    (fun k -> checkb (Bignum.to_hex k) true (mul_agrees k))
    edge_scalars

(* The addition's special cases: equal points (it must double),
   opposite points and infinity. *)
let test_add_edges () =
  let c = Bignum.of_int 0xC0FFEE in
  let p = Ec.mul_g (scalar c) and op = O.mul c O.g in
  let cases =
    [
      ("P + P", Ec.add p p, O.add op op);
      ("P + -P", Ec.add p (Ec.neg p), O.add op (O.neg op));
      ("O + P", Ec.add Ec.infinity p, O.add O.infinity op);
      ("2P", Ec.double p, O.double op);
      ("2O", Ec.double Ec.infinity, O.double O.infinity);
    ]
  in
  List.iter (fun (what, got, want) -> checkb what true (same_point got want)) cases

(* [Ec.Scalar] against [Modring] mod n: reduction, canonical decoding
   (refused iff ≥ n) and its round trip, addition and multiplication,
   on any 32 bytes. *)
let scalar_agrees a b =
  let ring = O.scalar_ring in
  let va = Bignum.of_bytes_be a in
  let ra = Bignum.Modring.reduce ring va
  and rb = Bignum.Modring.reduce ring (Bignum.of_bytes_be b) in
  let sa = Ec.Scalar.reduce a and sb = Ec.Scalar.reduce b in
  let agree what got want =
    if not (String.equal (Ec.Scalar.to_bytes got) (bytes32 want)) then
      QCheck2.Test.fail_reportf "%s: got %s, want %s" what
        (Sha256.to_hex (Ec.Scalar.to_bytes got))
        (Bignum.to_hex want)
  in
  agree "reduce" sa ra;
  (match Ec.Scalar.of_bytes a with
   | None ->
     if Bignum.compare va O.n < 0 then
       QCheck2.Test.fail_reportf "of_bytes refused %s" (Bignum.to_hex va)
   | Some s ->
     if Bignum.compare va O.n >= 0 then
       QCheck2.Test.fail_reportf "of_bytes took %s" (Bignum.to_hex va);
     if not (String.equal (Ec.Scalar.to_bytes s) a) then
       QCheck2.Test.fail_reportf "round trip of %s" (Bignum.to_hex va));
  agree "add" (Ec.Scalar.add sa sb) (Bignum.Modring.add ring ra rb);
  agree "mul" (Ec.Scalar.mul sa sb) (Bignum.Modring.mul ring ra rb);
  true

let edge_scalar_bytes = List.map bytes32 edge_scalars

let test_scalar_edges () =
  List.iter
    (fun a -> List.iter (fun b -> ignore (scalar_agrees a b)) edge_scalar_bytes)
    edge_scalar_bytes

let gen_scalar_bytes =
  QCheck2.Gen.(
    oneof [ string_size ~gen:char (return 32); oneofl edge_scalar_bytes ])

(* Verification decisions on a signature's 96 bytes, both layers
   decoding the same bytes. *)
let decisions_agree pk_seed msg sig_bytes =
  let _, pk = Schnorr.of_seed pk_seed and _, opk = O.Schnorr.of_seed pk_seed in
  match (Schnorr.sig_decode sig_bytes, O.Schnorr.sig_decode sig_bytes) with
  | None, None -> true
  | Some s, Some os -> Schnorr.verify pk msg s = O.Schnorr.verify opk msg os
  | _ -> false

let flip bytes i =
  let b = Bytes.of_string bytes in
  Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

(* A signature (-R, s) whose equation lands on R = k·G: s·G - e·P has
   the claimed point's x and the opposite y, so only the y comparison
   can refuse it. *)
let mirrored seed msg =
  let sk, pk = O.Schnorr.of_seed seed in
  let k =
    O.Schnorr.scalar_of_hash_material
      (Sha256.hmac ~key:(bytes32 sk) msg)
  in
  let r = O.neg (O.mul k O.g) in
  let e = O.Schnorr.challenge r pk msg in
  let ring = O.scalar_ring in
  O.Schnorr.sig_encode
    { r; s = Bignum.Modring.add ring k (Bignum.Modring.mul ring e sk) }

let variants seed msg =
  let sk, _ = Schnorr.of_seed seed in
  let good = Schnorr.sig_encode (Schnorr.sign sk msg) in
  let rxy = String.sub good 0 64 and s = Bignum.of_bytes_be (String.sub good 64 32) in
  let s_plus_n = Bignum.add s O.n in
  [
    ("valid", seed, msg, good);
    ("wrong message", seed, msg ^ "!", good);
    ("wrong key", seed ^ "'", msg, good);
    ("R.x bit", seed, msg, flip good 7);
    ("R.y bit", seed, msg, flip good (256 + 100));
    ("s bit", seed, msg, flip good (512 + 255));
    ("s = n", seed, msg, rxy ^ bytes32 O.n);
    ( "s + n",
      seed,
      msg,
      rxy ^ if Bignum.compare s_plus_n two_256 < 0 then bytes32 s_plus_n else bytes32 O.n );
    ("s = 2^256 - 1", seed, msg, rxy ^ bytes32 max_256);
    ("R at infinity", seed, msg, String.make 64 '\000' ^ String.sub good 64 32);
    ("mirrored R", seed, msg, mirrored seed msg);
  ]

let test_verify_edges () =
  List.iter
    (fun (what, seed, msg, bytes) ->
      checkb what true (decisions_agree seed msg bytes))
    (variants "edge" "m")

(* Decoding: the smallest x on the curve, shifted by p, is a
   non-canonical encoding of a real point and must be refused. *)
let small_point =
  let seven = Bignum.of_int 7 in
  let rec go x =
    let rhs = Bignum.Modring.add fp_ring (Bignum.Modring.mul fp_ring x (Bignum.Modring.sq fp_ring x)) seven in
    match Bignum.Modring.sqrt_3mod4 fp_ring rhs with
    | Some y -> (x, y)
    | None -> go (Bignum.add x Bignum.one)
  in
  go Bignum.one

let decode_agrees s =
  match (Ec.decode s, O.decode s) with
  | None, None -> true
  | Some p, Some q -> same_point p q
  | _ -> false

let test_decode_edges () =
  let x, y = small_point in
  let enc x y = "\004" ^ bytes32 x ^ bytes32 y in
  let cases =
    [
      ("small point", enc x y, true);
      ("x + p", enc (Bignum.add x O.p) y, false);
      ("y = p", enc x O.p, false);
      ("x = p", enc O.p y, false);
      ("all ones", enc max_256 max_256, false);
      ("infinity", "\000", true);
      ("short", "\004", false);
    ]
  in
  List.iter
    (fun (what, s, ok) ->
      checkb (what ^ " agrees") true (decode_agrees s);
      checkb (what ^ " decodes") ok (Option.is_some (Ec.decode s)))
    cases

(* Random 65-byte encodings; a third have x ≥ p and a third y ≥ p. *)
let gen_encoding =
  let open QCheck2.Gen in
  let coord = string_size ~gen:char (return 32) in
  let at_least_p =
    map (fun r -> bytes32 (Bignum.add O.p (Bignum.of_int r))) (int_bound 0xfffffff)
  in
  map
    (fun (x, y) -> "\004" ^ x ^ y)
    (oneof [ pair coord coord; pair at_least_p coord; pair coord at_least_p ])

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let props =
  [
    prop "field = Modring" QCheck2.Gen.(pair gen_elt gen_elt)
      (fun (a, b) -> field_agrees a b);
    prop ~count:8 "mul, mul_g = oracle" gen_bignum256 mul_agrees;
    prop ~count:8 "signature bytes = oracle"
      QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
      (fun (seed, msg) ->
        let sk, pk = Schnorr.of_seed seed and osk, opk = O.Schnorr.of_seed seed in
        String.equal (Schnorr.pk_encode pk) (O.encode opk)
        && String.equal
             (Schnorr.sig_encode (Schnorr.sign sk msg))
             (O.Schnorr.sig_encode (O.Schnorr.sign osk msg)));
    prop ~count:2 "verify decisions = oracle"
      QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
      (fun (seed, msg) ->
        List.for_all
          (fun (_, seed, msg, bytes) -> decisions_agree seed msg bytes)
          (variants seed msg));
    prop ~count:200 "decode random 65 bytes = oracle" gen_encoding
      decode_agrees;
    prop ~count:8 "decode of an encoding = oracle" gen_bignum256 (fun k ->
        decode_agrees (Ec.encode (Ec.mul_g (scalar k))));
    prop ~count:500 "Scalar = Modring"
      QCheck2.Gen.(pair gen_scalar_bytes gen_scalar_bytes)
      (fun (a, b) -> scalar_agrees a b);
  ]

(* ---- the GLV endomorphism ---- *)

(* λ and β re-derived here: λ is a cube root of unity mod n and β one
   mod p, paired so that λ·G = (β·Gx, Gy). *)
let lambda =
  Bignum.of_hex "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"

let beta =
  Bignum.of_hex "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"

let test_endomorphism_constants () =
  let three = Bignum.of_int 3 in
  checkb "λ^3 = 1 mod n" true
    (Bignum.equal (Bignum.Modring.pow O.scalar_ring lambda three) Bignum.one);
  checkb "λ ≠ 1" false (Bignum.equal lambda Bignum.one);
  checkb "β^3 = 1 mod p" true
    (Bignum.equal (Bignum.Modring.pow fp_ring beta three) Bignum.one);
  checkb "β ≠ 1" false (Bignum.equal beta Bignum.one);
  let lg = O.to_affine (O.mul lambda O.g) in
  checkb "λ·G = (β·Gx, Gy)" true
    (match lg with
     | Some (x, y) ->
       Bignum.equal x (Bignum.Modring.mul fp_ring beta O.gx) && Bignum.equal y O.gy
     | None -> false)

(* Scalars where the split meets its edges: 0, 1, n - 1, λ (k2 = 1,
   k1 = 0), n - λ, and either side of 2^128. *)
let glv_edge_scalars =
  let two_128 = Bignum.shift_left Bignum.one 128 in
  [
    Bignum.zero; Bignum.one; Bignum.sub O.n Bignum.one; lambda;
    Bignum.sub O.n lambda; Bignum.sub two_128 Bignum.one; two_128;
    Bignum.add two_128 Bignum.one;
  ]

let gen_glv_scalar =
  QCheck2.Gen.(oneof [ gen_bignum256; oneofl glv_edge_scalars ])

(* k ≡ k1 + λ·k2 (mod n), with k1 and k2 each below 2^128 up to sign. *)
let split_agrees k =
  let ring = O.scalar_ring in
  let k = Bignum.Modring.reduce ring k in
  let k1, k2 = Ec.Scalar.split_lambda (scalar k) in
  let v s = Bignum.of_bytes_be (Ec.Scalar.to_bytes s) in
  let k1 = v k1 and k2 = v k2 in
  let short x = Bignum.num_bits x <= 128 || Bignum.num_bits (Bignum.sub O.n x) <= 128 in
  if not (Bignum.equal (Bignum.Modring.add ring k1 (Bignum.Modring.mul ring lambda k2)) k)
  then QCheck2.Test.fail_reportf "k1 + λ k2 ≠ k for %s" (Bignum.to_hex k);
  if not (short k1 && short k2) then
    QCheck2.Test.fail_reportf "split of %s: %s, %s not below 2^128" (Bignum.to_hex k)
      (Bignum.to_hex k1) (Bignum.to_hex k2);
  true

(* [sg_minus_ep_eq] decides whether s·G - e·P = R as the oracle does:
   on R itself, and on R + G, -R and infinity, which it must refuse. *)
let sg_minus_ep_agrees (s, e, c) =
  let ring = O.scalar_ring in
  let c = Bignum.add (Bignum.Modring.reduce ring c) Bignum.one in
  let op = O.mul c O.g in
  let p = Option.get (Ec.decode (O.encode op)) in
  let r = O.add (O.mul s O.g) (O.neg (O.mul e op)) in
  let point q = Option.get (Ec.decode (O.encode q)) in
  let decide q =
    Ec.sg_minus_ep_eq ~s:(scalar s) ~e:(scalar e) p (point q)
  in
  let want q = (not (O.is_infinity q)) && O.equal q r in
  List.for_all
    (fun q -> decide q = want q)
    [ r; O.add r O.g; O.neg r; O.infinity ]

let glv_props =
  [
    prop ~count:200 "GLV split = oracle" gen_glv_scalar split_agrees;
    prop ~count:8 "sg_minus_ep_eq = oracle"
      QCheck2.Gen.(triple gen_glv_scalar gen_glv_scalar gen_bignum256)
      sg_minus_ep_agrees;
  ]

let test_glv_edges () =
  List.iter
    (fun k ->
      checkb ("split " ^ Bignum.to_hex k) true (split_agrees k);
      checkb ("mul " ^ Bignum.to_hex k) true (mul_agrees k);
      List.iter
        (fun s ->
          checkb
            (Printf.sprintf "s %s e %s" (Bignum.to_hex s) (Bignum.to_hex k))
            true
            (sg_minus_ep_agrees (s, k, Bignum.of_int 0xC0FFEE)))
        [ Bignum.zero; Bignum.one; Bignum.sub O.n Bignum.one ])
    glv_edge_scalars

let suite =
  ( "ec-oracle",
    [
      Alcotest.test_case "field edges" `Quick test_field_edges;
      Alcotest.test_case "mul edges" `Quick test_mul_edges;
      Alcotest.test_case "add edges" `Quick test_add_edges;
      Alcotest.test_case "verify edges" `Quick test_verify_edges;
      Alcotest.test_case "decode edges" `Quick test_decode_edges;
    ]
    @ props
    @ [ Alcotest.test_case "scalar edges" `Quick test_scalar_edges ]
    @ [
        Alcotest.test_case "endomorphism constants" `Quick
          test_endomorphism_constants;
        Alcotest.test_case "GLV edges" `Quick test_glv_edges;
      ]
    @ glv_props )
