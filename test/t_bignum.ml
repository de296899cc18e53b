(* Unit and property tests for the arbitrary-precision integers behind
   the curve oracle. *)

let check = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let hex = Bignum.to_hex
let h = Bignum.of_hex

let test_of_int_roundtrip () =
  List.iter
    (fun n -> checki "roundtrip" n Bignum.(to_int (of_int n)))
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 26; (1 lsl 52) + 12345; max_int / 2 ]

let test_hex_roundtrip () =
  List.iter
    (fun s -> check ("hex " ^ s) s (hex (h s)))
    [
      "0";
      "1";
      "ff";
      "100";
      "deadbeef";
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
    ]

let test_add_sub () =
  let a = h "ffffffffffffffffffffffff" and b = h "1" in
  check "add carry" "1000000000000000000000000" (hex (Bignum.add a b));
  check "sub" "ffffffffffffffffffffffff"
    (hex (Bignum.sub (Bignum.add a b) b));
  Alcotest.check_raises "underflow" (Invalid_argument "Bignum.sub: underflow")
    (fun () -> ignore (Bignum.sub b a))

let test_mul () =
  check "simple" "fffffffffffffffe0000000000000001"
    (hex (Bignum.mul (h "ffffffffffffffff") (h "ffffffffffffffff")));
  check "zero" "0" (hex (Bignum.mul (h "abcdef") Bignum.zero))

let test_divmod () =
  let a = h "123456789abcdef0123456789abcdef" and b = h "fedcba987" in
  let q, r = Bignum.divmod a b in
  checkb "a = q*b + r" true
    (Bignum.equal a (Bignum.add (Bignum.mul q b) r));
  checkb "r < b" true (Bignum.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod a Bignum.zero))

let test_shifts () =
  let a = h "123456789" in
  check "left 4" "1234567890" (hex (Bignum.shift_left a 4));
  check "right 8" "1234567" (hex (Bignum.shift_right a 8));
  check "left 100 then right 100" "123456789"
    (hex (Bignum.shift_right (Bignum.shift_left a 100) 100))

let test_bytes_roundtrip () =
  let a = h "0102030405060708090a" in
  let s = Bignum.to_bytes_be ~len:16 a in
  checki "padded length" 16 (String.length s);
  checkb "roundtrip" true (Bignum.equal a (Bignum.of_bytes_be s))

let test_num_bits () =
  checki "zero" 0 (Bignum.num_bits Bignum.zero);
  checki "one" 1 (Bignum.num_bits Bignum.one);
  checki "255" 8 (Bignum.num_bits (Bignum.of_int 255));
  checki "256" 9 (Bignum.num_bits (Bignum.of_int 256))

let test_gcd () =
  let a = Bignum.of_int (12 * 35) and b = Bignum.of_int (12 * 22) in
  checki "gcd" 12 (Bignum.to_int (Bignum.gcd a b))

(* Modring: Barrett reduction must agree with long division. *)
let secp_p =
  h "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let test_modring_reduce () =
  let r = Bignum.Modring.create secp_p in
  let x = Bignum.mul (Bignum.sub secp_p Bignum.one) (Bignum.sub secp_p Bignum.two) in
  checkb "barrett = rem" true
    (Bignum.equal (Bignum.Modring.reduce r x) (Bignum.rem x secp_p))

let test_modring_inverse () =
  let r = Bignum.Modring.create secp_p in
  let a = h "123456789abcdef" in
  let inv = Bignum.Modring.inv_prime r a in
  checkb "a * a^-1 = 1" true
    (Bignum.equal (Bignum.Modring.mul r a inv) Bignum.one)

let test_modring_sqrt () =
  let r = Bignum.Modring.create secp_p in
  let a = h "9" in
  (match Bignum.Modring.sqrt_3mod4 r a with
  | None -> Alcotest.fail "9 should have a root"
  | Some root ->
    checkb "root^2 = 9" true (Bignum.equal (Bignum.Modring.sq r root) a));
  (* secp256k1 curve constant 7 is handled inside Ec; pick a known
     non-residue: 5 is a non-residue mod p for secp256k1's p. *)
  match Bignum.Modring.sqrt_3mod4 r (Bignum.of_int 5) with
  | None -> ()
  | Some root ->
    checkb "if a root is returned it must square back" true
      (Bignum.equal (Bignum.Modring.sq r root) (Bignum.of_int 5))

(* Property tests *)

let gen_bignum =
  QCheck2.Gen.(
    map
      (fun (a, b) -> Bignum.add (Bignum.of_int a) (Bignum.shift_left (Bignum.of_int b) 62))
      (pair (int_bound max_int) (int_bound max_int)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:200 gen f)

let props =
  [
    prop "add commutative" (QCheck2.Gen.pair gen_bignum gen_bignum)
      (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a));
    prop "mul commutative" (QCheck2.Gen.pair gen_bignum gen_bignum)
      (fun (a, b) -> Bignum.equal (Bignum.mul a b) (Bignum.mul b a));
    prop "mul distributes" (QCheck2.Gen.triple gen_bignum gen_bignum gen_bignum)
      (fun (a, b, c) ->
        Bignum.equal
          (Bignum.mul a (Bignum.add b c))
          (Bignum.add (Bignum.mul a b) (Bignum.mul a c)));
    prop "divmod invariant" (QCheck2.Gen.pair gen_bignum gen_bignum)
      (fun (a, b) ->
        let b = Bignum.add b Bignum.one in
        let q, r = Bignum.divmod a b in
        Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0);
    prop "hex roundtrip" gen_bignum (fun a ->
        Bignum.equal a (Bignum.of_hex (Bignum.to_hex a)));
    prop "bytes roundtrip" gen_bignum (fun a ->
        Bignum.equal a (Bignum.of_bytes_be (Bignum.to_bytes_be a)));
    prop "shift inverse" (QCheck2.Gen.pair gen_bignum (QCheck2.Gen.int_bound 200))
      (fun (a, n) ->
        Bignum.equal a (Bignum.shift_right (Bignum.shift_left a n) n));
    prop "barrett agrees with rem"
      (QCheck2.Gen.pair gen_bignum gen_bignum)
      (fun (a, _) ->
        let r = Bignum.Modring.create secp_p in
        let x = Bignum.mul a a in
        Bignum.equal (Bignum.Modring.reduce r x) (Bignum.rem x secp_p));
  ]

let suite =
  ( "bignum",
    [
      Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
      Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "divmod" `Quick test_divmod;
      Alcotest.test_case "shifts" `Quick test_shifts;
      Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
      Alcotest.test_case "num_bits" `Quick test_num_bits;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "modring reduce" `Quick test_modring_reduce;
      Alcotest.test_case "modring inverse" `Quick test_modring_inverse;
      Alcotest.test_case "modring sqrt" `Quick test_modring_sqrt;
    ]
    @ props )
