(* Elliptic-curve group laws over secp256k1 and Schnorr signatures. *)

open Zen_crypto

let checkb = Alcotest.(check bool)

let bn = Bignum.of_int

let test_generator_on_curve () =
  match Ec.to_affine Ec.g with
  | None -> Alcotest.fail "G is infinity?"
  | Some (x, y) -> checkb "on curve" true (Ec.on_curve x y)

let test_group_order () =
  checkb "n*G = O" true (Ec.is_infinity (Ec.mul Ec.n Ec.g));
  checkb "(n+1)*G = G" true
    (Ec.equal (Ec.mul (Bignum.add Ec.n Bignum.one) Ec.g) Ec.g)

let test_add_double_consistency () =
  let g2 = Ec.double Ec.g in
  let g3 = Ec.add g2 Ec.g in
  let g4a = Ec.double g2 in
  let g4b = Ec.add g3 Ec.g in
  checkb "2G+G = 3G" true (Ec.equal g3 (Ec.mul (bn 3) Ec.g));
  checkb "2(2G) = 3G+G" true (Ec.equal g4a g4b)

let test_identity_laws () =
  checkb "O + G = G" true (Ec.equal (Ec.add Ec.infinity Ec.g) Ec.g);
  checkb "G + O = G" true (Ec.equal (Ec.add Ec.g Ec.infinity) Ec.g);
  checkb "G + (-G) = O" true (Ec.is_infinity (Ec.add Ec.g (Ec.neg Ec.g)))

let test_scalar_distributes () =
  let a = bn 123456 and b = bn 654321 in
  let lhs = Ec.mul (Bignum.add a b) Ec.g in
  let rhs = Ec.add (Ec.mul a Ec.g) (Ec.mul b Ec.g) in
  checkb "(a+b)G = aG + bG" true (Ec.equal lhs rhs)

let test_encode_decode () =
  let p = Ec.mul (bn 789) Ec.g in
  (match Ec.decode (Ec.encode p) with
  | Some q -> checkb "roundtrip" true (Ec.equal p q)
  | None -> Alcotest.fail "decode failed");
  (match Ec.decode (Ec.encode Ec.infinity) with
  | Some q -> checkb "infinity roundtrip" true (Ec.is_infinity q)
  | None -> Alcotest.fail "infinity decode failed");
  checkb "garbage rejected" true (Ec.decode "nonsense" = None)

let test_decode_off_curve () =
  let x = Bignum.to_bytes_be ~len:32 (bn 1) in
  let fake = "\004" ^ x ^ x in
  checkb "off-curve rejected" true (Ec.decode fake = None)

let test_schnorr_roundtrip () =
  let sk, pk = Schnorr.of_seed "test-key" in
  let s = Schnorr.sign sk "message" in
  checkb "valid" true (Schnorr.verify pk "message" s);
  checkb "wrong msg" false (Schnorr.verify pk "messagf" s);
  let _, pk2 = Schnorr.of_seed "other-key" in
  checkb "wrong key" false (Schnorr.verify pk2 "message" s)

let test_schnorr_determinism () =
  let sk, _ = Schnorr.of_seed "det" in
  let s1 = Schnorr.sign sk "m" and s2 = Schnorr.sign sk "m" in
  checkb "deterministic nonce" true
    (String.equal (Schnorr.sig_encode s1) (Schnorr.sig_encode s2))

let test_schnorr_sig_encoding () =
  let sk, pk = Schnorr.of_seed "enc" in
  let s = Schnorr.sign sk "m" in
  Alcotest.(check int) "96 bytes" 96 (String.length (Schnorr.sig_encode s));
  (match Schnorr.sig_decode (Schnorr.sig_encode s) with
  | Some s' -> checkb "decoded verifies" true (Schnorr.verify pk "m" s')
  | None -> Alcotest.fail "decode failed");
  checkb "truncated rejected" true (Schnorr.sig_decode "short" = None)

let test_schnorr_tamper () =
  let sk, pk = Schnorr.of_seed "tamper" in
  let s = Schnorr.sign sk "m" in
  let enc = Bytes.of_string (Schnorr.sig_encode s) in
  (* Flip one bit of s-part. *)
  Bytes.set enc 95 (Char.chr (Char.code (Bytes.get enc 95) lxor 1));
  match Schnorr.sig_decode (Bytes.to_string enc) with
  | None -> ()
  | Some s' -> checkb "tampered rejected" false (Schnorr.verify pk "m" s')

let test_pk_hash_injective_spot () =
  let _, pk1 = Schnorr.of_seed "a" and _, pk2 = Schnorr.of_seed "b" in
  checkb "distinct addrs" false
    (Hash.equal (Schnorr.pk_hash pk1) (Schnorr.pk_hash pk2))

(* s = 12345 and R = s·G satisfy s·G = R + e·O for every e: a key at
   infinity would accept this signature on any message. *)
let test_infinity_key_forgery () =
  let s = bn 12345 in
  let forged =
    match Ec.to_affine (Ec.mul s Ec.g) with
    | Some (x, y) ->
      Bignum.to_bytes_be ~len:32 x ^ Bignum.to_bytes_be ~len:32 y
      ^ Bignum.to_bytes_be ~len:32 s
    | None -> Alcotest.fail "s·G at infinity"
  in
  let signature = Option.get (Schnorr.sig_decode forged) in
  match Schnorr.pk_decode "\000" with
  | None -> ()
  | Some pk ->
    checkb "forged signature rejected" false
      (Schnorr.verify pk "any message" signature)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:12 gen f)

let props =
  [
    prop "sign/verify random" QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
      (fun (seed, msg) ->
        let sk, pk = Schnorr.of_seed seed in
        Schnorr.verify pk msg (Schnorr.sign sk msg));
    prop "scalar mult additive" QCheck2.Gen.(pair (int_bound 100000) (int_bound 100000))
      (fun (a, b) ->
        Ec.equal
          (Ec.mul (bn (a + b)) Ec.g)
          (Ec.add (Ec.mul (bn a) Ec.g) (Ec.mul (bn b) Ec.g)));
  ]

let suite =
  ( "ec-schnorr",
    [
      Alcotest.test_case "generator on curve" `Quick test_generator_on_curve;
      Alcotest.test_case "group order" `Quick test_group_order;
      Alcotest.test_case "add/double" `Quick test_add_double_consistency;
      Alcotest.test_case "identity" `Quick test_identity_laws;
      Alcotest.test_case "scalar distributes" `Quick test_scalar_distributes;
      Alcotest.test_case "point encoding" `Quick test_encode_decode;
      Alcotest.test_case "off-curve rejected" `Quick test_decode_off_curve;
      Alcotest.test_case "schnorr roundtrip" `Quick test_schnorr_roundtrip;
      Alcotest.test_case "schnorr determinism" `Quick test_schnorr_determinism;
      Alcotest.test_case "schnorr encoding" `Quick test_schnorr_sig_encoding;
      Alcotest.test_case "schnorr tamper" `Quick test_schnorr_tamper;
      Alcotest.test_case "pk hash" `Quick test_pk_hash_injective_spot;
      Alcotest.test_case "infinity key forgery" `Quick test_infinity_key_forgery;
    ]
    @ props )
