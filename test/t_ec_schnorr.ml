(* Elliptic-curve group laws over secp256k1 and Schnorr signatures. *)

open Zen_crypto

let checkb = Alcotest.(check bool)

(* A natural below 2^256 as a scalar, reduced mod n. *)
let scalar k = Ec.Scalar.reduce (Bignum.to_bytes_be ~len:32 k)
let sc i = scalar (Bignum.of_int i)

let test_generator_on_curve () =
  match Ec.decode (Ec.encode Ec.g) with
  | None -> Alcotest.fail "G is not on the curve"
  | Some q ->
    checkb "on curve" true (Ec.equal q Ec.g && not (Ec.is_infinity q));
    checkb "standard G" true
      (String.equal (Ec.encode Ec.g) (Ec_oracle.encode Ec_oracle.g))

let test_group_order () =
  let n = Ec_oracle.n in
  checkb "n*G = O" true (Ec.is_infinity (Ec.mul (scalar n) Ec.g));
  checkb "(n+1)*G = G" true
    (Ec.equal (Ec.mul (scalar (Bignum.add n Bignum.one)) Ec.g) Ec.g);
  checkb "(n-1)*G + G = O" true
    (Ec.is_infinity
       (Ec.add (Ec.mul (scalar (Bignum.sub n Bignum.one)) Ec.g) Ec.g))

let test_add_double_consistency () =
  let g2 = Ec.double Ec.g in
  let g3 = Ec.add g2 Ec.g in
  let g4a = Ec.double g2 in
  let g4b = Ec.add g3 Ec.g in
  checkb "2G+G = 3G" true (Ec.equal g3 (Ec.mul (sc 3) Ec.g));
  checkb "2(2G) = 3G+G" true (Ec.equal g4a g4b)

let test_identity_laws () =
  checkb "O + G = G" true (Ec.equal (Ec.add Ec.infinity Ec.g) Ec.g);
  checkb "G + O = G" true (Ec.equal (Ec.add Ec.g Ec.infinity) Ec.g);
  checkb "G + (-G) = O" true (Ec.is_infinity (Ec.add Ec.g (Ec.neg Ec.g)))

let test_scalar_distributes () =
  let lhs = Ec.mul (sc (123456 + 654321)) Ec.g in
  let rhs = Ec.add (Ec.mul (sc 123456) Ec.g) (Ec.mul (sc 654321) Ec.g) in
  checkb "(a+b)G = aG + bG" true (Ec.equal lhs rhs)

let test_encode_decode () =
  let p = Ec.mul (sc 789) Ec.g in
  (match Ec.decode (Ec.encode p) with
  | Some q -> checkb "roundtrip" true (Ec.equal p q)
  | None -> Alcotest.fail "decode failed");
  (match Ec.decode (Ec.encode Ec.infinity) with
  | Some q -> checkb "infinity roundtrip" true (Ec.is_infinity q)
  | None -> Alcotest.fail "infinity decode failed");
  checkb "garbage rejected" true (Ec.decode "nonsense" = None)

let test_decode_off_curve () =
  let x = String.make 31 '\000' ^ "\001" in
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
  let s = sc 12345 in
  let forged = String.sub (Ec.encode (Ec.mul s Ec.g)) 1 64 ^ Ec.Scalar.to_bytes s in
  let signature = Option.get (Schnorr.sig_decode forged) in
  match Schnorr.pk_decode "\000" with
  | None -> ()
  | Some pk ->
    checkb "forged signature rejected" false
      (Schnorr.verify pk "any message" signature)

(* Literal bytes, so a change that moved [Ec] and the oracle together
   still shows. The nonces of ("bob", "withdraw 7") and ("pin", "m")
   are above n/2, where [mul_g] negates its digits. *)
let pinned_keys =
  [
    ( "alice",
      "0469a186da0f72ae911afa0898bb0f5efb26ac3c3e505151088513396bd011337a"
      ^ "c64e3c7abc68a9b5ab37fffa29c94efa491b3a9560051522d8f3a4b12c9ae62e" );
    ( "bob",
      "040d99fbe52aa7c37af4bbe01331ffeaf19591ccda2efc4415f1dd89520e20f18c"
      ^ "b002e9f7255f17ea593644ad8759f3867af058cf4aaca8da480f65590af2754c" );
    ( "pin",
      "041bd78ae465019484917234436c176b83ee97ad4150845827832ca50775d1cb5b"
      ^ "d3b587f4426a86dd869bfe3fa9bf15e387b92cab9523303a8ee643e7081b34ee" );
  ]

let pinned_sigs =
  [
    ( "alice", "pay bob 5",
      "aa1506e42821ef78fae0a6ae7e2ed59ecb27c28fbd854d6a42d609dfb3f725d4"
      ^ "4b0583d2e39d408b174779d3264b8127b61e1c625697c99c6223a54e95ba2433"
      ^ "ef264815c855eccf780b6256248d0025dfba7a74095e707ffa114d4797bfc707" );
    ( "bob", "withdraw 7",
      "f8e227350c68808306ef49eed954749b489d12cd60706adcf7a31023d5fb4e71"
      ^ "6bbd5c630e6592c9d605eb2d658b79f60b7950562d1686ebcad229e7aef650ac"
      ^ "637c8fa6f49555e5f7f406def720bcfe55dcab0cd5d0b8b92083c9fcd0ff6e1f" );
    ( "pin", "m",
      "9d86dda0a9b69e95a72ef3693875ee580efad577c29cce464a1c79ee90fa12c8"
      ^ "bd736ce487be45ebd1d420f78014ebcbf80e4d548dc7223bef01d7eef2f5a82e"
      ^ "0d3cd7d32327c18299ee1d9e5aa0b97ce326a50fcdc98bbc58daa88b65c3acfd" );
    ( "pin", "",
      "152a5e52df59928b61ab2fbc7d2570a0e97b95cf88c6abab10c7ebd0e0b2b066"
      ^ "f0e25073ae7f92e60e77c2187759619290c95f8f2d0f7c1509d1d9ce95f6d4af"
      ^ "457b3ba27d97f766784eeb3617ffdde12b4680840e7dcfe5df2387af82bcaf96" );
  ]

let test_pinned_signatures () =
  let check = Alcotest.(check string) in
  List.iter
    (fun (seed, want) ->
      let _, pk = Schnorr.of_seed seed in
      check ("pk " ^ seed) want (Sha256.to_hex (Schnorr.pk_encode pk)))
    pinned_keys;
  List.iter
    (fun (seed, msg, want) ->
      let sk, _ = Schnorr.of_seed seed in
      check
        (Printf.sprintf "sig %S %S" seed msg)
        want
        (Sha256.to_hex (Schnorr.sig_encode (Schnorr.sign sk msg))))
    pinned_sigs

(* k·G at k = 1, n - 1 and 2^256 - 1 (which is 2^256 - 1 - n mod n). *)
let test_pinned_mul_g () =
  let gx = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798" in
  let cases =
    [
      ( "1", sc 1,
        "04" ^ gx
        ^ "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8" );
      ( "n - 1",
        scalar
          (Bignum.of_hex
             "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140"),
        "04" ^ gx
        ^ "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777" );
      ( "2^256 - 1", Ec.Scalar.reduce (String.make 32 '\255'),
        "049166c289b9f905e55f9e3df9f69d7f356b4a22095f894f4715714aa4b56606af"
        ^ "f181eb966be4acb5cff9e16b66d809be94e214f06c93fd091099af98499255e7" );
    ]
  in
  List.iter
    (fun (what, k, want) ->
      Alcotest.(check string) what want
        (Sha256.to_hex (Ec.encode (Ec.mul_g k))))
    cases

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
          (Ec.mul (sc (a + b)) Ec.g)
          (Ec.add (Ec.mul (sc a) Ec.g) (Ec.mul (sc b) Ec.g)));
  ]

(* An R at infinity encodes as 64 zero bytes followed by s, so the
   encoding keeps s and tells such signatures apart. *)
let test_infinity_r_keeps_s () =
  let infinity_r s = String.make 64 '\000' ^ Ec.Scalar.to_bytes (sc s) in
  List.iter
    (fun s ->
      let b = infinity_r s in
      checkb
        (Printf.sprintf "s = %d round-trips" s)
        true
        (String.equal b (Schnorr.sig_encode (Option.get (Schnorr.sig_decode b)))))
    [ 0; 1; 12345 ];
  checkb "different s, different bytes" false
    (String.equal
       (Schnorr.sig_encode (Option.get (Schnorr.sig_decode (infinity_r 1))))
       (Schnorr.sig_encode (Option.get (Schnorr.sig_decode (infinity_r 2)))))

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
    @ props
    @ [
        Alcotest.test_case "pinned signature bytes" `Quick test_pinned_signatures;
        Alcotest.test_case "pinned mul_g bytes" `Quick test_pinned_mul_g;
        Alcotest.test_case "infinity R keeps s" `Quick test_infinity_r_keeps_s;
      ] )
