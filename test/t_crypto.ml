(* SHA-256 vectors, tagged hashing, the SNARK field, Poseidon, RNG. *)

open Zen_crypto

let check = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* FIPS 180-4 test vectors. *)
let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (input, expected) ->
      let name = if String.length input > 64 then "1M x a" else input in
      check name expected (Sha256.to_hex (Sha256.digest input)))
    cases

let test_sha256_incremental () =
  (* Feeding in odd-sized chunks must agree with one-shot. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  List.iter
    (fun chunk ->
      if !pos < String.length msg then begin
        let n = min chunk (String.length msg - !pos) in
        Sha256.feed ctx (String.sub msg !pos n);
        pos := !pos + n
      end)
    [ 1; 2; 3; 63; 64; 65; 127; 500; 200; 100 ];
  Sha256.feed ctx (String.sub msg !pos (String.length msg - !pos));
  check "incremental = one-shot"
    (Sha256.to_hex (Sha256.digest msg))
    (Sha256.to_hex (Sha256.finalize ctx))

let test_hmac () =
  check "rfc4231-ish"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (Sha256.to_hex
       (Sha256.hmac ~key:"key" "The quick brown fox jumps over the lazy dog"))

(* Messages of 0-300 bytes, weighted toward the padding edges (where the
   length field does or does not fit the last block), with the cut
   points of an incremental feed. *)
let gen_sha_input =
  let open QCheck2.Gen in
  let* len =
    frequency
      [ (1, oneofl [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 127; 128 ]);
        (2, int_range 0 300) ]
  in
  let* msg = string_size ~gen:char (pure len) in
  let* cuts = list_size (int_range 0 6) (int_range 0 len) in
  pure (msg, List.sort_uniq compare cuts)

(* Feeds [msg] in pieces ending at [cuts]. *)
let digest_in_pieces msg cuts =
  let ctx = Sha256.init () in
  let last =
    List.fold_left
      (fun pos cut ->
        Sha256.feed ctx (String.sub msg pos (cut - pos));
        cut)
      0 cuts
  in
  Sha256.feed ctx (String.sub msg last (String.length msg - last));
  Sha256.finalize ctx

let sha256_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"sha256 digest, feed, hmac = oracle" ~count:500
         gen_sha_input (fun (msg, cuts) ->
           let expected = Sha256_oracle.digest msg in
           let key = String.sub msg 0 (min 100 (String.length msg)) in
           Sha256.digest msg = expected
           && digest_in_pieces msg cuts = expected
           && Sha256.hmac ~key msg = Sha256_oracle.hmac ~key msg));
    (* [Hash.tagged] feeds its frames piecewise; the reference builds
       the [Printf]-framed preimage in one string and hashes it with
       the oracle. Parts run from empty to several blocks, so frames
       start at every offset of a block. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"hash tagged = printf-framed reference"
         ~count:500
         QCheck2.Gen.(
           pair (string_size (int_range 0 20))
             (list_size (int_range 0 8)
                (string_size
                   (frequency
                      [ (2, int_range 0 3); (2, int_range 0 70);
                        (1, int_range 100 300) ]))))
         (fun (tag, parts) ->
           let frame s = Printf.sprintf "%08x" (String.length s) ^ s in
           let preimage = String.concat "" (List.map frame (tag :: parts)) in
           let bytes = Zen_obs.Counter.make "crypto.sha256.bytes" in
           Zen_obs.Registry.reset ();
           let h =
             Zen_obs.Registry.with_enabled (fun () -> Hash.tagged tag parts)
           in
           let counted = Zen_obs.Counter.value bytes in
           Zen_obs.Registry.reset ();
           Hash.to_raw h = Sha256_oracle.digest preimage
           && counted = String.length preimage));
  ]

let test_tagged_framing () =
  (* Length framing must prevent concatenation ambiguity. *)
  checkb "framing distinguishes splits" false
    (Hash.equal (Hash.tagged "t" [ "ab"; "c" ]) (Hash.tagged "t" [ "a"; "bc" ]));
  checkb "tag matters" false
    (Hash.equal (Hash.tagged "t1" [ "x" ]) (Hash.tagged "t2" [ "x" ]))

let test_hash_hex () =
  let h = Hash.of_string "hello" in
  check "hex" "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    (Hash.to_hex h);
  checki "size" 32 (String.length (Hash.to_raw h))

let test_fp_axioms () =
  let a = Fp.of_int 987654321987 and b = Fp.of_int 123456789123 in
  checkb "comm add" true (Fp.equal (Fp.add a b) (Fp.add b a));
  checkb "assoc mul" true
    (Fp.equal (Fp.mul (Fp.mul a b) a) (Fp.mul a (Fp.mul b a)));
  checkb "inverse" true (Fp.equal (Fp.mul a (Fp.inv a)) Fp.one);
  checkb "fermat" true (Fp.equal (Fp.pow a (Fp.p - 1)) Fp.one);
  checkb "neg" true (Fp.equal (Fp.add a (Fp.neg a)) Fp.zero);
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fp.inv Fp.zero))

let test_fp_of_int_negative () =
  checkb "negative residue" true
    (Fp.equal (Fp.of_int (-1)) (Fp.of_int (Fp.p - 1)))

let test_fp_edge () =
  (* p reduces to 0; p-1 stays. *)
  checkb "p = 0" true (Fp.equal (Fp.of_int Fp.p) Fp.zero);
  checkb "p-1 + 1 = 0" true (Fp.equal (Fp.add (Fp.of_int (Fp.p - 1)) Fp.one) Fp.zero);
  (* largest products *)
  let m = Fp.of_int (Fp.p - 1) in
  checkb "(p-1)^2 = 1" true (Fp.equal (Fp.mul m m) Fp.one)

let test_poseidon_deterministic () =
  let a = Fp.of_int 17 and b = Fp.of_int 42 in
  checkb "deterministic" true (Fp.equal (Poseidon.hash2 a b) (Poseidon.hash2 a b));
  checkb "order matters" false
    (Fp.equal (Poseidon.hash2 a b) (Poseidon.hash2 b a));
  checkb "length domain separation" false
    (Fp.equal (Poseidon.hash_list [ a ]) (Poseidon.hash_list [ a; Fp.zero ]))

let test_poseidon_permutation_bijective_spot () =
  (* x^17 S-box is a permutation; spot-check the full permutation is
     injective on a few structured inputs. *)
  let outs =
    List.map
      (fun i ->
        let o = Poseidon.permute [| Fp.of_int i; Fp.zero; Fp.zero |] in
        Fp.to_int o.(0))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  checki "distinct outputs" 8 (List.length (List.sort_uniq compare outs))

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  checkb "same stream" true
    (List.for_all
       (fun _ -> String.equal (Rng.bytes a 8) (Rng.bytes b 8))
       [ 1; 2; 3; 4; 5 ]);
  let c = Rng.create 43 in
  checkb "different seed, different stream" false
    (String.equal (Rng.bytes (Rng.create 42) 8) (Rng.bytes c 8))

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 9 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  checki "same multiset" 190 (Array.fold_left ( + ) 0 arr)

(* ---- Field and permutation oracles ----

   The four-[reduce] multiply and the array-based permutation that
   [Fp.mul] and [Poseidon.permute] replaced, kept here as references:
   the production kernels must agree with them on every input. *)

module Oracle = struct
  let p = Fp.p
  let fold62 x = (x land p) + (x lsr 61)

  let reduce x =
    let x = fold62 (fold62 x) in
    if x >= p then x - p else x

  let mul a b =
    let a1 = a lsr 31 and a0 = a land 0x7fffffff in
    let b1 = b lsr 31 and b0 = b land 0x7fffffff in
    let hi = reduce (2 * a1 * b1) in
    let lo = reduce (a0 * b0) in
    let mid = reduce ((a1 * b0) + (a0 * b1)) in
    let m1 = mid lsr 30 and m0 = mid land 0x3fffffff in
    reduce (hi + lo + m1 + (m0 lsl 31))

  let add a b =
    let s = a + b in
    if s >= p then s - p else s

  let pow a e =
    let rec go acc a e =
      if e = 0 then acc
      else if e land 1 = 1 then go (mul acc a) (mul a a) (e lsr 1)
      else go acc (mul a a) (e lsr 1)
    in
    go 1 a e

  let inv a = pow a (p - 2)

  let sbox x =
    let x16 = List.fold_left (fun x _ -> mul x x) x [ 1; 2; 3; 4 ] in
    mul x16 x

  let permute input =
    let w = Poseidon.width in
    let state = Array.map Fp.to_int input in
    let scratch = Array.make w 0 in
    let rc i = Fp.to_int Poseidon.round_constants.(i) in
    let half_full = Poseidon.rounds_full / 2 in
    let round r full =
      for i = 0 to w - 1 do
        state.(i) <- add state.(i) (rc ((r * w) + i))
      done;
      if full then
        for i = 0 to w - 1 do
          state.(i) <- sbox state.(i)
        done
      else state.(0) <- sbox state.(0);
      for i = 0 to w - 1 do
        let acc = ref 0 in
        for j = 0 to w - 1 do
          acc := add !acc (mul (Fp.to_int Poseidon.mds.(i).(j)) state.(j))
        done;
        scratch.(i) <- !acc
      done;
      Array.blit scratch 0 state 0 w
    in
    let total = Poseidon.rounds_full + Poseidon.rounds_partial in
    for r = 0 to total - 1 do
      round r (r < half_full || r >= half_full + Poseidon.rounds_partial)
    done;
    Array.map Fp.of_int state

  let hash2 a b = (permute [| a; b; Fp.two |]).(0)

  let hash_fields fields =
    let n = Array.length fields in
    let state = ref [| Fp.zero; Fp.zero; Fp.of_int (n + 3) |] in
    let i = ref 0 in
    while !i < n do
      let s = Array.copy !state in
      s.(0) <- Fp.add s.(0) fields.(!i);
      if !i + 1 < n then s.(1) <- Fp.add s.(1) fields.(!i + 1);
      state := permute s;
      i := !i + 2
    done;
    if n = 0 then (permute !state).(0) else !state.(0)
end

let fp_edges =
  List.map Fp.of_int
    [
      0; 1; 2; Fp.p - 1; Fp.p - 2; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31;
      1 lsl 60; Fp.p - (1 lsl 31);
    ]

let agrees a b f oracle = f a b = Fp.of_int (oracle (Fp.to_int a) (Fp.to_int b))

let test_fp_mul_oracle_edges () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (agrees a b Fp.mul Oracle.mul) then
            Alcotest.failf "mul %d %d disagrees with the oracle" (Fp.to_int a)
              (Fp.to_int b))
        fp_edges;
      let x = Fp.to_int a in
      checkb "sq edge" true (Fp.sq a = Fp.of_int (Oracle.mul x x));
      checkb "pow edge" true (Fp.pow a 12345 = Fp.of_int (Oracle.pow x 12345));
      if x <> 0 then checkb "inv edge" true (Fp.inv a = Fp.of_int (Oracle.inv x)))
    fp_edges

let test_permute_contract () =
  Zen_obs.Registry.with_enabled @@ fun () ->
  let perms = Zen_obs.Counter.make "crypto.poseidon.permutations" in
  let input = [| Fp.of_int 5; Fp.of_int 6; Fp.of_int 7 |] in
  let before = Zen_obs.Counter.value perms in
  let out = Poseidon.permute input in
  checki "one permutation counted" 1 (Zen_obs.Counter.value perms - before);
  checkb "input unmutated" true
    (input = [| Fp.of_int 5; Fp.of_int 6; Fp.of_int 7 |]);
  checkb "fresh output" false (out == input);
  checkb "matches the oracle" true (out = Oracle.permute input);
  let before = Zen_obs.Counter.value perms in
  ignore (Poseidon.hash2 input.(0) input.(1));
  checki "hash2 is one permutation" 1 (Zen_obs.Counter.value perms - before);
  for n = 0 to 7 do
    let fields = Array.init n (fun i -> Fp.of_int ((i * 7919) + 1)) in
    checkb (Printf.sprintf "hash_list length %d" n) true
      (Poseidon.hash_list (Array.to_list fields) = Oracle.hash_fields fields)
  done;
  (* hash2 runs the core on three local lanes: a hundred calls leave
     the minor heap where it was (bar the boxed float Gc returns). *)
  let words () = Gc.minor_words () in
  let w0 = words () in
  for i = 1 to 100 do
    ignore (Sys.opaque_identity (Poseidon.hash2 (Fp.of_int i) input.(1)))
  done;
  checkb "hash2 allocates nothing" true (words () -. w0 < 10.)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

let gen_fp = QCheck2.Gen.map Fp.of_int QCheck2.Gen.(int_bound max_int)

(* Uniform values mixed with the edge cases. *)
let gen_fp_edgy =
  QCheck2.Gen.(frequency [ (3, gen_fp); (1, oneofl fp_edges) ])

let gen_fields =
  QCheck2.Gen.(array_size (int_range 0 7) gen_fp_edgy)

let props =
  [
    prop "fp add assoc" (QCheck2.Gen.triple gen_fp gen_fp gen_fp)
      (fun (a, b, c) -> Fp.equal (Fp.add (Fp.add a b) c) (Fp.add a (Fp.add b c)));
    prop "fp mul distributes" (QCheck2.Gen.triple gen_fp gen_fp gen_fp)
      (fun (a, b, c) ->
        Fp.equal (Fp.mul a (Fp.add b c)) (Fp.add (Fp.mul a b) (Fp.mul a c)));
    prop "fp sub inverse of add" (QCheck2.Gen.pair gen_fp gen_fp)
      (fun (a, b) -> Fp.equal (Fp.add (Fp.add a b) (Fp.neg b)) a);
    prop "fp inv" gen_fp (fun a ->
        Fp.is_zero a || Fp.equal (Fp.mul a (Fp.inv a)) Fp.one);
    prop "fp mul = oracle" (QCheck2.Gen.pair gen_fp_edgy gen_fp_edgy)
      (fun (a, b) -> agrees a b Fp.mul Oracle.mul);
    prop "fp sq = oracle" gen_fp_edgy (fun a ->
        Fp.sq a = Fp.of_int (Oracle.mul (Fp.to_int a) (Fp.to_int a)));
    prop "fp pow = oracle" (QCheck2.Gen.pair gen_fp_edgy (QCheck2.Gen.int_bound max_int))
      (fun (a, e) -> Fp.pow a e = Fp.of_int (Oracle.pow (Fp.to_int a) e));
    prop "fp inv = oracle" gen_fp_edgy (fun a ->
        Fp.is_zero a || Fp.inv a = Fp.of_int (Oracle.inv (Fp.to_int a)));
    prop "poseidon permute = oracle"
      (QCheck2.Gen.triple gen_fp_edgy gen_fp_edgy gen_fp_edgy)
      (fun (a, b, c) ->
        let input = [| a; b; c |] in
        Poseidon.permute input = Oracle.permute input);
    prop "poseidon hash2 = oracle" (QCheck2.Gen.pair gen_fp_edgy gen_fp_edgy)
      (fun (a, b) -> Poseidon.hash2 a b = Oracle.hash2 a b);
    prop "poseidon hash_fields = oracle, lengths 0-7" gen_fields (fun fields ->
        Poseidon.hash_list (Array.to_list fields) = Oracle.hash_fields fields);
    prop "fp pow homomorphism" (QCheck2.Gen.pair gen_fp (QCheck2.Gen.int_bound 1000))
      (fun (a, e) -> Fp.equal (Fp.mul (Fp.pow a e) a) (Fp.pow a (e + 1)));
  ]

let suite =
  ( "crypto",
    [
      Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
      Alcotest.test_case "hmac" `Quick test_hmac;
      Alcotest.test_case "tagged framing" `Quick test_tagged_framing;
      Alcotest.test_case "hash hex" `Quick test_hash_hex;
      Alcotest.test_case "fp axioms" `Quick test_fp_axioms;
      Alcotest.test_case "fp negative" `Quick test_fp_of_int_negative;
      Alcotest.test_case "fp edge cases" `Quick test_fp_edge;
      Alcotest.test_case "fp mul = oracle on edges" `Quick
        test_fp_mul_oracle_edges;
      Alcotest.test_case "poseidon permute contract" `Quick
        test_permute_contract;
      Alcotest.test_case "poseidon deterministic" `Quick test_poseidon_deterministic;
      Alcotest.test_case "poseidon injective spot" `Quick
        test_poseidon_permutation_bijective_spot;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    ]
    @ sha256_props @ props )
