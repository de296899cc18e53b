(* Mutation fuzzing for the CCTP object codecs: single-byte flips and
   truncations of valid encodings must come back as [Error _] — never
   an exception — and anything the decoder does accept must re-encode
   to exactly the bytes it was given (the encoding is canonical, so a
   mutant that decodes is a different value, not a second spelling of
   the same one). *)

open Zen_crypto
open Zendoo

let checkb = Alcotest.(check bool)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let family = Zen_latus.Circuits.make Zen_latus.Params.default

let sample_proofdata =
  Proofdata.
    [
      Field (Fp.of_int 7);
      Digest (Hash.of_string "fuzz-pd");
      Uint 99;
      Blob "opaque";
    ]

let sample_cert =
  Withdrawal_certificate.make ~ledger_id:(Hash.of_string "fuzz-sc")
    ~epoch_id:4 ~quality:9
    ~bt_list:
      [
        Backward_transfer.make ~receiver_addr:(Hash.of_string "fuzz-r")
          ~amount:(amount 11);
      ]
    ~proofdata:sample_proofdata ~proof:Fixtures.zero_proof

let sample_withdrawal =
  Mainchain_withdrawal.make ~kind:Mainchain_withdrawal.Csw
    ~ledger_id:(Hash.of_string "fuzz-sc") ~receiver:(Hash.of_string "fuzz-w")
    ~amount:(amount 21) ~nullifier:(Hash.of_string "fuzz-nf")
    ~proofdata:sample_proofdata ~proof:Fixtures.zero_proof

let sample_config =
  ok
    (Zen_latus.Node.config_for ~ledger_id:(Hash.of_string "fuzz-cfg")
       ~start_block:40 ~epoch_len:8 ~submit_len:3 family)

(* Each codec under test: (name, valid encoding, decode-then-re-encode).
   The closure hides the value type so one generic property covers all
   three. *)
let codecs =
  [
    ( "wcert",
      Codec.encode_wcert sample_cert,
      fun s -> Result.map Codec.encode_wcert (Codec.decode_wcert s) );
    ( "withdrawal",
      Codec.encode_withdrawal sample_withdrawal,
      fun s -> Result.map Codec.encode_withdrawal (Codec.decode_withdrawal s)
    );
    ( "config",
      Codec.encode_config sample_config,
      fun s -> Result.map Codec.encode_config (Codec.decode_config s) );
  ]

let flip s ~pos ~delta =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor delta));
  Bytes.to_string b

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:500 gen f)

let mutation_props =
  List.concat_map
    (fun (name, valid, redecode) ->
      let len = String.length valid in
      [
        prop
          (Printf.sprintf "%s: flips never raise, Ok is canonical" name)
          QCheck2.Gen.(pair (int_bound (len - 1)) (int_range 1 255))
          (fun (pos, delta) ->
            let mutant = flip valid ~pos ~delta in
            match redecode mutant with
            | Error _ -> true
            | Ok reencoded -> String.equal reencoded mutant);
        prop
          (Printf.sprintf "%s: truncations are rejected" name)
          QCheck2.Gen.(int_bound (len - 1))
          (fun keep ->
            match redecode (String.sub valid 0 keep) with
            | Error _ -> true
            | Ok _ -> false);
        prop
          (Printf.sprintf "%s: random bytes never raise" name)
          QCheck2.Gen.(string_size (int_bound (len * 2)))
          (fun junk ->
            match redecode junk with Ok _ | Error _ -> true);
      ])
    codecs

(* Round-trips are the identity on valid encodings — structurally and
   byte-for-byte. *)
let test_roundtrip_identity () =
  let cert' = ok (Codec.decode_wcert (Codec.encode_wcert sample_cert)) in
  checkb "wcert hash" true
    (Hash.equal
       (Withdrawal_certificate.hash sample_cert)
       (Withdrawal_certificate.hash cert'));
  checkb "wcert bytes" true
    (String.equal (Codec.encode_wcert sample_cert) (Codec.encode_wcert cert'));
  let w' =
    ok (Codec.decode_withdrawal (Codec.encode_withdrawal sample_withdrawal))
  in
  checkb "withdrawal hash" true
    (Hash.equal
       (Mainchain_withdrawal.hash sample_withdrawal)
       (Mainchain_withdrawal.hash w'));
  checkb "withdrawal bytes" true
    (String.equal
       (Codec.encode_withdrawal sample_withdrawal)
       (Codec.encode_withdrawal w'));
  let c' = ok (Codec.decode_config (Codec.encode_config sample_config)) in
  checkb "config hash" true
    (Hash.equal (Sidechain_config.hash sample_config) (Sidechain_config.hash c'));
  checkb "config bytes" true
    (String.equal (Codec.encode_config sample_config) (Codec.encode_config c'))

(* The vk arity field is strict lowercase hex: re-spelling it with an
   uppercase digit must be refused, not silently normalised. *)
let test_vk_encoding_not_malleable () =
  let vk = sample_config.Sidechain_config.wcert_vk in
  let enc = Zen_snark.Backend.vk_encode vk in
  checkb "vk roundtrips" true
    (match Zen_snark.Backend.vk_decode enc with
    | Some vk' ->
      Hash.equal
        (Zen_snark.Backend.vk_digest vk)
        (Zen_snark.Backend.vk_digest vk')
    | None -> false);
  (* force a hex digit uppercase; if none is a letter, make one 'A'
     from '0' instead (still a case change in the strict alphabet) *)
  let b = Bytes.of_string enc in
  let changed = ref false in
  for i = 32 to 39 do
    let c = Bytes.get b i in
    if (not !changed) && c >= 'a' && c <= 'f' then begin
      Bytes.set b i (Char.uppercase_ascii c);
      changed := true
    end
  done;
  if not !changed then Bytes.set b 32 'A';
  checkb "uppercase spelling refused" true
    (Zen_snark.Backend.vk_decode (Bytes.to_string b) = None)

let suite =
  ( "codec-fuzz",
    [
      Alcotest.test_case "roundtrip identity" `Quick test_roundtrip_identity;
      Alcotest.test_case "vk not malleable" `Quick test_vk_encoding_not_malleable;
    ]
    @ mutation_props )
