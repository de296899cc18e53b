(* Compile-once circuit templates: for any witness, proving through a
   compiled template ([Circuits.make]) must produce byte-identical
   proofs to the re-synthesis reference ([Circuits.make_resynth]) — for
   all five circuit families and both SMT path directions — while
   keeping R1cs.finalize (synthesis + constraint digesting) off the
   per-prove hot path. *)

open Zen_crypto
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let params = { Params.default with mst_depth = 8 }
let family = lazy (Circuits.make params)
let resynth = lazy (Circuits.make_resynth params)

(* Prove the same step through both families and insist on identical
   bytes. A successful re-synthesis prove also re-derives the circuit
   digest and compares it against the compiled proving key, so digest
   equality is checked en passant. *)
let prove_both_ways state step =
  let p_tpl, _, from_t, to_t =
    ok (Circuits.prove_step (Lazy.force family) state step)
  in
  let p_syn, _, from_s, to_s =
    ok (Circuits.prove_step (Lazy.force resynth) state step)
  in
  checkb "proof bytes identical" true
    (Zen_snark.Backend.proof_equal p_tpl p_syn);
  checkb "endpoints identical" true
    (Fp.equal from_t from_s && Fp.equal to_t to_s);
  p_tpl

let utxo i =
  Utxo.make
    ~addr:(Hash.of_string (Printf.sprintf "tpl-addr-%d" (i mod 3)))
    ~amount:(Amount.of_int_exn ((i * 7919) + 1))
    ~nonce:(Hash.of_string (Printf.sprintf "tpl-nonce-%d" i))

(* A nonce whose MST slot has the requested low path bit: the first
   Merkle level's left/right direction, so both template-compiled SMT
   path shapes are exercised deterministically. *)
let utxo_with_parity parity =
  let rec search i =
    let u = utxo i in
    if Utxo.position ~mst_depth:params.Params.mst_depth u land 1 = parity
    then u
    else search (i + 1)
  in
  search 0

let state_with utxos =
  List.fold_left
    (fun st u -> ok (Sc_tx.apply_step st (Sc_tx.Insert u)))
    (Sc_state.create params) utxos

let test_slot_write_both_directions () =
  let left = utxo_with_parity 0 and right = utxo_with_parity 1 in
  let st = state_with [ left; right ] in
  (* Remove: occupied -> empty, at a left child and at a right child. *)
  ignore (prove_both_ways st (Sc_tx.Remove left));
  ignore (prove_both_ways st (Sc_tx.Remove right));
  (* Insert: empty -> occupied, both directions again. *)
  let st0 = Sc_state.create params in
  ignore (prove_both_ways st0 (Sc_tx.Insert left));
  ignore (prove_both_ways st0 (Sc_tx.Insert right))

let test_qcheck_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random witnesses: template = re-synthesis"
       ~count:12
       QCheck2.Gen.(
         triple (int_range 0 40) (int_range 1 12) (int_range 1 1_000_000))
       (fun (salt, n_utxos, bt_amount) ->
         let utxos = List.init n_utxos (fun i -> utxo (salt + (i * 13))) in
         (* Slots are nonce-derived, so random salts can collide; keep
            the insertable prefix. *)
         let st, inserted =
           List.fold_left
             (fun (st, kept) u ->
               match Sc_tx.apply_step st (Sc_tx.Insert u) with
               | Ok st' -> (st', u :: kept)
               | Error _ -> (st, kept))
             (Sc_state.create params, [])
             utxos
         in
         let bt =
           Backward_transfer.make
             ~receiver_addr:(Hash.of_string (Printf.sprintf "bt-%d" salt))
             ~amount:(Amount.of_int_exn bt_amount)
         in
         (* Families 1-3: remove, insert (fresh slot), append_bt. *)
         (match inserted with
         | victim :: _ -> ignore (prove_both_ways st (Sc_tx.Remove victim))
         | [] -> ());
         let rec fresh i =
           let u = utxo (salt + 1000 + i) in
           match Sc_tx.apply_step st (Sc_tx.Insert u) with
           | Ok _ -> u
           | Error _ -> fresh (i + 1)
         in
         ignore (prove_both_ways st (Sc_tx.Insert (fresh 0)));
         ignore (prove_both_ways st (Sc_tx.Append_bt bt));
         (* Family 4: wcert binding. *)
         let proofdata =
           Proofdata.[ Digest (Hash.of_string "tpl-block"); Field (Fp.of_int salt) ]
         in
         let wcert f =
           Circuits.prove_wcert_binding f ~quality:(salt + 1)
             ~bt_root:(Backward_transfer.list_root [ bt ])
             ~end_prev_epoch:(Hash.of_string "prev")
             ~end_epoch:(Hash.of_string "end")
             ~proofdata ~s_prev:(Fp.of_int (salt + 2))
             ~s_last:(Fp.of_int (salt + 3))
         in
         let w_tpl = ok (wcert (Lazy.force family)) in
         let w_syn = ok (wcert (Lazy.force resynth)) in
         (* Family 5: ownership over the committed MST. *)
         let own f u =
           Circuits.prove_ownership f ~mst:st.Sc_state.mst ~utxo:u
             ~reference_block:(Hash.of_string "ref")
             ~receiver:(Hash.of_string "recv") ~proofdata
         in
         let owned =
           match inserted with
           | u :: _ ->
             let o_tpl = ok (own (Lazy.force family) u) in
             let o_syn = ok (own (Lazy.force resynth) u) in
             Zen_snark.Backend.proof_equal o_tpl o_syn
           | [] -> true
         in
         Zen_snark.Backend.proof_equal w_tpl w_syn && owned))

(* The acceptance criterion made observable: the template family's
   proves increment snark.prove but never R1cs.finalize; the
   re-synthesis family finalizes once per prove. *)
let test_finalize_off_hot_path () =
  Zen_obs.Registry.with_enabled @@ fun () ->
  let finalizes = Zen_obs.Counter.make "snark.r1cs.finalize" in
  let proves = Zen_obs.Counter.make "snark.prove" in
  let f = Lazy.force family and r = Lazy.force resynth in
  let st = Sc_state.create params in
  let step i = Sc_tx.Insert (utxo i) in
  let snap () =
    (Zen_obs.Counter.value finalizes, Zen_obs.Counter.value proves)
  in
  let fin0, prv0 = snap () in
  for i = 0 to 4 do
    ignore (ok (Circuits.prove_step f st (step i)))
  done;
  let fin1, prv1 = snap () in
  checki "no finalize on the template hot path" 0 (fin1 - fin0);
  checki "five proves" 5 (prv1 - prv0);
  ignore (ok (Circuits.prove_step r st (step 0)));
  let fin2, prv2 = snap () in
  checki "re-synthesis finalizes once" 1 (fin2 - fin1);
  checki "one more prove" 1 (prv2 - prv1)

(* Gadget-level: an evaluation-mode run fills exactly the assignment
   synthesis would have produced, including materialization decisions
   inside the Poseidon rounds. *)
let test_eval_assignment_matches_synthesis () =
  let body ctx (a, b) =
    let wa = Zen_snark.Gadget.input ctx a in
    let wb = Zen_snark.Gadget.witness ctx b in
    let h = Zen_snark.Gadget.poseidon2 ctx wa wb in
    let bits = Zen_snark.Gadget.to_bits ctx wb 20 in
    let sum = Zen_snark.Gadget.sum (h :: bits) in
    Zen_snark.Gadget.assert_eq ctx sum
      (Zen_snark.Gadget.witness ctx (Zen_snark.Gadget.value sum))
  in
  let v = (Fp.of_int 123456, Fp.of_int 987654) in
  let shape = Zen_snark.Gadget.create () in
  body shape v;
  let circuit, pub_s, wit_s = Zen_snark.Gadget.finalize ~name:"eval-eq" shape in
  let eval = Zen_snark.Gadget.create_eval () in
  body eval v;
  let pub_e, wit_e = Zen_snark.Gadget.assignment eval in
  checkb "public identical" true (pub_s = pub_e);
  checkb "witness identical" true (wit_s = wit_e);
  checkb "assignment satisfies the template" true
    (Result.is_ok (Zen_snark.R1cs.satisfied circuit ~public:pub_e ~witness:wit_e))

let suite =
  ( "template",
    [
      Alcotest.test_case "slot write, both SMT directions" `Quick
        test_slot_write_both_directions;
      test_qcheck_equivalence;
      Alcotest.test_case "finalize off the hot path" `Quick
        test_finalize_off_hot_path;
      Alcotest.test_case "eval assignment = synthesis" `Quick
        test_eval_assignment_matches_synthesis;
    ] )
