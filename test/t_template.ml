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
    (Fixtures.proof_equal p_tpl p_syn);
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
             Fixtures.proof_equal o_tpl o_syn
           | [] -> true
         in
         Fixtures.proof_equal w_tpl w_syn && owned))

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

(* ---- The merge and aggregation circuits are templates too ---- *)

module Template = Zen_snark.Template

let rsys =
  lazy
    (Zen_snark.Recursive.create ~name:"tpl"
       ~base_vks:(Circuits.base_vks (Lazy.force family)))

(* The Shape-mode synthesis of the values sets up the compiled
   template's key (a vk digest binds the circuit digest), and the
   template's count-only prove (the evaluation run the test names call
   "eval") gives the proof [Backend.prove] gives on that synthesis's
   assignment. *)
let prove_equals_synthesis tpl v =
  let circuit, public, witness = Template.synthesize tpl v in
  let pk, vk = Zen_snark.Backend.setup circuit in
  Hash.equal
    (Zen_snark.Backend.vk_digest vk)
    (Zen_snark.Backend.vk_digest (Template.keys tpl).vk)
  &&
  match
    (Template.prove tpl v, Zen_snark.Backend.prove pk ~public ~witness)
  with
  | Ok fused, Ok raw -> Fixtures.proof_equal fused raw
  | _ -> false

let gen_fp = QCheck2.Gen.map Fp.of_int QCheck2.Gen.(int_bound max_int)

let test_merge_template =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"merge circuit: eval = synthesis" ~count:20
       QCheck2.Gen.(triple gen_fp gen_fp gen_fp)
       (fun v ->
         prove_equals_synthesis
           (Zen_snark.Recursive.merge_template (Lazy.force rsys))
           v))

let test_aggregate_template =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"aggregation circuit: eval = synthesis"
       ~count:20
       QCheck2.Gen.(pair gen_fp (int_range 1 10_000))
       (fun (root, count) ->
         prove_equals_synthesis
           (Zen_snark.Aggregate.template (Zen_snark.Aggregate.shared ()))
           (root, Fp.of_int count)))

(* Neither an epoch's merges nor a block aggregate's wraps and merges
   synthesize a circuit: the counter stays at 0 where the per-call
   merge circuits used to finalize 63 and 127 times. *)
let test_no_finalize_in_merges () =
  let f = Lazy.force family and rsys = Lazy.force rsys in
  let agg = Zen_snark.Aggregate.shared () in
  let steps =
    List.init 64 (fun i -> Sc_tx.Insert (utxo (5000 + i)))
    |> List.fold_left
         (fun (st, kept) s ->
           match Sc_tx.apply_step st s with
           | Ok st' -> (st', s :: kept)
           | Error _ -> (st, kept))
         (Sc_state.create params, [])
    |> snd |> List.rev
  in
  let leaves =
    List.init 64 (fun i ->
        ( {
            Zen_snark.Aggregate.sc_id = Hash.of_string (Printf.sprintf "tpl-sc-%d" i);
            epoch = i;
            cert_hash = Hash.of_string (Printf.sprintf "tpl-cert-%d" i);
            vk_digest = Hash.of_string "tpl-vk";
            proof_bytes = string_of_int i;
            end_prev_epoch = Hash.of_string "tpl-prev";
            end_epoch = Hash.of_string "tpl-end";
          },
          fun () -> true ))
  in
  Zen_obs.Registry.with_enabled @@ fun () ->
  let finalizes = Zen_obs.Counter.make "snark.r1cs.finalize" in
  let merges = Zen_obs.Counter.make "snark.merges" in
  let fin0 = Zen_obs.Counter.value finalizes in
  let m0 = Zen_obs.Counter.value merges in
  ignore
    (ok
       (Prover_pool.prove_and_merge f rsys ~initial:(Sc_state.create params)
          ~steps ~workers:2 ~seed:14));
  checki "epoch merges" (List.length steps - 1)
    (Zen_obs.Counter.value merges - m0);
  ignore (ok (Zen_snark.Aggregate.build agg leaves));
  checki "no finalize in an epoch or a 64-leaf aggregate" 0
    (Zen_obs.Counter.value finalizes - fin0)

(* ---- Pinned digests ---- *)

(* Every compiled circuit's R1CS digest and the proof bytes of one
   fixed epoch, as literal hex. The order in which a gadget allocates
   variables is part of the digest, so a reordered witness shows up
   here even when the count-only run and synthesis still agree with
   each other.
   A verification key's encoding starts with its circuit's raw R1CS
   digest. *)
let r1cs_hex vk =
  Hash.to_hex (Hash.of_raw (String.sub (Zen_snark.Backend.vk_encode vk) 0 32))

let circuit_digests depth =
  let f = Circuits.make { Params.default with mst_depth = depth } in
  List.map2
    (fun name vk -> (Printf.sprintf "%s@%d" name depth, r1cs_hex vk))
    [
      "latus.remove"; "latus.insert"; "latus.append_bt"; "latus.wcert";
      "latus.ownership";
    ]
    (Circuits.base_vks f
    @ [ (Circuits.wcert_keys f).vk; (Circuits.ownership_keys f).vk ])

let pinned_circuits =
  [
    ("latus.remove@12",
     "becfc57c785c635456b4d3e5ab29d1a6a074334a1a45514146cb0fb9e718c57d");
    ("latus.insert@12",
     "2a04940ba2a03dfb1f1c7f5c8be6474c8ba6b7dd62ec51176893c67c4c58420f");
    ("latus.append_bt@12",
     "c003fb857123e749f93f2cdc99883877acbc3302cebc3f9c7c4242c380e60cdf");
    ("latus.wcert@12",
     "d41eacb79c623ea6ce03798f24db658aa2278a1a93aee82d4f3a1cfd30d7720a");
    ("latus.ownership@12",
     "a61085cd388810a0683e6d291efca0e0144476e9f56610f18d03ac4f3ad9d3a1");
    ("latus.remove@18",
     "8b41903b26dffd7d2458650cee2da7eafffd25077c4406b3fcb30eee6729e216");
    ("latus.insert@18",
     "ccb534549bc0e81479e87c9b3143321dc6a928172061ed62825fa3e87e4b0c82");
    ("latus.append_bt@18",
     "c003fb857123e749f93f2cdc99883877acbc3302cebc3f9c7c4242c380e60cdf");
    ("latus.wcert@18",
     "d41eacb79c623ea6ce03798f24db658aa2278a1a93aee82d4f3a1cfd30d7720a");
    ("latus.ownership@18",
     "1482e8ded47af807c49398310853a84d1b4ea4e4a1b14cb78a3e2c395957ffd5");
    ("cli.merge",
     "d5d0369d7311764b322563ee86020700d0292dec5fbaba531284f21727081d82");
    ("zendoo.aggregate",
     "f0c1932d396d7f904af5d569e14c1679db5f00fff32ff6a200b894dd14eafa8f");
  ]

(* The epoch of [zendoo-cli prove --steps 13]: 13 inserts at the default
   depth, 4 workers, dispatch seed 77. *)
let pinned_epoch_proof =
  String.concat ""
    [
      "26953227de718080496d66c503908d0626e628ed1d5e726f3233f21b876554d8";
      "d6666e9c35265780671ba4e6f43c8c71c7b293e323daf6d163d5fbdf204161fc";
      "80498a9a8bb71b1c9b3eca28d13bc47556da0b080fc203994f892034a5eadfa2";
    ]

let pinned_epoch_rewards = "w0:4 w1:5 w2:1 w3:3"

let default_family = lazy (Circuits.make Params.default)

let test_pinned_digests () =
  let default = Lazy.force default_family in
  let rsys =
    Zen_snark.Recursive.create ~name:"cli"
      ~base_vks:(Circuits.base_vks default)
  in
  let digests =
    circuit_digests Params.default.mst_depth
    @ circuit_digests 18
    @ [
        ( "cli.merge",
          r1cs_hex
            (Template.keys (Zen_snark.Recursive.merge_template rsys)).vk );
        ( "zendoo.aggregate",
          r1cs_hex
            (Template.keys
               (Zen_snark.Aggregate.template (Zen_snark.Aggregate.shared ())))
              .vk );
      ]
  in
  let steps =
    List.init 13 (fun i ->
        Sc_tx.Insert
          (Utxo.make ~addr:(Hash.of_string "cli-prove")
             ~amount:(Amount.of_int_exn (i + 1))
             ~nonce:(Hash.of_string (Printf.sprintf "cli-77-%d" i))))
  in
  let _, stats, top =
    ok
      (Prover_pool.prove_and_merge default rsys
         ~initial:(Sc_state.create Params.default) ~steps ~workers:4 ~seed:77)
  in
  let proof =
    Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top)
  in
  let rewards =
    String.concat " "
      (List.map
         (fun (w, r) -> Printf.sprintf "w%d:%d" w r)
         stats.Prover_pool.rewards)
  in
  Alcotest.(check (list (pair string string)))
    "R1CS digests" pinned_circuits digests;
  Alcotest.(check string) "epoch proof bytes" pinned_epoch_proof
    (Sha256.to_hex proof);
  Alcotest.(check string) "epoch rewards" pinned_epoch_rewards rewards

(* [step] applied once at [st], as [Sc_tx.trace] records it. *)
let traced st step =
  { Sc_tx.pre = st; step; post = ok (Sc_tx.apply_step st step) }

(* [Circuits.step_job] and [Circuits.prove_traced] given the record's
   own state hashes. *)
let step_job f (t : Sc_tx.traced) =
  Circuits.step_job f ~s_from:(Sc_state.hash t.pre)
    ~s_to:(Sc_state.hash t.post) t

let prove_traced f (t : Sc_tx.traced) =
  Circuits.prove_traced f ~s_from:(Sc_state.hash t.pre)
    ~s_to:(Sc_state.hash t.post) t

(* The circuit a step proves on and its assignment, synthesized: a
   compiled template keeps neither. *)
let synthesized_step f st step =
  match ok (step_job f (traced st step)) with
  | Circuits.Step (_, tpl, v, _, _) -> Template.synthesize tpl v

(* ---- The in-order check on the depth-18 slot circuits ---- *)

(* The remove, insert and append_bt circuits at depth 18, each with a
   satisfying assignment: corrupting up to three public or witness
   entries must make the check and the all-rows oracle agree on the
   result (error string included) and on the evaluation count. *)
let test_slot_circuits_match_oracle () =
  let params18 = { Params.default with mst_depth = 18 } in
  let f = Circuits.make params18 in
  let u = utxo 7 in
  let st0 = Sc_state.create params18 in
  let st1 = ok (Sc_tx.apply_step st0 (Sc_tx.Insert u)) in
  let bt =
    Backward_transfer.make ~receiver_addr:(Hash.of_string "bt-18")
      ~amount:(Amount.of_int_exn 9)
  in
  let rs = Random.State.make [| 18 |] in
  List.iter
    (fun (st, step) ->
      let circuit, public, witness = synthesized_step f st step in
      let oracle = R1cs_oracle.of_circuit circuit in
      let kind =
        match step with
        | Sc_tx.Insert _ -> "insert"
        | Remove _ -> "remove"
        | Append_bt _ -> "append_bt"
      in
      let z = Array.concat [ [| Fp.one |]; public; witness ] in
      for case = 0 to 99 do
        let z = Array.copy z in
        for _ = 0 to case mod 3 do
          z.(1 + Random.State.int rs (Array.length z - 1)) <-
            Fp.of_int (Random.State.full_int rs max_int)
        done;
        checkb
          (Printf.sprintf "%s case %d" kind case)
          true
          (T_snark.with_evals (fun () -> Zen_snark.R1cs.check circuit z)
          = T_snark.with_evals (fun () -> R1cs_oracle.check oracle z))
      done)
    [ (st0, Sc_tx.Insert u); (st1, Sc_tx.Remove u); (st1, Sc_tx.Append_bt bt) ]

(* A body whose value counts differ from the compiled circuit's by
   one in either direction still reaches the backend's length check:
   the public column grows past its size hint and shrinks below it. An
   input after a witness raises in the count-only run as in synthesis. *)
let test_mis_sized_bodies () =
  let module G = Zen_snark.Gadget in
  let body ctx (n_public, n_witness, late_input) =
    for i = 1 to n_public do
      ignore (G.input ctx (Fp.of_int i))
    done;
    for i = 1 to n_witness do
      ignore (G.witness ctx (Fp.of_int i))
    done;
    if late_input then ignore (G.input ctx Fp.one)
  in
  let tpl = Template.compile ~name:"mis-sized" body (2, 3, false) in
  let prove counts =
    match Template.prove tpl counts with Ok _ -> "ok" | Error e -> e
  in
  Alcotest.(check string) "exact" "ok" (prove (2, 3, false));
  Alcotest.(check string) "one public more"
    "public input length 3, expected 2" (prove (3, 3, false));
  Alcotest.(check string) "one public fewer"
    "public input length 1, expected 2" (prove (1, 3, false));
  Alcotest.(check string) "one witness more" "witness length 4, expected 3"
    (prove (2, 4, false));
  Alcotest.(check string) "one witness fewer" "witness length 2, expected 3"
    (prove (2, 2, false));
  Alcotest.check_raises "input after a witness"
    (Invalid_argument "Gadget.input: witness allocation already started")
    (fun () -> ignore (Template.prove tpl (2, 3, true)));
  Alcotest.check_raises "input after a witness, re-synthesized"
    (Invalid_argument "Gadget.input: witness allocation already started")
    (fun () ->
      ignore
        (Template.prove
           (Template.compile_resynth ~name:"mis-sized" body (2, 3, false))
           (2, 3, true)))

(* A body whose row count follows its values while its lengths stay
   put: a compiled template refuses the values that change the count,
   with the error the re-synthesis template gives for the same values. *)
let test_row_count_divergence () =
  let module G = Zen_snark.Gadget in
  let body ctx rows =
    let w = G.witness ctx Fp.one in
    for _ = 1 to rows do
      G.assert_eq ~label:"row" ctx w w
    done
  in
  let prove tpl rows =
    match Template.prove tpl rows with Ok _ -> "ok" | Error e -> e
  in
  List.iter
    (fun tpl ->
      Alcotest.(check string) "as set up" "ok" (prove tpl 2);
      Alcotest.(check string) "one row fewer"
        "circuit shape diverged from setup" (prove tpl 1);
      Alcotest.(check string) "one row more"
        "circuit shape diverged from setup" (prove tpl 3))
    [
      Template.compile ~name:"row-count" body 2;
      Template.compile_resynth ~name:"row-count" body 2;
    ]

(* A compiled template's prove evaluates no constraint: the evaluation
   counter belongs to R1cs.check, which the re-synthesis family still
   runs over every row. Both count one prove covering the circuit. *)
let test_fused_prove_counters () =
  Zen_obs.Registry.with_enabled @@ fun () ->
  let counter = Zen_obs.Counter.make in
  let evals = counter "snark.r1cs.constraint_evals"
  and proves = counter "snark.prove"
  and proved = counter "snark.constraints_proved" in
  let st = Sc_state.create params and step = Sc_tx.Insert (utxo 3) in
  let rows = (Template.keys (Lazy.force family).Circuits.insert).constraints in
  let growth f =
    let v () = List.map Zen_obs.Counter.value [ evals; proves; proved ] in
    let before = v () in
    ignore (ok (Circuits.prove_step (Lazy.force f) st step));
    List.map2 ( - ) (v ()) before
  in
  Alcotest.(check (list int)) "compiled: evals, proves, constraints"
    [ 0; 1; rows ] (growth family);
  Alcotest.(check (list int)) "re-synthesis: evals, proves, constraints"
    [ rows; 1; rows ] (growth resynth)

(* A compiled template keeps its verification key, its counts and its
   body, and none of its circuit's rows. A first family warms every
   table the circuits share; a second one at the default parameters
   then retains a few hundred words, and its rows alone would be over
   300k. *)
let test_family_holds_no_rows () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (Sys.opaque_identity (Circuits.make Params.default));
  let before = live_words () in
  let f = Circuits.make Params.default in
  let retained = live_words () - before in
  ignore (Sys.opaque_identity f);
  checkb
    (Printf.sprintf "a warm family retains %d words (at most 30000)" retained)
    true (retained <= 30_000)

(* ---- One pass per proof: the fused prover against the full check ---- *)

module Backend = Zen_snark.Backend
module Gadget = Zen_snark.Gadget

(* What a prove came to: proof bytes, an error, or an exception. *)
type outcome = Proof of string | Refused of string | Raised of exn

let outcome f =
  match f () with
  | Ok p -> Proof (Backend.proof_encode p)
  | Error e -> Refused e
  | exception e -> Raised e

let pp_outcome = function
  | Proof p -> "proof " ^ Sha256.to_hex (Sha256.digest p)
  | Refused e -> "refused: " ^ e
  | Raised e -> "raised " ^ Printexc.to_string e

(* A compiled template's raw proving key, set up from the synthesis of
   [honest], values its body proves with the template's shape. Keys are
   deterministic per circuit, so it is the template's own key; each is
   derived once. *)
let raw_keys = Hashtbl.create 8

let raw_key tpl honest =
  let vk = (Template.keys tpl).vk in
  let id = Hash.to_raw (Backend.vk_digest vk) in
  match Hashtbl.find_opt raw_keys id with
  | Some pk -> pk
  | None ->
    let circuit, _, _ = Template.synthesize tpl honest in
    let pk, raw_vk = Backend.setup circuit in
    checkb "derived key = template key" true
      (Hash.equal (Backend.vk_digest raw_vk) (Backend.vk_digest vk));
    Hashtbl.add raw_keys id pk;
    pk

(* [Template.prove] (one count-only run that checks its rows as it
   reaches them) against [Backend.prove]'s full check of
   [Template.synthesize]'s assignment under the template's raw key
   [pk]: the same proof bytes, the same error or the same exception.
   Returns the shared outcome. *)
let fused_equals_raw pk tpl v =
  let fused = outcome (fun () -> Template.prove tpl v) in
  let raw =
    outcome (fun () ->
        let _, public, witness = Template.synthesize tpl v in
        Backend.prove pk ~public ~witness)
  in
  Alcotest.(check string) "fused verdict = full check" (pp_outcome raw)
    (pp_outcome fused);
  fused

let is_proof = function Proof _ -> true | _ -> false

(* A value perturbed by [k] >= 1, so it never equals the original. *)
let bump k x = Fp.add x (Fp.of_int k)

let too_big = Fp.of_int (1 lsl Amount.amount_bits)

(* Tampers 1-6 make a slot write's statement false; 0 keeps it. *)
let tamper_slot (v : Circuits.slot_values) k t =
  match t with
  | 0 -> v
  | 1 ->
    let i = k mod List.length v.siblings in
    { v with siblings = List.mapi (fun j s -> if j = i then bump k s else s) v.siblings }
  | 2 -> { v with acc = bump k v.acc }
  | 3 -> { v with s_from_v = bump k v.s_from_v }
  | 4 -> { v with s_to_v = bump k v.s_to_v }
  | 5 -> { v with pos = v.pos lxor (1 lsl (k mod List.length v.siblings)) }
  | _ -> { v with amt = too_big }

let tamper_append (v : Circuits.append_values) k t =
  match t with
  | 0 -> v
  | 1 -> { v with a_root = bump k v.a_root }
  | 2 -> { v with a_acc0 = bump k v.a_acc0 }
  | 3 -> { v with a_s_from = bump k v.a_s_from }
  | 4 -> { v with a_s_to = bump k v.a_s_to }
  | 5 -> { v with a_recv = bump k v.a_recv }
  | _ -> { v with a_amt = too_big }

(* The step circuits through [Circuits.step_job], honest and tampered. *)
let check_step_job f st step k t =
  let verdict =
    match ok (step_job f (traced st step)) with
    | Circuits.Step (Circuits.Slot, tpl, v, _, _) ->
      fused_equals_raw (raw_key tpl v) tpl (tamper_slot v k t)
    | Circuits.Step (Circuits.Append, tpl, v, _, _) ->
      fused_equals_raw (raw_key tpl v) tpl (tamper_append v k t)
  in
  checkb
    (Printf.sprintf "tamper %d proves iff honest" t)
    (t = 0) (is_proof verdict)

(* The ownership values [Circuits.prove_ownership] builds, with a
   random public input around the amount. *)
let ownership_values mst u rand =
  let pos = Option.get (Mst.find_utxo mst u) in
  {
    Circuits.o_public =
      [| rand 0; rand 1; rand 2; Amount.to_fp u.Utxo.amount; rand 4 |];
    o_addr = Hash.to_fp u.addr;
    o_amt = Amount.to_fp u.amount;
    o_nonce = Hash.to_fp u.nonce;
    o_pos = pos;
    o_siblings = Smt.proof_siblings (Mst.prove_slot mst pos);
    o_root = Mst.root mst;
  }

let tamper_ownership (v : Circuits.ownership_values) k t =
  match t with
  | 0 -> v
  | 1 ->
    let o_public = Array.copy v.o_public in
    o_public.(3) <- bump k o_public.(3);
    { v with o_public }
  | 2 -> { v with o_siblings = List.map (bump k) v.o_siblings }
  | 3 -> { v with o_root = bump k v.o_root }
  | 4 -> { v with o_nonce = bump k v.o_nonce }
  | 5 -> { v with o_public = Array.sub v.o_public 0 4 }
  | _ ->
    let o_public = Array.copy v.o_public in
    o_public.(3) <- too_big;
    { v with o_amt = too_big; o_public }

let test_fused_equals_full_check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"every template: fused prove = Backend.prove on synthesis"
       ~count:25
       QCheck2.Gen.(
         quad (int_range 0 60) (int_range 1 1_000_000) (int_range 0 6)
           (list_size (return 8) gen_fp))
       (fun (salt, k, t, rands) ->
         let f = Lazy.force family in
         let rand i = List.nth rands i in
         let a = utxo salt in
         let st = state_with [ a ] in
         let rec fresh i =
           let u = utxo (salt + 61 + i) in
           if Result.is_ok (Sc_tx.apply_step st (Sc_tx.Insert u)) then u
           else fresh (i + 1)
         in
         let bt =
           Backward_transfer.make
             ~receiver_addr:(Hash.of_string (Printf.sprintf "fz-%d" salt))
             ~amount:(Amount.of_int_exn k)
         in
         check_step_job f st (Sc_tx.Remove a) k t;
         check_step_job f st (Sc_tx.Insert (fresh 0)) k t;
         check_step_job f st (Sc_tx.Append_bt bt) k t;
         (* The wcert and merge bodies derive their binding copy, so
            every value set proves; a public input one short is the
            hostile case. *)
         let w_public = Array.init 5 rand in
         let w = { Circuits.w_public; w_s_prev = rand 5; w_s_last = rand 6 } in
         let short = { w with w_public = Array.sub w_public 0 4 } in
         let wcert =
           fused_equals_raw (raw_key f.Circuits.wcert w) f.Circuits.wcert
             (if t = 5 then short else w)
         in
         checkb "wcert proves iff its public input is whole" (t <> 5)
           (is_proof wcert);
         let o = ownership_values st.Sc_state.mst a rand in
         let own =
           fused_equals_raw (raw_key f.Circuits.ownership o)
             f.Circuits.ownership (tamper_ownership o k t)
         in
         checkb "ownership proves iff honest" (t = 0) (is_proof own);
         let merge = Zen_snark.Recursive.merge_template (Lazy.force rsys) in
         let agg = Zen_snark.Aggregate.template (Zen_snark.Aggregate.shared ()) in
         let fused_proves tpl v =
           is_proof (fused_equals_raw (raw_key tpl v) tpl v)
         in
         fused_proves merge (rand 0, rand 1, rand 2)
         && fused_proves agg (rand 3, rand 4)))

(* A wrong binding copy in a raw wcert witness: the full check refuses
   it at the binding row, which a fused prove cannot be handed. *)
let test_wcert_binding_row () =
  let f = Lazy.force family in
  let v =
    {
      Circuits.w_public = Array.init 5 Fp.of_int;
      w_s_prev = Fp.of_int 7;
      w_s_last = Fp.of_int 8;
    }
  in
  let _, public, witness = Template.synthesize f.Circuits.wcert v in
  let witness = Array.copy witness in
  let last = Array.length witness - 1 in
  witness.(last) <- bump 1 witness.(last);
  match Backend.prove (raw_key f.Circuits.wcert v) ~public ~witness with
  | Ok _ -> Alcotest.fail "a wrong binding copy was proven"
  | Error e ->
    checkb ("refused at the binding row: " ^ e) true
      (String.ends_with ~suffix:"(wcert.binding)" e)

(* Random small gadget bodies: the prover's count-only run of a body
   agrees with shape-mode synthesis of it. It raises what synthesis
   raises; otherwise it keeps synthesis's public column, and its
   verdict on every probe of witness and row counts one off the
   circuit's either way is what the synthesized lengths predict:
   [R1cs.check_lengths]'s error, then a diverged shape for a row count
   off by one, then [R1cs.satisfied] on the synthesized assignment. So
   the run has synthesis's counts, error and failing row. Values are
   small so that equalities, booleans and bit widths go both ways. *)
type gop =
  | Mul of int * int
  | Add of int * int
  | Eq of int * int * bool
  | Bool of int * bool
  | Bits of int * int
  | Is_zero of int
  | Select of int * int * int
  | Const of int
  | Scale of int * int
  | Sub of int * int
  | Sum of int list
  | Poseidon2 of int * int
  | Const_eq of int * int
  | Const_bool of int

let gen_gop =
  QCheck2.Gen.(
    let i = int_bound 50 in
    (* Small field elements, and their negations. *)
    let k = map2 (fun v neg -> if neg then -v else v) (int_bound 3) bool in
    oneof
      [
        map2 (fun a b -> Mul (a, b)) i i;
        map2 (fun a b -> Add (a, b)) i i;
        map3 (fun a b l -> Eq (a, b, l)) i i bool;
        map2 (fun a l -> Bool (a, l)) i bool;
        map2 (fun a n -> Bits (a, n)) i (int_range 1 3);
        map (fun a -> Is_zero a) i;
        map3 (fun c a b -> Select (c, a, b)) i i i;
        map (fun v -> Const v) k;
        map2 (fun c a -> Scale (c, a)) k i;
        map2 (fun a b -> Sub (a, b)) i i;
        map (fun l -> Sum l) (list_size (int_range 0 3) i);
        map2 (fun a b -> Poseidon2 (a, b)) i i;
        map2 (fun a b -> Const_eq (a, b)) k k;
        map (fun a -> Const_bool a) k;
      ])

let gadget_body (inputs, witnesses, ops) ctx =
  let wires = ref [||] in
  let push w = wires := Array.append !wires [| w |] in
  let get i = !wires.(i mod Array.length !wires) in
  let label l name = if l then Some name else None in
  List.iter (fun v -> push (Gadget.input ctx (Fp.of_int v))) inputs;
  List.iter (fun v -> push (Gadget.witness ctx (Fp.of_int v))) witnesses;
  List.iter
    (function
      | Mul (a, b) -> push (Gadget.mul ctx (get a) (get b))
      | Add (a, b) -> push (Gadget.add (get a) (get b))
      | Eq (a, b, l) -> Gadget.assert_eq ?label:(label l "eq") ctx (get a) (get b)
      | Bool (a, l) -> Gadget.assert_bool ?label:(label l "bool") ctx (get a)
      | Bits (a, n) -> Gadget.assert_le_bits ctx (get a) n
      | Is_zero a -> push (Gadget.is_zero ctx (get a))
      | Select (c, a, b) -> push (Gadget.select ctx ~cond:(get c) (get a) (get b))
      | Const v -> push (Gadget.const (Fp.of_int v))
      | Scale (c, a) -> push (Gadget.scale (Fp.of_int c) (get a))
      | Sub (a, b) -> push (Gadget.sub (get a) (get b))
      | Sum l -> push (Gadget.sum (List.map get l))
      | Poseidon2 (a, b) -> push (Gadget.poseidon2 ctx (get a) (get b))
      | Const_eq (a, b) ->
        Gadget.assert_eq ~label:"const" ctx (Gadget.const (Fp.of_int a))
          (Gadget.const (Fp.of_int b))
      | Const_bool a -> Gadget.assert_bool ctx (Gadget.const (Fp.of_int a)))
    ops

let test_gadget_verdict_equals_check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"random bodies: eval verdict = R1cs.satisfied on synthesis"
       ~count:500
       QCheck2.Gen.(
         triple
           (list_size (int_range 0 2) (int_bound 3))
           (list_size (int_range 1 3) (int_bound 3))
           (list_size (int_range 0 12) gen_gop))
       (fun spec ->
         let body = gadget_body spec in
         let synthesized =
           let shape = Gadget.create () in
           match body shape with
           | () -> Ok (Gadget.finalize ~name:"random" shape)
           | exception e -> Error e
         in
         let counted = Gadget.create_count ~public:0 in
         let ran =
           match body counted with () -> Ok () | exception e -> Error e
         in
         let err = function Ok () -> "ok" | Error e -> e in
         match (synthesized, ran) with
         | Error e, Error e' -> Printexc.to_string e = Printexc.to_string e'
         | Error _, Ok () | Ok _, Error _ -> false
         | Ok (circuit, public, witness), Ok () ->
           let n_public = Zen_snark.R1cs.num_public circuit
           and n_witness = Zen_snark.R1cs.num_witness circuit
           and n_rows = Zen_snark.R1cs.num_constraints circuit in
           let expected dw dr =
             match
               Zen_snark.R1cs.check_lengths ~n_public
                 ~n_witness:(n_witness + dw) ~public:(Array.length public)
                 ~witness:(Array.length witness)
             with
             | Error _ as e -> e
             | Ok () when dr <> 0 -> Error "circuit shape diverged from setup"
             | Ok () -> Zen_snark.R1cs.satisfied circuit ~public ~witness
           in
           let probe dw dr =
             err
               (Gadget.verdict ~public:n_public ~witness:(n_witness + dw)
                  ~rows:(n_rows + dr) counted)
             = err (expected dw dr)
           in
           List.for_all
             (fun dw -> List.for_all (probe dw) [ -1; 0; 1 ])
             [ -1; 0; 1 ]
           && Gadget.public_values counted = public))

(* The in-circuit Poseidon over long linear combinations: each input is
   a sum of 1-20 witnesses. Synthesis and the prover's count-only run,
   which hashes natively, agree on the output values and term counts,
   and on the witness and row counts. No
   exported gadget reads a Poseidon output's term count (every
   permutation opens with a full round), so the test reads it, through
   an add chain long enough that a Poseidon lane would materialize it,
   and through one more hash of that chain. *)
let test_poseidon_modes_agree =
  let sums = QCheck2.Gen.(list_size (int_range 1 20) (int_bound 1_000_000)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"poseidon: synthesis = count-only"
       ~count:100
       QCheck2.Gen.(
         quad (pair sums sums) (list_size (int_range 0 5) sums) bool
           (int_range 0 5))
       (fun ((a, b), rest, sponge, chain) ->
         let body ctx =
           let lc vs =
             Gadget.sum
               (List.map (fun v -> Gadget.witness ctx (Fp.of_int v)) vs)
           in
           let a = lc a and b = lc b in
           let rest = List.map lc rest in
           let out =
             if sponge then Gadget.poseidon_hash ctx (a :: b :: rest)
             else Gadget.poseidon2 ctx a b
           in
           let long =
             List.fold_left Gadget.add out (List.init (3 + chain) (fun _ -> out))
           in
           [ out; long; Gadget.poseidon2 ctx long out ]
         in
         let seen wires =
           List.map (fun w -> (Gadget.value w, Gadget.terms w)) wires
         in
         let shape = Gadget.create () in
         let synthesized = seen (body shape) in
         let circuit, public, witness =
           Gadget.finalize ~name:"poseidon" shape
         in
         let counted = Gadget.create_count ~public:0 in
         seen (body counted) = synthesized
         && Gadget.public_values counted = public
         && Gadget.verdict ~public:(Array.length public)
              ~witness:(Array.length witness)
              ~rows:(Zen_snark.R1cs.num_constraints circuit)
              counted
            = Ok ()))

(* One two-to-one hash in the circuit costs 263 rows and 263 witness
   variables: 230 S-box multiplications (8 full rounds of 3 S-boxes and
   22 partial rounds of 1, five rows each) and 33 materializations,
   each one row with one fresh witness. The count-only run adds the
   same counts without building the rounds. *)
let test_poseidon2_cost () =
  let body ctx =
    let a = Gadget.witness ctx (Fp.of_int 3) in
    let b = Gadget.witness ctx (Fp.of_int 5) in
    ignore (Gadget.poseidon2 ctx a b)
  in
  let shape = Gadget.create () in
  body shape;
  let circuit, _, _ = Gadget.finalize ~name:"poseidon2" shape in
  checki "rows" 263 (Zen_snark.R1cs.num_constraints circuit);
  checki "witnesses past the two inputs" 263
    (Zen_snark.R1cs.num_witness circuit - 2);
  let counted = Gadget.create_count ~public:0 in
  body counted;
  Alcotest.(check (result unit string))
    "count-only run: the same counts" (Ok ())
    (Gadget.verdict ~public:0 ~witness:(2 + 263) ~rows:263 counted)

(* The prover's run stores no witness value and hashes natively: one
   insert prove at the default depth allocates ~5.5k minor words and
   nothing directly on the major heap, where the value-recording fill
   it replaced allocated 111,888 minor words and a 7,755-word witness
   array. Words
   allocated directly on the major heap are its count less the words
   promoted to it. *)
let test_prove_allocation () =
  let f = Lazy.force default_family in
  let st = Sc_state.create Params.default in
  match ok (step_job f (traced st (Sc_tx.Insert (utxo 0)))) with
  | Circuits.Step (_, tpl, v, _, _) ->
    (* The first prove builds the shared Poseidon tally. *)
    ignore (ok (Template.prove tpl v));
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    ignore (ok (Template.prove tpl v));
    let minor = Gc.minor_words () -. minor0 in
    let _, promoted1, major1 = Gc.counters () in
    let major = major1 -. major0 -. (promoted1 -. promoted0) in
    checkb
      (Printf.sprintf "depth-%d insert prove: %.0f minor words < 20k"
         Params.default.mst_depth minor)
      true (minor < 20_000.);
    checkb
      (Printf.sprintf "depth-%d insert prove: %.0f major words < 2k"
         Params.default.mst_depth major)
      true (major < 2_000.)

(* [crypto.poseidon.permutations] counts native hashes only: a prove's
   in-circuit permutations are rows of its circuit, even where the
   count-only run computes them with the native permutation. *)
let test_prove_counts_no_native_hash () =
  Zen_obs.Registry.with_enabled @@ fun () ->
  let perms = Zen_obs.Counter.make "crypto.poseidon.permutations" in
  let f = Lazy.force default_family in
  let st = Sc_state.create Params.default in
  match ok (step_job f (traced st (Sc_tx.Insert (utxo 0)))) with
  | Circuits.Step (_, tpl, v, _, _) ->
    let before = Zen_obs.Counter.value perms in
    ignore (ok (Template.prove tpl v));
    checki "a prove counts no native permutation" before
      (Zen_obs.Counter.value perms);
    ignore (Poseidon.hash2 Fp.one Fp.two);
    checki "a native hash counts one" (before + 1)
      (Zen_obs.Counter.value perms)

(* ---- Each step's post-state comes from its trace ---- *)

let proof_hex (proof, _, _, _) =
  Sha256.to_hex (Sha256.digest (Backend.proof_encode proof))

(* A state holding [a], a removal of [a], an insertion of a fresh UTXO
   and a backward transfer, all valid at that state. *)
let trace_fixture () =
  let a = utxo 11 and b = utxo_with_parity 1 in
  let st = state_with [ a ] in
  let bt =
    Backward_transfer.make ~receiver_addr:(Hash.of_string "trace-bt")
      ~amount:(Amount.of_int_exn 17)
  in
  (st, [ Sc_tx.Remove a; Sc_tx.Insert b; Sc_tx.Append_bt bt ])

(* The record [Sc_tx.trace] returns proves to the bytes, keys and
   endpoints [prove_step] gives from the pre-state alone. *)
let test_traced_equals_prove_step () =
  let f = Lazy.force family in
  let st, steps = trace_fixture () in
  List.iter
    (fun step ->
      let t =
        match ok (Sc_tx.trace st [ step ]) with
        | _, [ t ] -> t
        | _ -> Alcotest.fail "one step, one record"
      in
      let ((_, vk_t, from_t, to_t) as traced) = ok (prove_traced f t) in
      let ((_, vk_s, from_s, to_s) as direct) =
        ok (Circuits.prove_step f st step)
      in
      Alcotest.(check string) "proof bytes" (proof_hex direct) (proof_hex traced);
      checkb "same vk" true (Backend.vk_encode vk_t = Backend.vk_encode vk_s);
      checkb "s_from is the pre-state's hash" true
        (Fp.equal from_t from_s && Fp.equal from_t (Sc_state.hash st));
      checkb "s_to is the post-state's hash" true
        (Fp.equal to_t to_s && Fp.equal to_t (Sc_state.hash t.post)))
    steps

(* A record whose [post] is not its step applied to [pre] still builds
   a job, but the circuit recomputes the post-state root and refuses it
   at the s_to row, with the error the full check of the raw assignment
   gives. A pre-state hash that is not [pre]'s is refused at the s_from
   row. *)
let test_wrong_post_refused () =
  let f = Lazy.force family in
  let st, steps = trace_fixture () in
  let posts = List.map (fun step -> (traced st step).post) steps in
  List.iteri
    (fun i step ->
      let other = List.nth posts ((i + 1) mod List.length posts) in
      List.iter
        (fun post ->
          let job = ok (step_job f { Sc_tx.pre = st; step; post }) in
          let verdict =
            match job with
            | Circuits.Step (_, tpl, v, _, _) ->
              (* The shape does not follow the values, so the key set up
                 from these is the template's. *)
              fused_equals_raw (raw_key tpl v) tpl v
          in
          let row =
            match step with
            | Sc_tx.Append_bt _ -> "(append.s_to)"
            | Sc_tx.Remove _ | Sc_tx.Insert _ -> "(slot.s_to)"
          in
          match verdict with
          | Refused e ->
            checkb ("refused at " ^ row ^ ": " ^ e) true
              (String.ends_with ~suffix:row e);
            Alcotest.(check (result reject string))
              "prove_traced gives the same error" (Error e)
              (Result.map ignore
                 (prove_traced f { Sc_tx.pre = st; step; post }))
          | v -> Alcotest.fail ("a wrong post-state was " ^ pp_outcome v))
        [ st; other ];
      let honest = traced st step in
      let row =
        match step with
        | Sc_tx.Append_bt _ -> "(append.s_from)"
        | Sc_tx.Remove _ | Sc_tx.Insert _ -> "(slot.s_from)"
      in
      match
        Circuits.prove_traced f ~s_from:(Sc_state.hash other)
          ~s_to:(Sc_state.hash honest.post) honest
      with
      | Error e ->
        checkb ("wrong s_from refused at " ^ row ^ ": " ^ e) true
          (String.ends_with ~suffix:row e)
      | Ok _ -> Alcotest.fail "a wrong pre-state hash was proven")
    steps

(* A step invalid at its state keeps [prove_step]'s errors, and the
   traced path gives the same ones. *)
let test_invalid_step_errors () =
  let f = Lazy.force family in
  let a = utxo 11 in
  let st = state_with [ a ] in
  (* Another UTXO bound for [a]'s slot. *)
  let clash =
    let slot = Utxo.position ~mst_depth:params.Params.mst_depth in
    let rec search i =
      let u = { a with nonce = Hash.of_string (Printf.sprintf "clash-%d" i) } in
      if slot u = slot a then u else search (i + 1)
    in
    search 0
  in
  List.iter
    (fun (step, expected) ->
      let err r = match r with Ok _ -> "ok" | Error e -> e in
      Alcotest.(check string) "prove_step" expected
        (err (Circuits.prove_step f st step));
      Alcotest.(check string) "prove_traced with post = pre" expected
        (err (prove_traced f { Sc_tx.pre = st; step; post = st })))
    [
      (Sc_tx.Remove (utxo 12), "prove: utxo not in state");
      (Sc_tx.Remove clash, "prove: utxo not in state");
      (Sc_tx.Insert a, "prove: slot occupied");
      (Sc_tx.Insert clash, "prove: slot occupied");
    ]

let suite =
  ( "template",
    [
      Alcotest.test_case "slot write, both SMT directions" `Quick
        test_slot_write_both_directions;
      test_qcheck_equivalence;
      Alcotest.test_case "finalize off the hot path" `Quick
        test_finalize_off_hot_path;
      test_merge_template;
      test_aggregate_template;
      Alcotest.test_case "no finalize in merges or aggregation" `Quick
        test_no_finalize_in_merges;
      Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
      Alcotest.test_case "check = oracle on depth-18 slots"
        `Quick test_slot_circuits_match_oracle;
      Alcotest.test_case "mis-sized bodies" `Quick test_mis_sized_bodies;
      Alcotest.test_case "row count diverged" `Quick test_row_count_divergence;
      Alcotest.test_case "fused prove counters" `Quick test_fused_prove_counters;
      Alcotest.test_case "compiled family holds no rows" `Quick
        test_family_holds_no_rows;
      test_fused_equals_full_check;
      Alcotest.test_case "wcert binding row" `Quick test_wcert_binding_row;
      test_gadget_verdict_equals_check;
      test_poseidon_modes_agree;
      Alcotest.test_case "poseidon2 costs 263 rows" `Quick test_poseidon2_cost;
      Alcotest.test_case "prover allocation" `Quick test_prove_allocation;
      Alcotest.test_case "prove counts no native hash" `Quick
        test_prove_counts_no_native_hash;
      Alcotest.test_case "traced record = prove_step" `Quick
        test_traced_equals_prove_step;
      Alcotest.test_case "wrong post-state refused" `Quick
        test_wrong_post_refused;
      Alcotest.test_case "invalid step errors" `Quick test_invalid_step_errors;
    ] )
