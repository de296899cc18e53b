(* Bechamel micro-benchmarks of the hot kernels: one Test.make per
   primitive, analyzed with OLS over the monotonic clock. *)

open Bechamel
open Toolkit
open Zen_crypto

let tests () =
  let a = Fp.of_int 123456789 and b = Fp.of_int 987654321 in
  let blob = String.make 1024 'x' in
  let sk, pk = Schnorr.of_seed "bench" in
  let signature = Schnorr.sign sk "msg" in
  let scalar = Ec.Scalar.reduce (Sha256.digest "bench") in
  let tree = Merkle.of_data (List.init 1024 string_of_int) in
  let proof = Merkle.prove tree 512 in
  let leaf = Hash.of_string "512" in
  let root = Merkle.root tree in
  (* A Merkle interior node's hash (two 32-byte parts), and a tree over
     65 leaves: a block's tx root with a coinbase and 64 certificates,
     padded to 128. *)
  let node_l = Hash.to_raw (Hash.of_string "l")
  and node_r = Hash.to_raw (Hash.of_string "r") in
  let leaves65 = List.init 65 Hash.of_int in
  (* SNARK verification: the constant-cost operation the protocol
     leans on. *)
  let circuit, public, witness =
    let ctx = Zen_snark.Gadget.create () in
    let x = Zen_snark.Gadget.input ctx Fp.one in
    let h = Zen_snark.Gadget.poseidon2 ctx x x in
    let out = Zen_snark.Gadget.witness ctx (Zen_snark.Gadget.value h) in
    Zen_snark.Gadget.assert_eq ctx h out;
    Zen_snark.Gadget.finalize ~name:"micro" ctx
  in
  let bpk, bvk = Zen_snark.Backend.setup circuit in
  let snark_proof = Result.get_ok (Zen_snark.Backend.prove bpk ~public ~witness) in
  let state = [| a; b; Fp.two |] in
  (* One recursive merge of two adjacent base transitions s -> s+1 ->
     s+2: verify both children, then prove the merge circuit. *)
  let merge_pair =
    let module G = Zen_snark.Gadget in
    let step =
      Zen_snark.Template.compile ~name:"micro.step"
        (fun ctx (s_from, s_to) ->
          let w_from = G.input ctx s_from and w_to = G.input ctx s_to in
          G.assert_eq ctx (G.add w_from (G.const Fp.one)) w_to)
        (Fp.zero, Fp.one)
    in
    let vk = (Zen_snark.Template.keys step).vk in
    let rsys = Zen_snark.Recursive.create ~name:"micro" ~base_vks:[ vk ] in
    let base i =
      let s_from = Fp.of_int i and s_to = Fp.of_int (i + 1) in
      let proof = Result.get_ok (Zen_snark.Template.prove step (s_from, s_to)) in
      Result.get_ok
        (Zen_snark.Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof)
    in
    let t1 = base 1 and t2 = base 2 in
    fun () -> Zen_snark.Recursive.merge rsys t1 t2
  in
  (* The per-proof loops of a depth-18 insert step: the template
     prover's count-only run (with the native MST update and sibling
     read that feed it), and the R1CS satisfiability check of its ~10.9k
     constraints. *)
  let insert18_prove, insert18_check =
    let open Zen_latus in
    let params = { Params.default with mst_depth = 18 } in
    let family = Circuits.make params in
    let state = Sc_state.create params in
    let step =
      Sc_tx.Insert
        (Utxo.make ~addr:(Hash.of_string "micro")
           ~amount:(Zendoo.Amount.of_int_exn 1)
           ~nonce:(Hash.of_string "micro"))
    in
    (* A compiled template keeps no rows: the check runs on the step's
       circuit synthesized anew, with the same assignment. *)
    let post = Result.get_ok (Sc_tx.apply_step state step) in
    let traced = { Sc_tx.pre = state; step; post } in
    let circuit, public, witness =
      match
        Result.get_ok
          (Circuits.step_job family ~s_from:(Sc_state.hash state)
             ~s_to:(Sc_state.hash post) traced)
      with
      | Circuits.Step (_, tpl, v, _, _) -> Zen_snark.Template.synthesize tpl v
    in
    let z = Array.concat [ [| Fp.one |]; public; witness ] in
    ( (fun () -> Circuits.prove_step family state step),
      fun () -> Zen_snark.R1cs.check circuit z )
  in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"fp-mul" (Staged.stage (fun () -> Fp.mul a b));
      Test.make ~name:"poseidon2" (Staged.stage (fun () -> Poseidon.hash2 a b));
      Test.make ~name:"poseidon-permute"
        (Staged.stage (fun () -> Poseidon.permute state));
      Test.make ~name:"sha256-1k" (Staged.stage (fun () -> Sha256.digest blob));
      Test.make ~name:"hash-tagged-node"
        (Staged.stage (fun () -> Hash.tagged "mht.node" [ node_l; node_r ]));
      Test.make ~name:"mht-build-65"
        (Staged.stage (fun () -> Merkle.of_leaves leaves65));
      Test.make ~name:"schnorr-sign"
        (Staged.stage (fun () -> Schnorr.sign sk "msg"));
      Test.make ~name:"schnorr-verify"
        (Staged.stage (fun () -> Schnorr.verify pk "msg" signature));
      Test.make ~name:"ec-mul-g" (Staged.stage (fun () -> Ec.mul_g scalar));
      Test.make ~name:"mht-verify-1k"
        (Staged.stage (fun () -> Merkle.verify ~root ~leaf proof));
      Test.make ~name:"snark-verify"
        (Staged.stage (fun () ->
             Zen_snark.Backend.verify bvk ~public snark_proof));
      Test.make ~name:"recursive-merge" (Staged.stage merge_pair);
      Test.make ~name:"template-prove-insert18" (Staged.stage insert18_prove);
      Test.make ~name:"r1cs-check-insert18" (Staged.stage insert18_check);
    ]

let run () =
  print_newline ();
  print_endline "=== micro (bechamel OLS, ns/run) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let tests = tests () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  (* Rows in [Test.make] order, so two trees' tables line up. *)
  let names = Test.names tests in
  let width = List.fold_left (fun w n -> max w (String.length n)) 0 names in
  List.iter
    (fun name ->
      let result = Hashtbl.find_opt results name in
      match Option.bind result Analyze.OLS.estimates with
      | Some [ est ] -> Printf.printf "%-*s %12.1f ns\n" width name est
      | _ -> Printf.printf "%-*s (no estimate)\n" width name)
    names
