(* R1CS, gadgets, the simulated backend and recursive composition. *)

open Zen_crypto
open Zen_snark

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* A tiny multiplication circuit: public (x, y), witness z with x*z = y. *)
let synth_divides x y =
  let ctx = Gadget.create () in
  let wx = Gadget.input ctx x in
  let wy = Gadget.input ctx y in
  let z_val = if Fp.is_zero x then Fp.zero else Fp.mul y (Fp.inv x) in
  let wz = Gadget.witness ctx z_val in
  let prod = Gadget.mul ctx wx wz in
  Gadget.assert_eq ~label:"xz=y" ctx prod wy;
  Gadget.finalize ~name:"divides" ctx

let test_r1cs_satisfied () =
  let c, public, witness = synth_divides (Fp.of_int 6) (Fp.of_int 42) in
  checkb "satisfied" true (Result.is_ok (R1cs.satisfied c ~public ~witness));
  checki "public arity" 2 (R1cs.num_public c)

let test_r1cs_unsatisfied () =
  let c, public, _ = synth_divides (Fp.of_int 6) (Fp.of_int 42) in
  let bad = [| Fp.of_int 5; Fp.of_int 30 |] in
  (match R1cs.satisfied c ~public ~witness:bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad witness accepted");
  (* wrong arity *)
  match R1cs.satisfied c ~public ~witness:[||] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty witness accepted"

let test_r1cs_digest_stability () =
  let c1, _, _ = synth_divides (Fp.of_int 6) (Fp.of_int 42) in
  let c2, _, _ = synth_divides (Fp.of_int 7) (Fp.of_int 7) in
  checkb "value-independent digest" true
    (Hash.equal (R1cs.digest c1) (R1cs.digest c2))

let test_gadget_bits () =
  let ctx = Gadget.create () in
  let w = Gadget.input ctx (Fp.of_int 1234) in
  Gadget.assert_le_bits ctx w 11;
  let c, public, witness = Gadget.finalize ~name:"bits" ctx in
  checki "11 bit witnesses" 11 (Array.length witness);
  checki "11 bool rows and a sum row" 12 (R1cs.num_constraints c);
  checkb "satisfied" true (Result.is_ok (R1cs.satisfied c ~public ~witness));
  (* value too large for the width *)
  let ctx2 = Gadget.create () in
  let w2 = Gadget.input ctx2 (Fp.of_int 5000) in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Gadget.assert_le_bits: value does not fit") (fun () ->
      Gadget.assert_le_bits ctx2 w2 11)

let test_gadget_is_zero_select () =
  let run v sel_a =
    let ctx = Gadget.create () in
    let w = Gadget.input ctx (Fp.of_int v) in
    let z = Gadget.is_zero ctx w in
    let s =
      Gadget.select ctx ~cond:z
        (Gadget.const (Fp.of_int 100))
        (Gadget.const (Fp.of_int 200))
    in
    let c, public, witness = Gadget.finalize ~name:"sel" ctx in
    checkb "sat" true (Result.is_ok (R1cs.satisfied c ~public ~witness));
    checki "select" sel_a (Fp.to_int (Gadget.value s))
  in
  run 0 100;
  run 7 200

let test_gadget_poseidon_matches_native () =
  let a = Fp.of_int 111 and b = Fp.of_int 222 in
  let ctx = Gadget.create () in
  let wa = Gadget.input ctx a and wb = Gadget.input ctx b in
  let h = Gadget.poseidon2 ctx wa wb in
  checkb "in-circuit = native" true
    (Fp.equal (Gadget.value h) (Poseidon.hash2 a b));
  let hl = Gadget.poseidon_hash ctx [ wa; wb; h ] in
  checkb "sponge matches" true
    (Fp.equal (Gadget.value hl)
       (Poseidon.hash_list [ a; b; Poseidon.hash2 a b ]));
  let c, public, witness = Gadget.finalize ~name:"poseidon" ctx in
  checkb "sat" true (Result.is_ok (R1cs.satisfied c ~public ~witness))

let test_gadget_merkle_matches_smt () =
  let t =
    Result.get_ok
      (Smt.update_batch (Smt.create ~depth:6)
         (List.map
            (fun (p, v) -> (p, Some (Fp.of_int v)))
            [ (0, 5); (9, 9); (33, 1); (63, 7) ]))
  in
  let pos = 9 in
  let proof = Smt.prove t pos in
  let ctx = Gadget.create () in
  let leaf = Gadget.const (Smt.leaf_hash (Some (Fp.of_int 9))) in
  let path_bits =
    List.init 6 (fun i -> Gadget.const (Fp.of_int ((pos lsr i) land 1)))
  in
  let siblings = List.map Gadget.const (Smt.proof_siblings proof) in
  let root = Gadget.merkle_root ctx ~leaf ~path_bits ~siblings in
  checkb "in-circuit root = smt root" true
    (Fp.equal (Gadget.value root) (Smt.root t))

let test_backend_roundtrip () =
  let c, public, witness = synth_divides (Fp.of_int 3) (Fp.of_int 21) in
  let pk, vk = Backend.setup c in
  let proof = ok (Backend.prove pk ~public ~witness) in
  checkb "verifies" true (Backend.verify vk ~public proof);
  checkb "wrong public" false
    (Backend.verify vk ~public:[| Fp.of_int 3; Fp.of_int 22 |] proof);
  checkb "dummy proof" false (Backend.verify vk ~public Fixtures.zero_proof);
  checki "proof size" Backend.proof_size_bytes
    (String.length (Backend.proof_encode proof))

let test_backend_refuses_bad_witness () =
  let c, public, _ = synth_divides (Fp.of_int 3) (Fp.of_int 21) in
  let pk, _ = Backend.setup c in
  match Backend.prove pk ~public ~witness:[| Fp.of_int 9 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsatisfying witness produced a proof"

let test_backend_vk_encoding () =
  let c, _, _ = synth_divides Fp.one Fp.one in
  let _, vk = Backend.setup c in
  match Backend.vk_decode (Backend.vk_encode vk) with
  | None -> Alcotest.fail "vk decode"
  | Some vk' ->
    checkb "digest stable" true
      (Hash.equal (Backend.vk_digest vk) (Backend.vk_digest vk'))

let test_backend_deterministic_setup () =
  let c1, _, _ = synth_divides Fp.one Fp.one in
  let c2, _, _ = synth_divides (Fp.of_int 9) (Fp.of_int 9) in
  let _, vk1 = Backend.setup c1 and _, vk2 = Backend.setup c2 in
  checkb "same circuit, same vk" true
    (Hash.equal (Backend.vk_digest vk1) (Backend.vk_digest vk2))

(* ---- recursion ---- *)

let synth_step s x =
  let ctx = Gadget.create () in
  let w_from = Gadget.input ctx s in
  let s_to = Poseidon.hash2 s x in
  let w_to = Gadget.input ctx s_to in
  let wx = Gadget.witness ctx x in
  Gadget.assert_eq ~label:"step" ctx (Gadget.poseidon2 ctx w_from wx) w_to;
  (Gadget.finalize ~name:"rec.step" ctx, s_to)

let make_chain sys pk vk s0 n =
  let rec go s i acc =
    if i = n then List.rev acc
    else begin
      let (c, public, witness), s_to = synth_step s (Fp.of_int (1000 + i)) in
      ignore c;
      let proof = ok (Backend.prove pk ~public ~witness) in
      let tp =
        ok (Recursive.of_base sys ~vk ~s_from:s ~s_to ~extra:[||] proof)
      in
      go s_to (i + 1) (tp :: acc)
    end
  in
  go s0 0 []

let setup_rec () =
  let (c, _, _), _ = synth_step Fp.zero Fp.zero in
  let pk, vk = Backend.setup c in
  let sys = Recursive.create ~name:"t" ~base_vks:[ vk ] in
  (sys, pk, vk)

(* The production fold: the balanced tree, built online. *)
let fold_incremental sys ts =
  let fold = Fold.create ~merge:(Recursive.merge sys) in
  List.iter (Fold.push fold) ts;
  Fold.finish fold

let test_recursion_balanced () =
  let sys, pk, vk = setup_rec () in
  let ts = make_chain sys pk vk (Fp.of_int 1) 9 in
  let top = ok (fold_incremental sys ts) in
  checkb "verifies" true (Recursive.verify sys top);
  checki "covers 9" 9 (Recursive.base_count top);
  checki "depth ceil(log2 9)" 4 (Recursive.depth top);
  checkb "endpoints" true
    (Fp.equal (Recursive.s_from top) (Fp.of_int 1)
    && Fp.equal (Recursive.s_to top) (Recursive.s_to (List.nth ts 8)))

(* The degenerate left-fold merge tree: the oracle [fold_balanced] is
   checked against, not a production path. *)
let fold_sequential sys = function
  | [] -> Error "fold_sequential: empty transition list"
  | t :: rest ->
    List.fold_left
      (fun acc t2 ->
        match acc with Error _ as e -> e | Ok t1 -> Recursive.merge sys t1 t2)
      (Ok t) rest

let test_recursion_sequential_shape () =
  let sys, pk, vk = setup_rec () in
  let ts = make_chain sys pk vk (Fp.of_int 1) 5 in
  let top = ok (fold_sequential sys ts) in
  checki "degenerate depth" 4 (Recursive.depth top);
  checkb "verifies" true (Recursive.verify sys top)

let test_recursion_rejects_gap () =
  let sys, pk, vk = setup_rec () in
  let ts = make_chain sys pk vk (Fp.of_int 1) 3 in
  match ts with
  | [ t1; _; t3 ] -> (
    match Recursive.merge sys t1 t3 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "non-adjacent merge accepted")
  | _ -> Alcotest.fail "expected 3"

let test_recursion_rejects_unregistered_vk () =
  let sys, pk, vk = setup_rec () in
  ignore vk;
  (* Another circuit not registered in sys. *)
  let c2, public, witness = synth_divides (Fp.of_int 2) (Fp.of_int 4) in
  ignore c2;
  let pk2, vk2 = Backend.setup c2 in
  ignore pk;
  let proof = ok (Backend.prove pk2 ~public ~witness) in
  match
    Recursive.of_base sys ~vk:vk2 ~s_from:(Fp.of_int 2) ~s_to:(Fp.of_int 4)
      ~extra:[||] proof
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unregistered base vk accepted"

let test_recursion_empty_fold () =
  let sys, _, _ = setup_rec () in
  match fold_incremental sys [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty fold accepted"

(* ---- fold equivalence (property) ----

   [fold_balanced] (any domain count) and [fold_sequential] must accept
   exactly the same inputs: every adjacency-ordered prefix of a chain is
   accepted by both with the same endpoints and base count, and a chain
   broken by dropping an interior element (the odd-carry hazard: the
   gap can land anywhere in the tree) is rejected by both. One 17-link
   chain is built once and sliced, so the property costs 17 base proofs
   total, not 17 per case. *)

let chain17 =
  lazy
    (let sys, pk, vk = setup_rec () in
     (sys, make_chain sys pk vk (Fp.of_int 1) 17))

let take n l = List.filteri (fun i _ -> i < n) l

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let fold_equivalence_prop (len, domains, gap) =
  let sys, chain = Lazy.force chain17 in
  let ts = take len chain in
  (* [gap]: drop an interior link so the endpoints stay but adjacency
     breaks; only meaningful when at least 3 links remain. *)
  let ts, broken =
    match gap with
    | Some k when len >= 3 -> (drop_nth (1 + (k mod (len - 2))) ts, true)
    | _ -> (ts, false)
  in
  let pool = Pool.get ~domains in
  let bal = Fold_oracle.fold_balanced ~pool sys ts in
  let seq = fold_sequential sys ts in
  match (bal, seq) with
  | Ok b, Ok s ->
    (not broken)
    && Recursive.verify sys b && Recursive.verify sys s
    && Fp.equal (Recursive.s_from b) (Recursive.s_from s)
    && Fp.equal (Recursive.s_to b) (Recursive.s_to s)
    && Recursive.base_count b = Recursive.base_count s
    && Recursive.base_count b = List.length ts
  | Error _, Error _ -> broken
  | Ok _, Error _ | Error _, Ok _ -> false

let test_fold_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fold_balanced = fold_sequential" ~count:60
       ~print:(fun (len, domains, gap) ->
         Printf.sprintf "len=%d domains=%d gap=%s" len domains
           (match gap with None -> "-" | Some k -> string_of_int k))
       QCheck2.Gen.(
         triple (int_range 1 17) (oneofl [ 1; 2; 4 ])
           (option (int_range 0 14)))
       fold_equivalence_prop)

let test_fold_equivalence_exhaustive_lengths () =
  (* The qcheck generator samples; the acceptance criterion names every
     length 1..17 (odd-carry shapes) — check them all with each pool. *)
  let sys, chain = Lazy.force chain17 in
  List.iter
    (fun domains ->
      let pool = Pool.get ~domains in
      for len = 1 to 17 do
        let ts = take len chain in
        let b = ok (Fold_oracle.fold_balanced ~pool sys ts) in
        let s = ok (fold_sequential sys ts) in
        checkb
          (Printf.sprintf "len %d domains %d verifies" len domains)
          true
          (Recursive.verify sys b && Recursive.verify sys s);
        checki
          (Printf.sprintf "len %d domains %d count" len domains)
          len (Recursive.base_count b);
        checkb
          (Printf.sprintf "len %d domains %d endpoints agree" len domains)
          true
          (Fp.equal (Recursive.s_to b) (Recursive.s_to s))
      done)
    [ 1; 2; 4 ]

(* ---- The in-order check against the all-rows oracle ---- *)

(* Runs [f] with the registry on and returns its result with the
   growth of [snark.r1cs.constraint_evals] it caused. *)
let with_evals f =
  Zen_obs.Registry.with_enabled @@ fun () ->
  let evals = Zen_obs.Counter.make "snark.r1cs.constraint_evals" in
  let before = Zen_obs.Counter.value evals in
  let r = f () in
  (r, Zen_obs.Counter.value evals - before)

(* A random circuit with a satisfying assignment, built row by row.
   Each row solves for a fresh witness variable on its C side, so it
   holds for the assignment. Rows mix gates ([1·a × 1·b = 1·c]),
   single-term rows with coefficients 0, 1 and random (never all 1),
   and rows of zero to three terms per side. *)
let random_circuit rs =
  let b = R1cs.create () in
  let z = ref [| Fp.one |] in
  let value (v : R1cs.var) = !z.((v :> int)) in
  let fresh alloc x =
    let v = alloc b in
    z := Array.append !z [| x |];
    v
  in
  let rand () = Fp.of_int (Random.State.full_int rs max_int) in
  let n_public = Random.State.int rs 4 in
  let vars =
    ref
      (R1cs.one_var
      :: List.init n_public (fun _ -> fresh R1cs.alloc_input (rand ())))
  in
  for _ = 0 to Random.State.int rs 4 do
    vars := fresh R1cs.alloc_witness (rand ()) :: !vars
  done;
  let pick () = List.nth !vars (Random.State.int rs (List.length !vars)) in
  let coef () =
    match Random.State.int rs 3 with 0 -> Fp.zero | 1 -> Fp.one | _ -> rand ()
  in
  let eval lc =
    List.fold_left
      (fun acc (k, v) -> Fp.add acc (Fp.mul k (value v)))
      Fp.zero lc
  in
  let terms () =
    List.init (Random.State.int rs 4) (fun _ -> (coef (), pick ()))
  in
  let rows = ref [] in
  for i = 0 to Random.State.int rs 40 do
    let a, bb, c_rest, kc =
      match Random.State.int rs 3 with
      | 0 -> ([ (Fp.one, pick ()) ], [ (Fp.one, pick ()) ], [], Fp.one)
      | 1 ->
        let ka = coef () and kb = coef () in
        let kc =
          if Fp.equal ka Fp.one && Fp.equal kb Fp.one then rand ()
          else coef ()
        in
        (* A zero C coefficient leaves nothing to solve for: make the
           product zero instead. *)
        let ka = if Fp.is_zero kc then Fp.zero else ka in
        ([ (ka, pick ()) ], [ (kb, pick ()) ], [], kc)
      | _ ->
        let kc = rand () in
        (terms (), terms (), terms (), if Fp.is_zero kc then Fp.one else kc)
    in
    let target = Fp.add (Fp.mul (eval a) (eval bb)) (Fp.neg (eval c_rest)) in
    let out =
      if Fp.is_zero kc then fresh R1cs.alloc_witness (rand ())
      else fresh R1cs.alloc_witness (Fp.mul target (Fp.inv kc))
    in
    vars := out :: !vars;
    let c = c_rest @ [ (kc, out) ] in
    let label =
      if i mod 3 = 0 then None else Some (Printf.sprintf "row%d" i)
    in
    R1cs.constrain ?label b a bb c;
    rows := { R1cs.a; b = bb; c; label } :: !rows
  done;
  (R1cs.finalize ~name:"random" b, Array.of_list (List.rev !rows), !z)

(* Overwrites up to three public or witness entries with random
   values; a rewrite may leave an entry unchanged. *)
let corrupt rs z =
  let z = Array.copy z in
  if Array.length z > 1 then
    for _ = 1 to Random.State.int rs 4 do
      z.(1 + Random.State.int rs (Array.length z - 1)) <-
        Fp.of_int (Random.State.full_int rs max_int)
    done;
  z

let check_matches_oracle circuit z =
  let check = with_evals (fun () -> R1cs.check circuit z) in
  let oracle =
    with_evals (fun () -> R1cs_oracle.check (R1cs_oracle.of_circuit circuit) z)
  in
  check = oracle

let test_check_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"r1cs check = all-rows oracle" ~count:500
       QCheck2.Gen.int
       (fun seed ->
         let rs = Random.State.make [| seed |] in
         let circuit, rows, z = random_circuit rs in
         R1cs.constraints circuit = rows
         && Result.is_ok (R1cs.check circuit z)
         && check_matches_oracle circuit (corrupt rs z)))

let suite =
  ( "snark",
    [
      Alcotest.test_case "r1cs satisfied" `Quick test_r1cs_satisfied;
      Alcotest.test_case "r1cs unsatisfied" `Quick test_r1cs_unsatisfied;
      Alcotest.test_case "r1cs digest stable" `Quick test_r1cs_digest_stability;
      test_check_matches_oracle;
      Alcotest.test_case "gadget bits" `Quick test_gadget_bits;
      Alcotest.test_case "gadget is_zero/select" `Quick test_gadget_is_zero_select;
      Alcotest.test_case "gadget poseidon" `Quick test_gadget_poseidon_matches_native;
      Alcotest.test_case "gadget merkle" `Quick test_gadget_merkle_matches_smt;
      Alcotest.test_case "backend roundtrip" `Quick test_backend_roundtrip;
      Alcotest.test_case "backend soundness" `Quick test_backend_refuses_bad_witness;
      Alcotest.test_case "backend vk encoding" `Quick test_backend_vk_encoding;
      Alcotest.test_case "backend deterministic" `Quick test_backend_deterministic_setup;
      Alcotest.test_case "recursion balanced" `Quick test_recursion_balanced;
      Alcotest.test_case "recursion sequential" `Quick test_recursion_sequential_shape;
      Alcotest.test_case "recursion gap" `Quick test_recursion_rejects_gap;
      Alcotest.test_case "recursion vk registry" `Quick
        test_recursion_rejects_unregistered_vk;
      Alcotest.test_case "recursion empty" `Quick test_recursion_empty_fold;
      test_fold_equivalence;
      Alcotest.test_case "fold equivalence exhaustive" `Quick
        test_fold_equivalence_exhaustive_lengths;
    ] )
