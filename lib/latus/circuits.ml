open Zen_crypto
open Zen_snark
open Zendoo

type keys = {
  pk : Backend.proving_key;
  vk : Backend.verification_key;
  constraints : int;
}

(* A compiled circuit: keys set up once, at family creation, from the
   synthesized and digested R1CS shape, plus a witness generator that
   fills the assignment for concrete values. On the production path
   ([make]) the generator re-runs the gadget code in evaluation mode,
   so the per-proof cost is field arithmetic only — no constraint
   lists, no SHA-256 re-digesting. *)
type 'v compiled = {
  keys : keys;
  assign : 'v -> (Fp.t array * Fp.t array, string) result;
}

let bits_of_pos pos d = List.init d (fun i -> Fp.of_int ((pos lsr i) land 1))

(* ---- Slot-write circuit (Remove and Insert directions) ---- *)

type slot_values = {
  acc : Fp.t;
  addr : Fp.t;
  amt : Fp.t;
  nonce : Fp.t;
  pos : int;
  siblings : Fp.t list;
  s_from_v : Fp.t;
  s_to_v : Fp.t;
}

let slot_write_body ~depth ~remove ctx v =
  let s_from = Gadget.input ctx v.s_from_v in
  let s_to = Gadget.input ctx v.s_to_v in
  let acc = Gadget.witness ctx v.acc in
  let addr = Gadget.witness ctx v.addr in
  let amt = Gadget.witness ctx v.amt in
  let nonce = Gadget.witness ctx v.nonce in
  let path_bits =
    List.map
      (fun b ->
        let w = Gadget.witness ctx b in
        Gadget.assert_bool ~label:"slot.posbit" ctx w;
        w)
      (bits_of_pos v.pos depth)
  in
  let siblings = List.map (Gadget.witness ctx) v.siblings in
  Gadget.assert_le_bits ctx amt Amount.amount_bits;
  let leaf_commit = Gadget.poseidon_hash ctx [ addr; amt; nonce ] in
  let occupied = Gadget.poseidon2 ctx leaf_commit (Gadget.const Fp.one) in
  let empty = Gadget.const Smt.empty_leaf_hash in
  let root_occupied =
    Gadget.merkle_root ctx ~leaf:occupied ~path_bits ~siblings
  in
  let root_empty = Gadget.merkle_root ctx ~leaf:empty ~path_bits ~siblings in
  let root_before, root_after =
    if remove then (root_occupied, root_empty)
    else (root_empty, root_occupied)
  in
  Gadget.assert_eq ~label:"slot.s_from" ctx
    (Gadget.poseidon2 ctx root_before acc)
    s_from;
  Gadget.assert_eq ~label:"slot.s_to" ctx
    (Gadget.poseidon2 ctx root_after acc)
    s_to

(* ---- Backward-transfer accumulation circuit ---- *)

type append_values = {
  a_root : Fp.t;
  a_acc0 : Fp.t;
  a_recv : Fp.t;
  a_amt : Fp.t;
  a_s_from : Fp.t;
  a_s_to : Fp.t;
}

let append_body ctx v =
  let s_from = Gadget.input ctx v.a_s_from in
  let s_to = Gadget.input ctx v.a_s_to in
  let root = Gadget.witness ctx v.a_root in
  let acc0 = Gadget.witness ctx v.a_acc0 in
  let recv = Gadget.witness ctx v.a_recv in
  let amt = Gadget.witness ctx v.a_amt in
  Gadget.assert_le_bits ctx amt Amount.amount_bits;
  let bt_commit = Gadget.poseidon2 ctx recv amt in
  let acc1 = Gadget.poseidon2 ctx acc0 bt_commit in
  Gadget.assert_eq ~label:"append.s_from" ctx
    (Gadget.poseidon2 ctx root acc0)
    s_from;
  Gadget.assert_eq ~label:"append.s_to" ctx
    (Gadget.poseidon2 ctx root acc1)
    s_to

(* ---- Withdrawal-certificate binding circuit ---- *)

type wcert_values = {
  w_public : Fp.t array; (* quality, bt_root, end_prev, end_epoch, pd_root *)
  w_s_prev : Fp.t;
  w_s_last : Fp.t;
}

let wcert_body ctx v =
  let public = Array.to_list (Array.map (Gadget.input ctx) v.w_public) in
  let s_prev = Gadget.witness ctx v.w_s_prev in
  let s_last = Gadget.witness ctx v.w_s_last in
  let binding = Gadget.poseidon_hash ctx (public @ [ s_prev; s_last ]) in
  let binding_copy = Gadget.witness ctx (Gadget.value binding) in
  Gadget.assert_eq ~label:"wcert.binding" ctx binding binding_copy

(* ---- BTR/CSW ownership circuit (§5.5.3.2) ---- *)

type ownership_values = {
  o_public : Fp.t array; (* ref_block, nullifier, receiver, amount, pd_root *)
  o_addr : Fp.t;
  o_amt : Fp.t;
  o_nonce : Fp.t;
  o_pos : int;
  o_siblings : Fp.t list;
  o_root : Fp.t;
}

let ownership_body ~depth ctx v =
  let public = Array.map (Gadget.input ctx) v.o_public in
  let amount_pub = public.(3) in
  let addr = Gadget.witness ctx v.o_addr in
  let amt = Gadget.witness ctx v.o_amt in
  let nonce = Gadget.witness ctx v.o_nonce in
  let path_bits =
    List.map
      (fun b ->
        let w = Gadget.witness ctx b in
        Gadget.assert_bool ~label:"own.posbit" ctx w;
        w)
      (bits_of_pos v.o_pos depth)
  in
  let siblings = List.map (Gadget.witness ctx) v.o_siblings in
  let hist_root = Gadget.witness ctx v.o_root in
  Gadget.assert_le_bits ctx amt Amount.amount_bits;
  let leaf_commit = Gadget.poseidon_hash ctx [ addr; amt; nonce ] in
  let occupied = Gadget.poseidon2 ctx leaf_commit (Gadget.const Fp.one) in
  let root = Gadget.merkle_root ctx ~leaf:occupied ~path_bits ~siblings in
  Gadget.assert_eq ~label:"own.root" ctx root hist_root;
  Gadget.assert_eq ~label:"own.amount" ctx amt amount_pub

(* ---- Compilation (once per family) ---- *)

(* Synthesizes [body] once on dummy values and sets up its keys. With
   [resynth] the witness generator runs full synthesis plus re-digest
   on every prove and refuses a shape that diverged from the keys: the
   reference the evaluation-mode generator is tested against. *)
let compile ~resynth ~name body dummy =
  let ctx = Gadget.create () in
  body ctx dummy;
  let circuit, _, _ = Gadget.finalize ~name ctx in
  let pk, vk = Backend.setup circuit in
  let keys = { pk; vk; constraints = R1cs.num_constraints circuit } in
  let assign =
    if resynth then fun v ->
      let ctx = Gadget.create () in
      body ctx v;
      let fresh, public, witness = Gadget.finalize ~name ctx in
      if Hash.equal (R1cs.digest fresh) (R1cs.digest circuit) then Ok (public, witness)
      else Error "circuit shape diverged from setup"
    else fun v ->
      let ctx = Gadget.create_eval () in
      body ctx v;
      Ok (Gadget.assignment ctx)
  in
  { keys; assign }

type family = {
  params : Params.t;
  remove : slot_values compiled;
  insert : slot_values compiled;
  append : append_values compiled;
  wcert : wcert_values compiled;
  ownership : ownership_values compiled;
}

let dummy_slot depth =
  {
    acc = Fp.zero;
    addr = Fp.zero;
    amt = Fp.zero;
    nonce = Fp.zero;
    pos = 0;
    siblings = List.init depth (fun _ -> Fp.zero);
    s_from_v = Fp.zero;
    s_to_v = Fp.zero;
  }

let build ~resynth params =
  let depth = params.Params.mst_depth in
  let remove =
    compile ~resynth ~name:"latus.remove"
      (slot_write_body ~depth ~remove:true)
      (dummy_slot depth)
  in
  let insert =
    compile ~resynth ~name:"latus.insert"
      (slot_write_body ~depth ~remove:false)
      (dummy_slot depth)
  in
  let append =
    compile ~resynth ~name:"latus.append_bt" append_body
      {
        a_root = Fp.zero;
        a_acc0 = Fp.zero;
        a_recv = Fp.zero;
        a_amt = Fp.zero;
        a_s_from = Fp.zero;
        a_s_to = Fp.zero;
      }
  in
  let wcert =
    compile ~resynth ~name:"latus.wcert" wcert_body
      {
        w_public = Array.make 5 Fp.zero;
        w_s_prev = Fp.zero;
        w_s_last = Fp.zero;
      }
  in
  let ownership =
    compile ~resynth ~name:"latus.ownership" (ownership_body ~depth)
      {
        o_public = Array.make 5 Fp.zero;
        o_addr = Fp.zero;
        o_amt = Fp.zero;
        o_nonce = Fp.zero;
        o_pos = 0;
        o_siblings = List.init depth (fun _ -> Fp.zero);
        o_root = Fp.zero;
      }
  in
  { params; remove; insert; append; wcert; ownership }

let make params = build ~resynth:false params
let make_resynth params = build ~resynth:true params

let base_vks f = [ f.remove.keys.vk; f.insert.keys.vk; f.append.keys.vk ]
let wcert_keys f = f.wcert.keys
let ownership_keys f = f.ownership.keys

let step_keys f = function
  | Sc_tx.Remove _ -> f.remove.keys
  | Sc_tx.Insert _ -> f.insert.keys
  | Sc_tx.Append_bt _ -> f.append.keys

let ( let* ) = Result.bind

let prove_via c v =
  let* public, witness = c.assign v in
  Backend.prove c.keys.pk ~public ~witness

(* The two slot-write directions share one witness shape. *)
let prove_slot_write c (state : Sc_state.t) ~s_from_v ~mst_after utxo pos =
  let siblings = Smt.proof_siblings (Mst.prove_slot state.mst pos) in
  let s_to_v = Poseidon.hash2 (Mst.root mst_after) state.bt_acc in
  let* proof =
    prove_via c
      {
        acc = state.bt_acc;
        addr = Hash.to_fp utxo.Utxo.addr;
        amt = Amount.to_fp utxo.amount;
        nonce = Hash.to_fp utxo.nonce;
        pos;
        siblings;
        s_from_v;
        s_to_v;
      }
  in
  Ok (proof, c.keys.vk, s_from_v, s_to_v)

let prove_step f (state : Sc_state.t) step =
  let s_from_v = Sc_state.hash state in
  match step with
  | Sc_tx.Remove utxo -> (
    match Mst.find_utxo state.mst utxo with
    | None -> Error "prove: utxo not in state"
    | Some pos ->
      let* mst_after, _ = Mst.remove state.mst utxo in
      prove_slot_write f.remove state ~s_from_v ~mst_after utxo pos)
  | Sc_tx.Insert utxo -> (
    let pos = Utxo.position ~mst_depth:f.params.Params.mst_depth utxo in
    match Mst.get state.mst pos with
    | Some _ -> Error "prove: slot occupied"
    | None ->
      let* mst_after, _ = Mst.insert state.mst utxo in
      prove_slot_write f.insert state ~s_from_v ~mst_after utxo pos)
  | Sc_tx.Append_bt bt ->
    let recv, amt = Backward_transfer.to_fp_pair bt in
    let acc1 = Sc_state.bt_acc_step state.bt_acc bt in
    let root = Mst.root state.mst in
    let s_to_v = Poseidon.hash2 root acc1 in
    let* proof =
      prove_via f.append
        {
          a_root = root;
          a_acc0 = state.bt_acc;
          a_recv = recv;
          a_amt = amt;
          a_s_from = s_from_v;
          a_s_to = s_to_v;
        }
    in
    Ok (proof, f.append.keys.vk, s_from_v, s_to_v)

let prove_wcert_binding f ~quality ~bt_root ~end_prev_epoch ~end_epoch
    ~proofdata ~s_prev ~s_last =
  let w_public =
    Array.append
      (Withdrawal_certificate.sysdata ~quality ~bt_root
         ~end_prev_epoch ~end_epoch)
      [| Proofdata.root_fp proofdata |]
  in
  prove_via f.wcert { w_public; w_s_prev = s_prev; w_s_last = s_last }

let prove_ownership f ~mst ~utxo ~reference_block ~receiver ~proofdata =
  match Mst.find_utxo mst utxo with
  | None -> Error "ownership: utxo not in the committed state"
  | Some pos ->
    let siblings = Smt.proof_siblings (Mst.prove_slot mst pos) in
    let o_public =
      Array.append
        (Mainchain_withdrawal.sysdata ~reference_block
           ~nullifier:(Utxo.nullifier utxo) ~receiver ~amount:utxo.amount)
        [| Proofdata.root_fp proofdata |]
    in
    prove_via f.ownership
      {
        o_public;
        o_addr = Hash.to_fp utxo.addr;
        o_amt = Amount.to_fp utxo.amount;
        o_nonce = Hash.to_fp utxo.nonce;
        o_pos = pos;
        o_siblings = siblings;
        o_root = Mst.root mst;
      }
