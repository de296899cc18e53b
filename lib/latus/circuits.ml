open Zen_crypto
open Zen_snark
open Zendoo

type keys = Template.keys = {
  pk : Backend.proving_key;
  vk : Backend.verification_key;
  constraints : int;
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

type family = {
  params : Params.t;
  remove : slot_values Template.t;
  insert : slot_values Template.t;
  append : append_values Template.t;
  wcert : wcert_values Template.t;
  ownership : ownership_values Template.t;
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

(* Every circuit compiles once here; [resynth] picks the reference
   witness generator ({!Template.compile_resynth}). *)
let build ~resynth params =
  let compile ~name body dummy =
    if resynth then Template.compile_resynth ~name body dummy
    else Template.compile ~name body dummy
  in
  let depth = params.Params.mst_depth in
  let remove =
    compile ~name:"latus.remove"
      (slot_write_body ~depth ~remove:true)
      (dummy_slot depth)
  in
  let insert =
    compile ~name:"latus.insert"
      (slot_write_body ~depth ~remove:false)
      (dummy_slot depth)
  in
  let append =
    compile ~name:"latus.append_bt" append_body
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
    compile ~name:"latus.wcert" wcert_body
      {
        w_public = Array.make 5 Fp.zero;
        w_s_prev = Fp.zero;
        w_s_last = Fp.zero;
      }
  in
  let ownership =
    compile ~name:"latus.ownership" (ownership_body ~depth)
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

let vk c = (Template.keys c).vk
let base_vks f = [ vk f.remove; vk f.insert; vk f.append ]
let wcert_keys f = Template.keys f.wcert
let ownership_keys f = Template.keys f.ownership

let ( let* ) = Result.bind

(* The two slot-write directions share one witness shape. *)
let assign_slot_write c (state : Sc_state.t) ~s_from_v ~mst_after utxo pos =
  let siblings = Smt.proof_siblings (Mst.prove_slot state.mst pos) in
  let s_to_v = Poseidon.hash2 (Mst.root mst_after) state.bt_acc in
  let* public, witness =
    Template.assign c
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
  Ok (Template.keys c, public, witness, s_from_v, s_to_v)

let step_assignment f (state : Sc_state.t) step =
  let s_from_v = Sc_state.hash state in
  match step with
  | Sc_tx.Remove utxo -> (
    match Mst.find_utxo state.mst utxo with
    | None -> Error "prove: utxo not in state"
    | Some pos ->
      let* mst_after = Mst.apply_ops state.mst [ Mst.Op_remove utxo ] in
      assign_slot_write f.remove state ~s_from_v ~mst_after utxo pos)
  | Sc_tx.Insert utxo -> (
    let pos = Utxo.position ~mst_depth:f.params.Params.mst_depth utxo in
    match Mst.get state.mst pos with
    | Some _ -> Error "prove: slot occupied"
    | None ->
      let* mst_after = Mst.apply_ops state.mst [ Mst.Op_insert utxo ] in
      assign_slot_write f.insert state ~s_from_v ~mst_after utxo pos)
  | Sc_tx.Append_bt bt ->
    let recv, amt = Backward_transfer.to_fp_pair bt in
    let acc1 = Sc_state.bt_acc_step state.bt_acc bt in
    let root = Mst.root state.mst in
    let s_to_v = Poseidon.hash2 root acc1 in
    let* public, witness =
      Template.assign f.append
        {
          a_root = root;
          a_acc0 = state.bt_acc;
          a_recv = recv;
          a_amt = amt;
          a_s_from = s_from_v;
          a_s_to = s_to_v;
        }
    in
    Ok (Template.keys f.append, public, witness, s_from_v, s_to_v)

let prove_step f state step =
  let* keys, public, witness, s_from, s_to = step_assignment f state step in
  let* proof = Backend.prove keys.pk ~public ~witness in
  Ok (proof, keys.vk, s_from, s_to)

let prove_wcert_binding f ~quality ~bt_root ~end_prev_epoch ~end_epoch
    ~proofdata ~s_prev ~s_last =
  let w_public =
    Array.append
      (Withdrawal_certificate.sysdata ~quality ~bt_root
         ~end_prev_epoch ~end_epoch)
      [| Proofdata.root_fp proofdata |]
  in
  Template.prove f.wcert { w_public; w_s_prev = s_prev; w_s_last = s_last }

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
    Template.prove f.ownership
      {
        o_public;
        o_addr = Hash.to_fp utxo.addr;
        o_amt = Amount.to_fp utxo.amount;
        o_nonce = Hash.to_fp utxo.nonce;
        o_pos = pos;
        o_siblings = siblings;
        o_root = Mst.root mst;
      }
