(* End-to-end integration of the Latus node against the mainchain:
   full withdrawal-epoch cycles (Figs. 13–14), heartbeat certificates,
   the quality rule, ceasing and ceased-sidechain withdrawals, BTR
   round-trips, and MC-fork-driven sidechain rollback. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let params = Params.default
let family = Circuits.make params

(* One world per test: mainchain + one Latus sidechain. *)
type world = {
  mutable chain : Chain.t;
  mutable mempool : Mempool.t;
  mc_wallet : Wallet.t;
  miner : Hash.t;
  node : Node.t;
  ledger_id : Hash.t;
  config : Sidechain_config.t;
  mutable time : int;
}

let mine w =
  w.time <- w.time + 1;
  let b, _ =
    ok
      (Miner.build_block w.chain ~time:w.time ~miner_addr:w.miner
         ~candidates:(Mempool.txs w.mempool))
  in
  let c, _ = ok (Chain.add_block w.chain b) in
  w.chain <- c;
  w.mempool <- Mempool.remove_included w.mempool b

let mine_n w n =
  for _ = 1 to n do
    mine w
  done

let submit w tx = w.mempool <- Mempool.add w.mempool tx

(* Standard world: fund 5 blocks, create SC with epoch_len 4 and
   submit_len 2, activation right after creation. *)
let make_world seed =
  let mc_params = { Chain_state.default_params with pow = Pow.trivial } in
  let chain = Chain.create ~params:mc_params ~time:0 () in
  let mc_wallet = Wallet.create ~seed in
  let miner = Wallet.fresh_address mc_wallet in
  let ledger_id =
    Sidechain_config.derive_ledger_id ~creator:miner ~nonce:7
  in
  let w =
    {
      chain;
      mempool = Mempool.empty;
      mc_wallet;
      miner;
      node = Obj.magic 0;
      ledger_id;
      config = Obj.magic 0;
      time = 0;
    }
  in
  mine_n w 5;
  (* heights 1..5 *)
  let config =
    ok
      (Node.config_for ~ledger_id ~start_block:7 ~epoch_len:4 ~submit_len:2
         family)
  in
  submit w (Tx.Sc_create config);
  mine w;
  (* height 6; sc active from 7; epoch 0 = 7..10 *)
  let forger = Sc_wallet.create ~seed:(seed ^ ".forger") in
  let (_ : Hash.t) = Sc_wallet.fresh_address forger in
  let node = ok (Node.create ~config ~params ~family ~forger ()) in
  { w with node; config }

let do_ft w ~receiver ~payback ~amt =
  let tx =
    ok
      (Wallet.build_forward_transfer w.mc_wallet (Chain.tip_state w.chain)
         ~ledger_id:w.ledger_id
         ~receiver_metadata:(Sc_tx.ft_metadata ~receiver ~payback)
         ~amount:amt ~fee:Amount.zero)
  in
  submit w tx

let forge w = ok (Node.forge w.node ~mc:w.chain ~slot:w.time ())

let build_and_submit_cert w =
  match ok (Node.build_certificate w.node ~mc:w.chain) with
  | None -> Alcotest.fail "expected a certificate"
  | Some tx ->
    submit w tx;
    tx

let sc_state_on_mc w =
  Option.get (Sc_ledger.find (Chain.tip_state w.chain).scs w.ledger_id)

(* ---- tests ---- *)

let test_full_epoch_cycle () =
  let w = make_world "cycle" in
  let user = Sc_wallet.create ~seed:"cycle.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  (* height 7: epoch 0 underway *)
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 500_000);
  mine_n w 4;
  (* past height 10: epoch 0 complete on MC *)
  let b = forge w in
  checkb "block forged" true (b <> None);
  checki "user funded on SC" 500_000
    (Amount.to_int (Sc_wallet.balance user (Node.tip_state w.node)));
  (* BT back to MC in epoch 1 *)
  let mc_recv = Wallet.fresh_address w.mc_wallet in
  let u = List.hd (Sc_wallet.utxos user (Node.next_block_state w.node)) in
  let bt =
    ok
      (Sc_wallet.build_backward_transfer user (Node.next_block_state w.node)
         ~utxo:u ~mc_receiver:mc_recv)
  in
  ok (Node.submit_tx w.node bt);
  let _ = forge w in
  (* certificate for epoch 0 (empty BT list) accepted *)
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  checki "epoch 0 certified" 1 (List.length (sc_state_on_mc w).certs);
  (* run epoch 1 to completion (MC heights 11..14); keep the tip at 15
     so the epoch-1 certificate lands inside its window (15..16) *)
  mine_n w 3;
  let _ = forge w in
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  let sc = sc_state_on_mc w in
  checki "epoch 1 certified" 2 (List.length sc.certs);
  checki "safeguard balance decreased" 0 (Amount.to_int sc.balance);
  (* BT payout exists (immature until window end) *)
  let payout_exists =
    Utxo_set.fold (Chain.tip_state w.chain).utxos ~init:false
      ~f:(fun acc _ c -> acc || Hash.equal c.Utxo_set.addr mc_recv)
  in
  checkb "payout utxo created" true payout_exists

let test_heartbeat_empty_epoch () =
  let w = make_world "heartbeat" in
  (* No FTs at all; epoch 0 passes; the certificate must still work. *)
  mine_n w 5;
  let b = forge w in
  checkb "refs-only block" true (b <> None);
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  let sc = sc_state_on_mc w in
  checki "heartbeat cert accepted" 1 (List.length sc.certs);
  checki "no backward transfers" 0
    (List.length (List.hd sc.certs).cert.bt_list)

let test_cert_outside_window_rejected () =
  let w = make_world "window" in
  mine_n w 5;
  let _ = forge w in
  (* Build the cert but delay submission past the window
     (window for epoch 0 = heights 11..12). *)
  let cert_tx =
    match ok (Node.build_certificate w.node ~mc:w.chain) with
    | Some tx -> tx
    | None -> Alcotest.fail "no cert"
  in
  mine_n w 3;
  (* now at height 14: too late, and the SC has ceased *)
  let st = Chain.tip_state w.chain in
  (match
     Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero
       cert_tx
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "late certificate accepted");
  checkb "ceased" true
    (Sc_ledger.is_ceased st.scs w.ledger_id ~height:st.height)

let test_quality_rule () =
  let w = make_world "quality" in
  mine_n w 5;
  let _ = forge w in
  let cert_tx = build_and_submit_cert w in
  mine w;
  checki "accepted" 1 (List.length (sc_state_on_mc w).certs);
  (* Re-submitting the same certificate (equal quality) must fail. *)
  let st = Chain.tip_state w.chain in
  match
    Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero
      cert_tx
  with
  | Error e ->
    checkb "quality error" true
      (String.length e > 0
      && (String.sub e 0 4 = "cert" || String.length e > 4))
  | Ok _ -> Alcotest.fail "equal-quality certificate accepted"

let test_withheld_cert_ceases_then_csw () =
  let w = make_world "cease" in
  let user = Sc_wallet.create ~seed:"cease.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 900_000);
  mine_n w 4;
  let _ = forge w in
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  (* Withhold the epoch-1 certificate; mine past its window
     (epoch 1 = 11..14, window 15..16). *)
  mine_n w 7;
  checkb "ceased" true
    (Sc_ledger.is_ceased (Chain.tip_state w.chain).scs w.ledger_id
       ~height:(Chain.tip_state w.chain).height);
  (* CSW for the user's coin against the epoch-0 committed state. *)
  let committed = Option.get (Node.state_at_epoch_end w.node ~epoch:0) in
  let u = List.hd (Sc_wallet.utxos user committed) in
  let mc_recv = Wallet.fresh_address w.mc_wallet in
  let sc = sc_state_on_mc w in
  let csw =
    ok
      (Node.create_withdrawal_request w.node ~kind:Mainchain_withdrawal.Csw
         ~utxo:u ~receiver:mc_recv
         ~reference_block:(Sc_ledger.reference_block_for sc)
         ())
  in
  submit w (Tx.Withdrawal_request csw);
  mine w;
  let sc = sc_state_on_mc w in
  checki "balance drained" 0 (Amount.to_int sc.balance);
  let coins = Utxo_set.coins_of_addr (Chain.tip_state w.chain).utxos mc_recv in
  checki "payout" 1 (List.length coins);
  (* Replay must be blocked by the nullifier. *)
  let st = Chain.tip_state w.chain in
  match
    Sc_ledger.check_withdrawal st.scs ~request:csw ~height:(st.height + 1)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nullifier replay accepted"

let test_csw_rejected_while_active () =
  let w = make_world "active-csw" in
  let user = Sc_wallet.create ~seed:"acsw.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 100_000);
  mine_n w 4;
  let _ = forge w in
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  let committed = Option.get (Node.state_at_epoch_end w.node ~epoch:0) in
  let u = List.hd (Sc_wallet.utxos user committed) in
  let sc = sc_state_on_mc w in
  let csw =
    ok
      (Node.create_withdrawal_request w.node ~kind:Mainchain_withdrawal.Csw
         ~utxo:u ~receiver:(Wallet.fresh_address w.mc_wallet)
         ~reference_block:(Sc_ledger.reference_block_for sc)
         ())
  in
  let st = Chain.tip_state w.chain in
  match
    Sc_ledger.check_withdrawal st.scs ~request:csw ~height:(st.height + 1)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "CSW accepted on an active sidechain"

let test_btr_full_flow () =
  let w = make_world "btr" in
  let user = Sc_wallet.create ~seed:"btr.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 300_000);
  mine_n w 4;
  let _ = forge w in
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  (* The user requests withdrawal via the MAINCHAIN (BTR). *)
  let committed = Option.get (Node.state_at_epoch_end w.node ~epoch:0) in
  let u = List.hd (Sc_wallet.utxos user committed) in
  let mc_recv = Wallet.fresh_address w.mc_wallet in
  let sc = sc_state_on_mc w in
  let btr =
    ok
      (Node.create_withdrawal_request w.node ~kind:Mainchain_withdrawal.Btr
         ~utxo:u ~receiver:mc_recv
         ~reference_block:(Sc_ledger.reference_block_for sc)
         ())
  in
  submit w (Tx.Withdrawal_request btr);
  mine w;
  (* BTR does not move funds on the MC. *)
  checki "balance unchanged" 300_000 (Amount.to_int (sc_state_on_mc w).balance);
  (* Sync epoch 1 into the sidechain: the BTR becomes a BT. *)
  mine_n w 2;
  (* completes epoch 1 (heights 11..14) *)
  let _ = forge w in
  let st = Node.tip_state w.node in
  checki "btr became bt" 1 (List.length (Sc_state.backward_transfers st));
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  let sc = sc_state_on_mc w in
  checki "funds withdrawn via cert" 0 (Amount.to_int sc.balance)

let test_mc_reorg_rolls_back_sidechain () =
  let w = make_world "reorg" in
  mine_n w 2;
  (* heights 7..8 *)
  let fork_base = w.chain in
  mine w;
  (* height 9 on branch A *)
  let _ = forge w in
  checki "synced to 9" 9 (Node.mc_synced_height w.node);
  let sc_height_before = Node.sc_height w.node in
  (* Build branch B: two blocks on top of height 8. *)
  let alt = ref fork_base in
  let alt_miner = Wallet.fresh_address (Wallet.create ~seed:"reorg-alt") in
  let b1, _ = ok (Miner.build_block !alt ~time:500 ~miner_addr:alt_miner ~candidates:[]) in
  let c1, _ = ok (Chain.add_block !alt b1) in
  alt := c1;
  let b2, _ = ok (Miner.build_block !alt ~time:501 ~miner_addr:alt_miner ~candidates:[]) in
  let c, _ = ok (Chain.add_block w.chain b1) in
  w.chain <- c;
  let c, outcome = ok (Chain.add_block w.chain b2) in
  w.chain <- c;
  (match outcome with
  | Chain.Reorg _ -> ()
  | _ -> Alcotest.fail "expected a reorg");
  (* Next forge must roll back the SC block referencing the orphaned
     MC block and re-reference the new branch. *)
  let b = forge w in
  checkb "reforged" true (b <> None);
  checki "re-synced to new tip" 10 (Node.mc_synced_height w.node);
  checkb "sc chain rolled back and rebuilt" true
    (Node.sc_height w.node <= sc_height_before + 1);
  (* All current refs are on the best chain. *)
  let all_on_best =
    List.for_all
      (fun (blk : Sc_block.t) ->
        List.for_all
          (fun r -> Chain.on_best_chain w.chain (Mc_ref.block_hash r))
          blk.mc_refs)
      (Node.blocks w.node)
  in
  checkb "refs consistent" true all_on_best

let test_mc_ref_verification () =
  let w = make_world "mcref" in
  let user = Sc_wallet.create ~seed:"mcref.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 1_000);
  mine w;
  (* The block that carried the FT: *)
  let mc_block = Fixtures.tip_block w.chain in
  let r = ok (Mc_ref.build ~ledger_id:w.ledger_id mc_block) in
  checkb "has data" true (r.Mc_ref.fts <> [] && r.mproof <> None);
  checkb "verifies" true (Result.is_ok (Mc_ref.verify ~ledger_id:w.ledger_id r));
  (* Dropping the FT from the ref must break verification. *)
  let forged = { r with Mc_ref.fts = [] } in
  checkb "forged slice rejected" true
    (Result.is_error (Mc_ref.verify ~ledger_id:w.ledger_id forged));
  (* A sidechain with no data in this block gets an absence proof. *)
  let other = Sidechain_config.derive_ledger_id ~creator:payback ~nonce:9 in
  let r2 = ok (Mc_ref.build ~ledger_id:other mc_block) in
  checkb "absence" true
    (r2.Mc_ref.fts = [] && r2.btrs = [] && r2.wcert = None
    && r2.proof_of_no_data <> None);
  checkb "absence verifies" true
    (Result.is_ok (Mc_ref.verify ~ledger_id:other r2))

let test_delta_guard_blocks_stale_withdrawal () =
  let w = make_world "delta" in
  let user = Sc_wallet.create ~seed:"delta.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 200_000);
  mine_n w 4;
  let _ = forge w in
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  (* The user SPENDS the coin in epoch 1. *)
  let committed0 = Option.get (Node.state_at_epoch_end w.node ~epoch:0) in
  let u = List.hd (Sc_wallet.utxos user committed0) in
  let other = Sc_wallet.create ~seed:"delta.other" in
  let other_addr = Sc_wallet.fresh_address other in
  let pay =
    ok
      (Sc_wallet.build_payment user (Node.next_block_state w.node)
         ~to_:other_addr ~amount:(amount 200_000))
  in
  ok (Node.submit_tx w.node pay);
  mine_n w 3;
  let _ = forge w in
  let (_ : Tx.t) = build_and_submit_cert w in
  mine w;
  checki "two epochs certified" 2 (List.length (sc_state_on_mc w).certs);
  (* A withdrawal against the OLD epoch-0 state must be refused by the
     Appendix-A delta chain: the slot was touched in epoch 1. *)
  let sc = sc_state_on_mc w in
  match
    Node.create_withdrawal_request w.node ~kind:Mainchain_withdrawal.Btr
      ~utxo:u ~receiver:payback
      ~reference_block:(Sc_ledger.reference_block_for sc)
      ~as_of_epoch:0 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale withdrawal passed the delta guard"

(* A follower (non-forging node) must accept exactly the blocks the
   forger produced — and reject every tampering. *)
let test_follower_validation () =
  let w = make_world "follow" in
  let user = Sc_wallet.create ~seed:"follow.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 250_000);
  mine_n w 3;
  let genesis_state = Node.next_block_state w.node in
  let block =
    match forge w with Some b -> b | None -> Alcotest.fail "no block"
  in
  let ctx =
    {
      Sc_validate.config = w.config;
      params;
      prev_state = genesis_state;
      prev_hash = Sc_block.genesis_parent;
      prev_height = -1;
      mc_synced = w.config.start_block - 1;
      expected_leader = None;
    }
  in
  (* the genuine block validates and reproduces the state *)
  let state = ok (Sc_validate.validate ctx ~mc:w.chain block) in
  checkb "state hash matches" true
    (Fp.equal (Sc_state.hash state) block.state_hash);
  checkb "matches forger state" true
    (Fp.equal (Sc_state.hash state) (Sc_state.hash (Node.tip_state w.node)));
  (* tampered variants are rejected *)
  let rejects what b =
    match Sc_validate.validate ctx ~mc:w.chain b with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  rejects "wrong state hash" { block with Sc_block.state_hash = Fp.one };
  rejects "wrong height" { block with Sc_block.height = 7 };
  rejects "wrong parent"
    { block with Sc_block.parent = Hash.of_string "imposter" };
  (* dropping a reference breaks contiguity *)
  (match block.mc_refs with
  | _ :: rest -> rejects "gap in references" { block with Sc_block.mc_refs = rest }
  | [] -> Alcotest.fail "expected references");
  (* stripping an FT from a reference breaks its commitment proof *)
  let strip (r : Mc_ref.t) = { r with Mc_ref.fts = [] } in
  let tampered_refs =
    List.map (fun r -> if r.Mc_ref.fts <> [] then strip r else r) block.mc_refs
  in
  rejects "stripped reference" { block with Sc_block.mc_refs = tampered_refs };
  (* the signature covers the tx list *)
  rejects "appended tx invalidates signature"
    {
      block with
      Sc_block.txs =
        block.txs
        @ [ Sc_tx.Forward_transfers_tx { mcid = Hash.zero; fts = [] } ];
    }

(* A follower replays the forger's whole chain across an epoch
   boundary, applying the same reset rule, and lands on the same
   state. *)
let test_follower_syncs_whole_chain () =
  let w = make_world "fsync" in
  let user = Sc_wallet.create ~seed:"fsync.user" in
  let user_addr = Sc_wallet.fresh_address user in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:user_addr ~payback ~amt:(amount 400_000);
  mine_n w 4;
  let _ = forge w in
  (* payment in epoch 1 *)
  let user2_addr = Sc_wallet.fresh_address (Sc_wallet.create ~seed:"fsync.u2") in
  let pay =
    ok
      (Sc_wallet.build_payment user (Node.next_block_state w.node)
         ~to_:user2_addr ~amount:(amount 150_000))
  in
  ok (Node.submit_tx w.node pay);
  mine_n w 3;
  let _ = forge w in
  let blocks = Node.blocks w.node in
  checki "two blocks forged" 2 (List.length blocks);
  (* follower replay *)
  let schedule = Epoch.of_config w.config in
  let final_state =
    List.fold_left
      (fun (state, prev_hash, prev_height, mc_synced) (b : Sc_block.t) ->
        let ctx =
          {
            Sc_validate.config = w.config;
            params;
            prev_state = state;
            prev_hash;
            prev_height;
            mc_synced;
            expected_leader = None;
          }
        in
        let state' = ok (Sc_validate.validate ctx ~mc:w.chain b) in
        let mc_synced' =
          match List.rev b.mc_refs with
          | last :: _ -> Mc_ref.height last
          | [] -> mc_synced
        in
        (* apply the epoch-boundary reset exactly like the forger *)
        let next_state =
          if
            mc_synced' >= Epoch.last_height schedule ~epoch:0
            && mc_synced < Epoch.last_height schedule ~epoch:0
          then Sc_state.reset_epoch state'
          else state'
        in
        (next_state, Sc_block.hash b, b.height, mc_synced'))
      (Sc_state.create params, Sc_block.genesis_parent, -1,
       w.config.start_block - 1)
      blocks
    |> fun (s, _, _, _) -> s
  in
  checkb "follower state = forger state" true
    (Fp.equal
       (Sc_state.hash final_state)
       (Sc_state.hash (Node.next_block_state w.node)))

let test_leader_enforcement () =
  let w = make_world "leader" in
  (* Give the FORGER's address stake so leadership is decidable. *)
  let forger_stake_wallet = Sc_wallet.create ~seed:"leader.staker" in
  let staker_addr = Sc_wallet.fresh_address forger_stake_wallet in
  let payback = Wallet.fresh_address w.mc_wallet in
  mine w;
  do_ft w ~receiver:staker_addr ~payback ~amt:(amount 1_000_000);
  mine_n w 4;
  (* Bootstrap: empty stake distribution, enforce_leader still forges. *)
  let b = ok (Node.forge w.node ~mc:w.chain ~slot:0 ~enforce_leader:true ()) in
  checkb "bootstrap forging allowed" true (b <> None);
  (* Now the MST holds stake owned by [staker_addr], which is NOT a
     forger key of this node: the node must skip slots it does not
     lead (all of them): whatever the slot's randomness, its leader is
     [staker_addr]. *)
  let stake = Leader.of_mst (Node.tip_state w.node).Sc_state.mst in
  checkb "a leader exists" true
    (Leader.select stake ~rand:Hash.zero ~slot:5 = Some staker_addr);
  (* force a tx so there would be something to forge *)
  let pay =
    Sc_wallet.build_payment forger_stake_wallet (Node.next_block_state w.node)
      ~to_:staker_addr ~amount:(amount 1)
  in
  (match pay with Ok tx -> ok (Node.submit_tx w.node tx) | Error e -> Alcotest.fail e);
  (match ok (Node.forge w.node ~mc:w.chain ~slot:5 ~enforce_leader:true ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "forged without leadership");
  (* Without enforcement the same forge succeeds. *)
  let b = ok (Node.forge w.node ~mc:w.chain ~slot:5 ()) in
  checkb "permissive forging works" true (b <> None)

let test_refs_clipped_at_epoch_boundary () =
  let w = make_world "clip" in
  (* Mine deep into epoch 1 before the sidechain ever forges: epoch 0
     is 7..10, epoch 1 is 11..14. *)
  mine_n w 7;
  (* MC height 13 *)
  checki "mc deep in epoch 1" 13 (Chain.height w.chain);
  (* First block must reference only epoch 0 (7..10) and complete it. *)
  let b = match ok (Node.forge w.node ~mc:w.chain ~slot:1 ()) with
    | Some b -> b
    | None -> Alcotest.fail "no block"
  in
  checki "refs clipped to epoch 0" 4 (List.length b.mc_refs);
  checki "synced exactly to the boundary" 10 (Node.mc_synced_height w.node);
  (* The next block picks up epoch 1's available blocks (11..13). *)
  let b2 = match ok (Node.forge w.node ~mc:w.chain ~slot:2 ()) with
    | Some b -> b
    | None -> Alcotest.fail "no second block"
  in
  checki "next block refs epoch 1" 3 (List.length b2.mc_refs);
  checki "synced to mc tip" 13 (Node.mc_synced_height w.node)

let suite =
  ( "node-e2e",
    [
      Alcotest.test_case "full epoch cycle" `Quick test_full_epoch_cycle;
      Alcotest.test_case "heartbeat empty epoch" `Quick test_heartbeat_empty_epoch;
      Alcotest.test_case "cert window" `Quick test_cert_outside_window_rejected;
      Alcotest.test_case "quality rule" `Quick test_quality_rule;
      Alcotest.test_case "cease then csw" `Quick test_withheld_cert_ceases_then_csw;
      Alcotest.test_case "csw while active" `Quick test_csw_rejected_while_active;
      Alcotest.test_case "btr full flow" `Quick test_btr_full_flow;
      Alcotest.test_case "mc reorg rollback" `Quick test_mc_reorg_rolls_back_sidechain;
      Alcotest.test_case "mc ref verification" `Quick test_mc_ref_verification;
      Alcotest.test_case "delta guard" `Quick test_delta_guard_blocks_stale_withdrawal;
      Alcotest.test_case "follower validation" `Quick test_follower_validation;
      Alcotest.test_case "follower chain sync" `Quick test_follower_syncs_whole_chain;
      Alcotest.test_case "leader enforcement" `Quick test_leader_enforcement;
      Alcotest.test_case "epoch boundary clipping" `Quick
        test_refs_clipped_at_epoch_boundary;
    ] )
