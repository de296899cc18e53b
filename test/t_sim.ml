(* The world harness, and a two-miner fork-choice race. *)

open Zen_sim
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let amount n = Amount.of_int_exn n

let test_harness_epoch_cycle () =
  let h = Harness.create ~seed:"sim1" () in
  Harness.fund h ~blocks:5;
  let sc =
    Result.get_ok
      (Harness.add_latus h ~name:"alpha" ~epoch_len:4 ~submit_len:2
         ~activation_delay:1 ())
  in
  let user = Zen_latus.Sc_wallet.create ~seed:"sim1.user" in
  let user_addr = Zen_latus.Sc_wallet.fresh_address user in
  let payback = user_addr in
  Result.get_ok
    (Harness.forward_transfer h sc ~receiver:user_addr ~payback
       ~amount:(amount 12345));
  checkb "balance credited" true
    (Amount.equal (Harness.sc_balance_on_mc h sc) (amount 12345));
  (* Enough ticks for several epochs; certificates auto-submit. *)
  Harness.tick_n h 12;
  checkb "not ceased" false (Harness.is_ceased h sc);
  checkb "certified at least one epoch" true
    (Zen_latus.Node.certified_epochs sc.Harness.node <> [])

let test_harness_withholding_ceases () =
  let h = Harness.create ~seed:"sim2" () in
  Harness.fund h ~blocks:3;
  let sc =
    Result.get_ok
      (Harness.add_latus h ~name:"beta" ~epoch_len:3 ~submit_len:1
         ~activation_delay:1 ())
  in
  sc.Harness.withhold_certs <- true;
  Harness.tick_n h 8;
  checkb "ceased without certificates" true (Harness.is_ceased h sc)

let test_harness_two_sidechains_independent () =
  let h = Harness.create ~seed:"sim3" () in
  Harness.fund h ~blocks:3;
  let params = Zen_latus.Params.default in
  let family = Zen_latus.Circuits.make params in
  let a =
    Result.get_ok
      (Harness.add_latus h ~name:"a" ~family ~epoch_len:3 ~submit_len:1
         ~activation_delay:1 ())
  in
  let b =
    Result.get_ok
      (Harness.add_latus h ~name:"b" ~family ~epoch_len:5 ~submit_len:2
         ~activation_delay:1 ())
  in
  a.Harness.withhold_certs <- true;
  Harness.tick_n h 14;
  checkb "a ceased" true (Harness.is_ceased h a);
  checkb "b alive" false (Harness.is_ceased h b)

(* Two miners race in discrete time: blocks propagate with latency,
   forks happen, and Nakamoto fork choice converges both views. Each
   tick first delivers the blocks due, then lets the miners mine. *)
let test_mining_race () =
  let open Zen_mainchain in
  let params = { Chain_state.default_params with pow = Pow.trivial } in
  let shared_genesis_time = 0 in
  let chain_a = ref (Chain.create ~params ~time:shared_genesis_time ()) in
  let chain_b = ref (Chain.create ~params ~time:shared_genesis_time ()) in
  let addr_a = Wallet.fresh_address (Wallet.create ~seed:"race-a") in
  let addr_b = Wallet.fresh_address (Wallet.create ~seed:"race-b") in
  (* in-flight blocks as (arrival tick, receiving chain, block), in
     send order *)
  let pending = ref [] in
  let deliver chain block =
    match Chain.add_block !chain block with
    | Ok (c, _) -> chain := c
    | Error _ -> () (* duplicate or stale: fine *)
  in
  let mine_on chain addr other_chain latency now =
    match Miner.build_block !chain ~time:now ~miner_addr:addr ~candidates:[] with
    | Error _ -> ()
    | Ok (block, _) ->
      deliver chain block;
      (* the other miner hears about it after [latency] *)
      pending := !pending @ [ (now + latency, other_chain, block) ]
  in
  (* Miner A mines every 3 ticks, B every 4; propagation takes 2, so
     near-simultaneous blocks fork and later resolve. Mining stops at
     t=120; the run to 130 drains in-flight deliveries. *)
  for now = 1 to 130 do
    let due, later = List.partition (fun (at, _, _) -> at <= now) !pending in
    pending := later;
    List.iter (fun (_, chain, block) -> deliver chain block) due;
    if now <= 120 && now mod 3 = 0 then mine_on chain_a addr_a chain_b 2 now;
    if now <= 120 && now mod 4 = 0 then mine_on chain_b addr_b chain_a 2 now
  done;
  checkb "both made progress" true
    (Chain.height !chain_a > 10 && Chain.height !chain_b > 10);
  (* Nakamoto convergence: with first-seen tie-breaking the very tip
     may legitimately differ for one height, but the settled prefix is
     identical. *)
  Alcotest.(check int)
    "same height (same work)" (Chain.height !chain_a) (Chain.height !chain_b);
  let settled = Chain.height !chain_a - 2 in
  let hash_at chain h = Chain_state.block_hash_at (Chain.tip_state chain) h in
  checkb "settled prefix identical" true
    (match (hash_at !chain_a settled, hash_at !chain_b settled) with
    | Some a, Some b -> Zen_crypto.Hash.equal a b
    | _ -> false)

(* Each signature is checked once per node: 12 ticks of the
   3-sidechain smoke world (simulate --sidechains 3 --workload smoke)
   run one Schnorr verification per signature-bearing input. Latus
   admission verifies a payment's or BT's witnesses and forging does
   not; the miner's trial verifies a transfer's inputs and connecting
   its block answers from the verification cache. Verifying again at
   forge and at block connect read 32 for these 16 inputs. *)
let test_one_verify_per_signature () =
  let open Zen_mainchain in
  let open Zen_latus in
  let verifies = Zen_obs.Counter.make "crypto.schnorr.verifies" in
  Verifier.Cache.clear ();
  let h = Harness.create ~pool:Zen_crypto.Pool.sequential ~seed:"verify-once" () in
  Harness.fund h ~blocks:5;
  let family = Circuits.make Params.default in
  let scs =
    List.map
      (fun name ->
        Result.get_ok
          (Harness.add_latus h ~name ~family ~epoch_len:4 ~submit_len:2
             ~activation_delay:1 ()))
      [ "sc1"; "sc2"; "sc3" ]
  in
  Result.get_ok (Harness.set_workload h ~profile:Workload.smoke ~seed:7);
  let v0 = Zen_obs.Counter.value verifies in
  Zen_obs.Registry.with_enabled (fun () -> Harness.tick_n h 12);
  let checked = Zen_obs.Counter.value verifies - v0 in
  (* Every admitted payment or BT was forged: its witnesses are in a
     block. *)
  List.iter
    (fun (sc : Harness.sidechain) ->
      checki (sc.name ^ " mempool drained") 0 (Node.mempool_size sc.node))
    scs;
  let latus_inputs =
    List.fold_left
      (fun acc (sc : Harness.sidechain) ->
        List.fold_left
          (fun acc (b : Sc_block.t) ->
            List.fold_left
              (fun acc -> function
                | Sc_tx.Payment p -> acc + List.length p.witnesses
                | Sc_tx.Backward_transfer_tx _ -> acc + 1
                | Sc_tx.Forward_transfers_tx _
                | Sc_tx.Backward_transfer_requests_tx _ -> acc)
              acc b.txs)
          acc (Node.blocks sc.node))
      0 scs
  in
  let st = Chain.tip_state h.chain in
  let mc_inputs =
    List.fold_left
      (fun acc height ->
        let b =
          Option.get
            (Chain.block h.chain (Option.get (Chain_state.block_hash_at st height)))
        in
        List.fold_left
          (fun acc -> function
            | Tx.Transfer { inputs; _ } -> acc + List.length inputs
            | _ -> acc)
          acc b.txs)
      0
      (List.init (st.height + 1) Fun.id)
  in
  checkb "latus traffic signed" true (latus_inputs > 0);
  checkb "mainchain transfers signed" true (mc_inputs > 0);
  checki "one verify per signature-bearing input" (latus_inputs + mc_inputs)
    checked

let suite =
  ( "sim",
    [
      Alcotest.test_case "harness epoch cycle" `Quick test_harness_epoch_cycle;
      Alcotest.test_case "harness withholding" `Quick
        test_harness_withholding_ceases;
      Alcotest.test_case "harness two sidechains" `Quick
        test_harness_two_sidechains_independent;
      Alcotest.test_case "des mining race" `Quick test_mining_race;
      Alcotest.test_case "one verify per signature" `Quick
        test_one_verify_per_signature;
    ] )
