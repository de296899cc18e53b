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

let suite =
  ( "sim",
    [
      Alcotest.test_case "harness epoch cycle" `Quick test_harness_epoch_cycle;
      Alcotest.test_case "harness withholding" `Quick
        test_harness_withholding_ceases;
      Alcotest.test_case "harness two sidechains" `Quick
        test_harness_two_sidechains_independent;
      Alcotest.test_case "des mining race" `Quick test_mining_race;
    ] )
