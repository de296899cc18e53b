(* Multiple decoupled sidechains + mainchain fork resolution.

   Two Latus sidechains with *different, unaligned* withdrawal epochs
   run against one mainchain (paper Fig. 1, §4.1.2: "the entire system
   runs asynchronously"). The example then injects a mainchain fork and
   shows the sidechain binding in action: SC blocks referencing orphaned
   MC blocks are rolled back and re-forged on the winning branch
   (§5.1, "Mainchain forks resolution").

   Run with: dune exec examples/multi_sidechain.exe *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

let say fmt = Printf.printf ("\n-- " ^^ fmt ^^ "\n")
let ok = function Ok v -> v | Error e -> failwith e
let coins n = Amount.of_int_exn (n * 100_000_000)

let () =
  let h = Zen_sim.Harness.create ~seed:"multi" () in
  Zen_sim.Harness.fund h ~blocks:5;
  (* One circuit family shared by both sidechains: same params. *)
  let params = Params.default in
  let family = Circuits.make params in
  let fast =
    ok
      (Zen_sim.Harness.add_latus h ~name:"fast-sc" ~family ~epoch_len:3
         ~submit_len:1 ~activation_delay:1 ())
  in
  let slow =
    ok
      (Zen_sim.Harness.add_latus h ~name:"slow-sc" ~family ~epoch_len:7
         ~submit_len:3 ~activation_delay:1 ())
  in
  say "Two sidechains registered: fast (epoch 3) and slow (epoch 7); their \
       withdrawal epochs are not aligned.";

  let u_fast = Sc_wallet.create ~seed:"multi.fast" in
  let a_fast = Sc_wallet.fresh_address u_fast in
  let u_slow = Sc_wallet.create ~seed:"multi.slow" in
  let a_slow = Sc_wallet.fresh_address u_slow in
  let payback = Wallet.fresh_address h.mc_wallet in
  ok
    (Zen_sim.Harness.forward_transfer h fast ~receiver:a_fast ~payback
       ~amount:(coins 3));
  ok
    (Zen_sim.Harness.forward_transfer h slow ~receiver:a_slow ~payback
       ~amount:(coins 5));
  say "Forward transfers: 3 coins to fast-sc, 5 to slow-sc (balances: %s / %s)."
    (Amount.to_string (Zen_sim.Harness.sc_balance_on_mc h fast))
    (Amount.to_string (Zen_sim.Harness.sc_balance_on_mc h slow));

  Zen_sim.Harness.tick_n h 15;
  say "After 15 MC blocks: fast-sc certified epochs [%s], slow-sc [%s] — \
       asynchronous heartbeats on one mainchain."
    (String.concat "; "
       (List.map string_of_int (Node.certified_epochs fast.node)))
    (String.concat "; "
       (List.map string_of_int (Node.certified_epochs slow.node)));

  (* ---- mainchain fork ---- *)
  let fork_base = h.chain in
  Zen_sim.Harness.tick h;
  let orphaned_tip = Chain.tip_hash h.chain in
  say "Mined MC block %s and the sidechains referenced it (fast-sc synced \
       to MC height %d)."
    (Hash.short_hex orphaned_tip)
    (Node.mc_synced_height fast.node);

  (* A competing branch of length 2 overtakes. *)
  let alt = ref fork_base in
  let alt_miner = Wallet.fresh_address (Wallet.create ~seed:"multi.alt") in
  let b1, _ = ok (Miner.build_block !alt ~time:900 ~miner_addr:alt_miner ~candidates:[]) in
  alt := fst (ok (Chain.add_block !alt b1));
  let b2, _ = ok (Miner.build_block !alt ~time:901 ~miner_addr:alt_miner ~candidates:[]) in
  h.chain <- fst (ok (Chain.add_block h.chain b1));
  let chain, outcome = ok (Chain.add_block h.chain b2) in
  h.chain <- chain;
  (match outcome with
  | Chain.Reorg { disconnected; connected; _ } ->
    say "A competing miner published a longer branch: REORG of depth %d \
         (%d blocks connected); block %s is now orphaned."
      (List.length disconnected) (List.length connected)
      (Hash.short_hex orphaned_tip)
  | _ -> failwith "expected a reorg");

  (* The next forging round reconciles. *)
  Zen_sim.Harness.tick_n h 2;
  let consistent sc =
    List.for_all
      (fun (b : Sc_block.t) ->
        List.for_all
          (fun r -> Chain.on_best_chain h.chain (Mc_ref.block_hash r))
          b.mc_refs)
      (Node.blocks sc.Zen_sim.Harness.node)
  in
  say "Sidechain binding resolved the fork: every MC reference in both \
       sidechains now points at the winning branch (fast-sc: %b, slow-sc: \
       %b). Synced heights: fast %d, slow %d."
    (consistent fast) (consistent slow)
    (Node.mc_synced_height fast.node)
    (Node.mc_synced_height slow.node);

  (* Business as usual after the fork. *)
  Zen_sim.Harness.tick_n h 8;
  say "Both sidechains kept certifying after the fork: fast [%s], slow [%s].\n"
    (String.concat "; "
       (List.map string_of_int (Node.certified_epochs fast.node)))
    (String.concat "; "
       (List.map string_of_int (Node.certified_epochs slow.node)))
