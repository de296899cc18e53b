(* Mainchain substrate: transactions, UTXO maturity, blocks, PoW, fork
   choice and reorgs, the sidechain ledger rules, mempool and miner. *)

open Zen_crypto
open Zen_mainchain
open Zendoo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

(* Fast-PoW world for deterministic, quick tests. *)
let params = { Chain_state.default_params with pow = Pow.trivial }

let fresh_world seed =
  let chain = Chain.create ~params ~time:0 () in
  let wallet = Wallet.create ~seed in
  let addr = Wallet.fresh_address wallet in
  (ref chain, wallet, addr)

let mine ?(txs = []) chain ~addr =
  let b, _ =
    ok (Miner.build_block !chain ~time:(Chain.height !chain + 1) ~miner_addr:addr ~candidates:txs)
  in
  let c, outcome = ok (Chain.add_block !chain b) in
  chain := c;
  (b, outcome)

let mine_n chain ~addr n =
  for _ = 1 to n do
    ignore (mine chain ~addr)
  done

(* ---- PoW ---- *)

let test_pow_target () =
  let p8 = { Pow.difficulty_bits = 8 } in
  checkb "zero byte ok" true
    (Pow.meets_target p8 (Hash.of_raw ("\000" ^ String.make 31 '\xff')));
  checkb "nonzero first byte" false
    (Pow.meets_target p8 (Hash.of_raw ("\001" ^ String.make 31 '\000')));
  checki "work" 256 (Pow.work_of p8)

let test_pow_mine_finds () =
  let p = { Pow.difficulty_bits = 6 } in
  let hash_of ~nonce = Hash.of_string ("attempt" ^ string_of_int nonce) in
  let nonce = Pow.mine p hash_of in
  checkb "found" true (Pow.meets_target p (hash_of ~nonce))

(* ---- coinbase maturity & transfers ---- *)

let test_coinbase_maturity () =
  let chain, wallet, addr = fresh_world "maturity" in
  mine_n chain ~addr 1;
  (* One coinbase at height 1, maturity 2: not spendable before height 4. *)
  checki "immature" 0
    (Amount.to_int (Wallet.balance wallet (Chain.tip_state !chain)));
  mine_n chain ~addr 2;
  checki "mature now" 5_000_000_000
    (Amount.to_int (Wallet.balance wallet (Chain.tip_state !chain)))

let test_transfer_and_fees () =
  let chain, wallet, addr = fresh_world "fees" in
  mine_n chain ~addr 5;
  let bob = Wallet.create ~seed:"fees-bob" in
  let bob_addr = Wallet.fresh_address bob in
  let tx =
    ok
      (Wallet.build_transfer wallet (Chain.tip_state !chain)
         ~outputs:[ Tx.Coin { Tx.addr = bob_addr; amount = amount 1000 } ]
         ~fee:(amount 50))
  in
  let b, _ = mine chain ~addr ~txs:[ tx ] in
  checki "tx included" 2 (List.length b.txs);
  checki "bob got paid" 1000
    (Amount.to_int (Wallet.balance bob (Chain.tip_state !chain)));
  (* Miner coinbase of that block carries subsidy + fee. *)
  match List.hd b.txs with
  | Tx.Coinbase { reward; _ } ->
    checki "reward includes fee" (5_000_000_000 + 50) (Amount.to_int reward.amount)
  | _ -> Alcotest.fail "first tx not coinbase"

let test_double_spend_rejected () =
  let chain, wallet, addr = fresh_world "double" in
  mine_n chain ~addr 5;
  let st = Chain.tip_state !chain in
  let bob = Wallet.create ~seed:"double-bob" in
  let baddr = Wallet.fresh_address bob in
  let tx1 =
    ok
      (Wallet.build_transfer wallet st
         ~outputs:[ Tx.Coin { Tx.addr = baddr; amount = amount 10 } ]
         ~fee:Amount.zero)
  in
  let b, _ = mine chain ~addr ~txs:[ tx1 ] in
  ignore b;
  (* Same tx again: inputs are gone. *)
  let st2 = Chain.tip_state !chain in
  match Chain_state.apply_tx st2 ~height:(st2.height + 1) ~block_hash:Hash.zero tx1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double spend accepted"

let test_signature_required () =
  let chain, wallet, addr = fresh_world "sig" in
  mine_n chain ~addr 5;
  let st = Chain.tip_state !chain in
  let mallory = Wallet.create ~seed:"mallory" in
  let maddr = Wallet.fresh_address mallory in
  let tx =
    ok
      (Wallet.build_transfer wallet st
         ~outputs:[ Tx.Coin { Tx.addr = maddr; amount = amount 10 } ]
         ~fee:Amount.zero)
  in
  (* Tamper: change output after signing. *)
  match tx with
  | Tx.Transfer { inputs; outputs = _ } ->
    let tampered =
      Tx.Transfer
        { inputs; outputs = [ Tx.Coin { Tx.addr = maddr; amount = amount 999 } ] }
    in
    (match
       Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero
         tampered
     with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "tampered tx accepted")
  | _ -> Alcotest.fail "expected transfer"

let test_inflation_rejected () =
  let chain, wallet, addr = fresh_world "inflation" in
  mine_n chain ~addr 5;
  let st = Chain.tip_state !chain in
  (* A transfer whose outputs exceed its inputs. *)
  let coins = Utxo_set.coins_of_addr st.utxos addr in
  let outpoint, coin = List.hd coins in
  let outputs =
    [ Tx.Coin { Tx.addr; amount = amount (Amount.to_int coin.amount + 1) } ]
  in
  let sighash = Tx.sighash ~inputs:[ outpoint ] ~outputs in
  let pk, signature =
    Option.get (Wallet.sign_for wallet ~addr ~msg:(Hash.to_raw sighash))
  in
  let tx = Tx.Transfer { inputs = [ { Tx.outpoint; pk; signature } ]; outputs } in
  match Chain_state.apply_tx st ~height:(st.height + 1) ~block_hash:Hash.zero tx with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inflation accepted"

(* ---- fork choice / reorg ---- *)

let test_fork_choice_and_reorg () =
  let chain, _, addr = fresh_world "fork" in
  mine_n chain ~addr 3;
  let fork_base = !chain in
  (* Extend main by 1. *)
  mine_n chain ~addr 1;
  let tip_a = Chain.tip_hash !chain in
  (* Build a competing 2-block branch from the fork base tip. *)
  let alt = ref fork_base in
  let alt_addr = Wallet.fresh_address (Wallet.create ~seed:"alt-miner") in
  let b1, _ = ok (Miner.build_block !alt ~time:100 ~miner_addr:alt_addr ~candidates:[]) in
  let c1, _ = ok (Chain.add_block !alt b1) in
  alt := c1;
  let b2, _ = ok (Miner.build_block !alt ~time:101 ~miner_addr:alt_addr ~candidates:[]) in
  (* Feed the competing branch into the main chain object. *)
  let c, o1 = ok (Chain.add_block !chain b1) in
  chain := c;
  (match o1 with
  | Chain.Side_branch -> ()
  | _ -> Alcotest.fail "expected side branch");
  let c, o2 = ok (Chain.add_block !chain b2) in
  chain := c;
  (match o2 with
  | Chain.Reorg { old_tip; depth } ->
    checkb "old tip recorded" true (Hash.equal old_tip tip_a);
    checki "reorg depth" 1 depth
  | _ -> Alcotest.fail "expected reorg");
  checki "new height" 5 (Chain.height !chain);
  checkb "old tip off best chain" false (Chain.on_best_chain !chain tip_a)

let test_duplicate_and_orphan_blocks () =
  let chain, _, addr = fresh_world "dup" in
  let b, _ = mine chain ~addr in
  (match Chain.add_block !chain b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate accepted");
  let orphan =
    ok
      (Block.assemble ~prev:(Hash.of_string "nowhere") ~height:7 ~time:9 ~txs:[]
         ~pow:Pow.trivial ())
  in
  match Chain.add_block !chain orphan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "orphan accepted"

let dummy_config () =
  (* A syntactically valid config for structural tests. *)
  let ctx = Zen_snark.Gadget.create () in
  let _ = List.init 5 (fun _ -> Zen_snark.Gadget.input ctx Fp.zero) in
  let w = Zen_snark.Gadget.witness ctx Fp.zero in
  Zen_snark.Gadget.assert_eq ctx w w;
  let c, _, _ = Zen_snark.Gadget.finalize ~name:"dummy5" ctx in
  let _, vk = Zen_snark.Backend.setup c in
  ok
    (Sidechain_config.make
       ~ledger_id:(Hash.of_string "dummy-sc")
       ~start_block:1000 ~epoch_len:10 ~submit_len:3 ~wcert_vk:vk ())

let test_block_structure_checks () =
  let chain, _, addr = fresh_world "structure" in
  mine_n chain ~addr 1;
  (* A non-coinbase-first block must be rejected at assembly level by
     validate_structure. *)
  let bad =
    ok
      (Block.assemble ~prev:(Chain.tip_hash !chain) ~height:2 ~time:2
         ~txs:[ Tx.Sc_create (dummy_config ()) ] ~pow:Pow.trivial ())
  in
  match Chain.add_block !chain bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "coinbase-less block accepted"

(* ---- sidechain ledger rules (no SNARK semantics needed) ---- *)

let test_sc_registration_rules () =
  let cfg = dummy_config () in
  let l = ok (Sc_ledger.register Sc_ledger.empty cfg ~created_at:5) in
  checkb "registered" true (Sc_ledger.find l cfg.ledger_id <> None);
  (* duplicate *)
  checkb "duplicate rejected" true
    (Result.is_error (Sc_ledger.register l cfg ~created_at:6));
  (* start block in the past *)
  checkb "past start rejected" true
    (Result.is_error (Sc_ledger.register Sc_ledger.empty cfg ~created_at:2000))

let test_ft_rules () =
  let cfg = dummy_config () in
  let l = ok (Sc_ledger.register Sc_ledger.empty cfg ~created_at:5) in
  let ft amount_ =
    Forward_transfer.make ~ledger_id:cfg.ledger_id ~receiver_metadata:""
      ~amount:amount_
  in
  (* before activation *)
  checkb "inactive" true
    (Result.is_error (Sc_ledger.credit_ft l (ft (amount 5)) ~height:999));
  let l = ok (Sc_ledger.credit_ft l (ft (amount 5)) ~height:1000) in
  checki "balance" 5
    (Amount.to_int (Option.get (Sc_ledger.balance l cfg.ledger_id)));
  (* unknown sidechain *)
  let stranger =
    Forward_transfer.make ~ledger_id:(Hash.of_string "nope")
      ~receiver_metadata:"" ~amount:(amount 5)
  in
  checkb "unknown sc" true
    (Result.is_error (Sc_ledger.credit_ft l stranger ~height:1000));
  (* ceased: no cert by end of epoch 0's window (heights 1010..1012) *)
  checkb "ceased rejects ft" true
    (Result.is_error (Sc_ledger.credit_ft l (ft (amount 5)) ~height:1013))

let test_ceasing_detection () =
  let cfg = dummy_config () in
  let l = ok (Sc_ledger.register Sc_ledger.empty cfg ~created_at:5) in
  checkb "alive during epoch 0" false
    (Sc_ledger.is_ceased l cfg.ledger_id ~height:1009);
  checkb "alive in window" false
    (Sc_ledger.is_ceased l cfg.ledger_id ~height:1012);
  checkb "ceased after window" true
    (Sc_ledger.is_ceased l cfg.ledger_id ~height:1013);
  checkb "unknown sc not ceased" false
    (Sc_ledger.is_ceased l (Hash.of_string "ghost") ~height:9999)

(* ---- mempool ---- *)

let test_mempool () =
  let cfg = dummy_config () in
  let tx = Tx.Sc_create cfg in
  let m = Mempool.add Mempool.empty tx in
  let m = Mempool.add m tx in
  checki "dedup" 1 (Mempool.size m);
  checkb "mem" true (Mempool.mem m (Tx.txid tx));
  let block =
    ok
      (Block.assemble ~prev:Hash.zero ~height:1 ~time:1 ~txs:[ tx ]
         ~pow:Pow.trivial ())
  in
  let m = Mempool.remove_included m block in
  checki "removed" 0 (Mempool.size m)

(* The pool functor over strings, against a plain-list model that holds
   each id once, oldest first. *)
module Str_pool = Mempool.Make (struct
  type t = string

  let txid = Hash.of_string
end)

type pool_op =
  | Add of string
  | Remove of string
  | Remove_txs of string list
  | Reinject of string list

let pool_ids = List.init 8 (Printf.sprintf "tx%d")

let pool_apply pool = function
  | Add s -> Str_pool.add pool s
  | Remove s -> Str_pool.remove pool (Hash.of_string s)
  | Remove_txs l -> Str_pool.remove_txs pool l
  | Reinject l -> Str_pool.reinject_front pool l

let model_apply model = function
  | Add s -> if List.mem s model then model else model @ [ s ]
  | Remove s -> List.filter (fun x -> x <> s) model
  | Remove_txs l -> List.filter (fun x -> not (List.mem x l)) model
  | Reinject l ->
    let fresh =
      List.fold_left
        (fun acc s ->
          if List.mem s acc || List.mem s model then acc else acc @ [ s ])
        [] l
    in
    fresh @ model

let pool_agrees pool model =
  let txs = Str_pool.txs pool in
  txs = model
  && List.length (List.sort_uniq String.compare txs) = List.length txs
  && Str_pool.size pool = List.length model
  && List.for_all
       (fun s -> Str_pool.mem pool (Hash.of_string s) = List.mem s model)
       pool_ids

let prop_pool_model =
  let open QCheck2.Gen in
  let id = oneofl pool_ids in
  let ids = list_size (int_range 0 5) id in
  let op =
    oneof
      [
        map (fun s -> Add s) id;
        map (fun s -> Remove s) id;
        map (fun l -> Remove_txs l) ids;
        map (fun l -> Reinject l) ids;
      ]
  in
  let print_op = function
    | Add s -> "add " ^ s
    | Remove s -> "remove " ^ s
    | Remove_txs l -> "remove_txs [" ^ String.concat ";" l ^ "]"
    | Reinject l -> "reinject [" ^ String.concat ";" l ^ "]"
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"pool functor = list model" ~count:300
       ~print:(fun ops -> String.concat ", " (List.map print_op ops))
       (list_size (int_range 0 40) op)
       (fun ops ->
         let rec go pool model = function
           | [] -> true
           | op :: rest ->
             let pool = pool_apply pool op and model = model_apply model op in
             pool_agrees pool model && go pool model rest
         in
         go Str_pool.empty [] ops))

let test_pool_reinject_dedup () =
  (* The reinjected batch repeats tx0 and carries the pooled tx1. *)
  let pool = Str_pool.add Str_pool.empty "tx1" in
  let pool = Str_pool.reinject_front pool [ "tx0"; "tx2"; "tx0"; "tx1" ] in
  checkb "recovered first, each once, pooled tx kept in place" true
    (Str_pool.txs pool = [ "tx0"; "tx2"; "tx1" ]);
  checki "size" 3 (Str_pool.size pool);
  let pool = Str_pool.add pool "tx2" in
  checki "re-adding a reinjected id is a no-op" 3 (Str_pool.size pool)

(* The block-level latency histograms belong to the mainchain pool:
   another instance of the functor (Latus's pool is one) never feeds
   them. *)
let test_pool_histograms_mainchain_only () =
  let count name =
    (Zen_obs.Histogram.snapshot (Zen_obs.Histogram.make ~bounds:[ 1. ] name))
      .count
  in
  let purge = "mempool.remove_included.seconds"
  and reinject = "mempool.reinject.seconds" in
  Zen_obs.Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Zen_obs.Registry.disable ();
      Zen_obs.Registry.reset ())
  @@ fun () ->
  Zen_obs.Registry.with_enabled @@ fun () ->
  let pool = Str_pool.add Str_pool.empty "tx0" in
  let pool = Str_pool.remove_txs pool [ "tx0" ] in
  let pool = Str_pool.reinject_front pool [ "tx1" ] in
  ignore (Str_pool.remove (Str_pool.add pool "tx2") (Hash.of_string "tx1"));
  checki "functor ops record no purge" 0 (count purge);
  checki "functor ops record no reinjection" 0 (count reinject);
  let tx = Tx.Sc_create (dummy_config ()) in
  let block =
    ok
      (Block.assemble ~prev:Hash.zero ~height:1 ~time:1 ~txs:[ tx ]
         ~pow:Pow.trivial ())
  in
  let m = Mempool.remove_included (Mempool.add Mempool.empty tx) block in
  ignore
    (Mempool.reinject_disconnected m ~disconnected:[ block ] ~connected:[]);
  checki "block purge recorded" 1 (count purge);
  checki "reinjection recorded" 1 (count reinject)

let test_miner_skips_invalid () =
  let chain, wallet, addr = fresh_world "skip" in
  mine_n chain ~addr 5;
  let st = Chain.tip_state !chain in
  let bob_addr = Wallet.fresh_address (Wallet.create ~seed:"skip-bob") in
  let tx =
    ok
      (Wallet.build_transfer wallet st
         ~outputs:[ Tx.Coin { Tx.addr = bob_addr; amount = amount 10 } ]
         ~fee:Amount.zero)
  in
  (* Submitting the same tx twice: second conflicts with first. *)
  let b, skipped =
    ok
      (Miner.build_block !chain ~time:50 ~miner_addr:addr
         ~candidates:[ tx; tx ])
  in
  checki "one included" 2 (List.length b.txs);
  checki "one skipped" 1 (List.length skipped)

let test_supply_audit () =
  let chain, _, addr = fresh_world "supply" in
  mine_n chain ~addr 10;
  let st = Chain.tip_state !chain in
  checki "supply = 10 subsidies" (10 * 5_000_000_000)
    (Utxo_set.fold st.utxos ~init:0 ~f:(fun acc _ (c : Utxo_set.coin) ->
         acc + Amount.to_int c.amount))

let suite =
  ( "mainchain",
    [
      Alcotest.test_case "pow target" `Quick test_pow_target;
      Alcotest.test_case "pow mine" `Quick test_pow_mine_finds;
      Alcotest.test_case "coinbase maturity" `Quick test_coinbase_maturity;
      Alcotest.test_case "transfer and fees" `Quick test_transfer_and_fees;
      Alcotest.test_case "double spend" `Quick test_double_spend_rejected;
      Alcotest.test_case "signature required" `Quick test_signature_required;
      Alcotest.test_case "inflation rejected" `Quick test_inflation_rejected;
      Alcotest.test_case "fork choice and reorg" `Quick test_fork_choice_and_reorg;
      Alcotest.test_case "duplicate/orphan blocks" `Quick
        test_duplicate_and_orphan_blocks;
      Alcotest.test_case "block structure" `Quick test_block_structure_checks;
      Alcotest.test_case "sc registration" `Quick test_sc_registration_rules;
      Alcotest.test_case "ft rules" `Quick test_ft_rules;
      Alcotest.test_case "ceasing detection" `Quick test_ceasing_detection;
      Alcotest.test_case "mempool" `Quick test_mempool;
      prop_pool_model;
      Alcotest.test_case "pool reinject dedup" `Quick test_pool_reinject_dedup;
      Alcotest.test_case "pool histograms mainchain only" `Quick
        test_pool_histograms_mainchain_only;
      Alcotest.test_case "miner skips invalid" `Quick test_miner_skips_invalid;
      Alcotest.test_case "supply audit" `Quick test_supply_audit;
    ] )
