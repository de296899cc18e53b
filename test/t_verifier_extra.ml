(* Additional coverage: the unified verifier interface, sidechain
   configuration validation, wallet edge cases, and Mc_ref sizes. *)

open Zen_crypto
open Zen_snark
open Zendoo

let checkb = Alcotest.(check bool)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

(* A vk with the wrong public arity must be rejected at registration,
   never at verification time. *)
let vk_with_arity n =
  let ctx = Gadget.create () in
  let inputs = List.init n (fun _ -> Gadget.input ctx Fp.zero) in
  (match inputs with
  | w :: _ -> Gadget.assert_eq ctx w w
  | [] ->
    let w = Gadget.witness ctx Fp.zero in
    Gadget.assert_eq ctx w w);
  let c, _, _ = Gadget.finalize ~name:(Printf.sprintf "arity%d" n) ctx in
  snd (Backend.setup c)

let test_config_rejects_wrong_arity () =
  let good = vk_with_arity 5 and bad = vk_with_arity 3 in
  checkb "bad wcert vk" true
    (Result.is_error
       (Sidechain_config.make ~ledger_id:(Hash.of_string "x") ~start_block:10
          ~epoch_len:4 ~submit_len:2 ~wcert_vk:bad ()));
  checkb "bad btr vk" true
    (Result.is_error
       (Sidechain_config.make ~ledger_id:(Hash.of_string "x") ~start_block:10
          ~epoch_len:4 ~submit_len:2 ~wcert_vk:good ~btr_vk:bad ()));
  checkb "good accepted" true
    (Result.is_ok
       (Sidechain_config.make ~ledger_id:(Hash.of_string "x") ~start_block:10
          ~epoch_len:4 ~submit_len:2 ~wcert_vk:good ()))

let test_config_parameter_bounds () =
  let vk = vk_with_arity 5 in
  let make ~epoch_len ~submit_len =
    Sidechain_config.make ~ledger_id:(Hash.of_string "x") ~start_block:10
      ~epoch_len ~submit_len ~wcert_vk:vk ()
  in
  checkb "epoch_len 1" true (Result.is_error (make ~epoch_len:1 ~submit_len:1));
  checkb "submit 0" true (Result.is_error (make ~epoch_len:4 ~submit_len:0));
  (* submit_len > epoch_len overlaps consecutive submission windows —
     legal; the ledger enforces sequential certification instead. *)
  checkb "submit > epoch ok" true (Result.is_ok (make ~epoch_len:4 ~submit_len:5));
  checkb "submit = epoch ok" true (Result.is_ok (make ~epoch_len:4 ~submit_len:4))

(* The schedule bounds shared by registration and [zendoo-cli
   schedule]: exact messages just past each edge, in check order. *)
let test_config_schedule_edges () =
  let check ~start_block ~epoch_len ~submit_len expected =
    Alcotest.(check (result unit string))
      (Printf.sprintf "start %d, epoch %d, submit %d" start_block epoch_len
         submit_len)
      expected
      (Sidechain_config.check_schedule ~start_block ~epoch_len ~submit_len)
  in
  check ~start_block:0 ~epoch_len:2 ~submit_len:1 (Ok ());
  check ~start_block:0 ~epoch_len:1 ~submit_len:1
    (Error "sidechain config: epoch_len must be >= 2");
  check ~start_block:0 ~epoch_len:2 ~submit_len:0
    (Error "sidechain config: submit_len must be >= 1");
  check ~start_block:(-1) ~epoch_len:2 ~submit_len:1
    (Error "sidechain config: negative start_block");
  check ~start_block:(-5) ~epoch_len:0 ~submit_len:0
    (Error "sidechain config: epoch_len must be >= 2");
  check ~start_block:100 ~epoch_len:10 ~submit_len:11 (Ok ())

let test_disabled_withdrawals () =
  (* vkBTR/vkCSW set to NULL (§4.1.2.1): requests must be refused. *)
  let vk = vk_with_arity 5 in
  let config =
    ok
      (Sidechain_config.make ~ledger_id:(Hash.of_string "no-csw")
         ~start_block:10 ~epoch_len:4 ~submit_len:2 ~wcert_vk:vk ())
  in
  let ledger =
    ok (Zen_mainchain.Sc_ledger.register Zen_mainchain.Sc_ledger.empty config
          ~created_at:5)
  in
  let request =
    Mainchain_withdrawal.make ~kind:Mainchain_withdrawal.Btr
      ~ledger_id:config.ledger_id ~receiver:Hash.zero ~amount:(amount 5)
      ~nullifier:(Hash.of_string "nf") ~proofdata:[] ~proof:Fixtures.zero_proof
  in
  match
    Zen_mainchain.Sc_ledger.check_withdrawal ledger ~request ~height:12
  with
  | Error e -> checkb "btr disabled" true (String.length e > 0)
  | Ok () -> Alcotest.fail "disabled BTR accepted"

let test_wcert_binds_boundaries () =
  (* A certificate proof is bound to the epoch boundary hashes the MC
     enforces: verification against different boundaries fails. *)
  let params = Zen_latus.Params.default in
  let family = Zen_latus.Circuits.make params in
  let bt_root = Backward_transfer.list_root [] in
  let prev = Hash.of_string "prev" and cur = Hash.of_string "cur" in
  let proofdata = Proofdata.[ Digest Hash.zero; Field Fp.one; Blob "" ] in
  let proof =
    ok
      (Zen_latus.Circuits.prove_wcert_binding family ~quality:1 ~bt_root
         ~end_prev_epoch:prev ~end_epoch:cur ~proofdata ~s_prev:Fp.zero
         ~s_last:Fp.zero)
  in
  let cert =
    Withdrawal_certificate.make ~ledger_id:(Hash.of_string "sc") ~epoch_id:0
      ~quality:1 ~bt_list:[] ~proofdata ~proof
  in
  let vk = (Zen_latus.Circuits.wcert_keys family).vk in
  let verify ~cert ~end_prev_epoch ~end_epoch =
    Verifier.run_job (Verifier.wcert_job ~vk ~cert ~end_prev_epoch ~end_epoch)
  in
  checkb "right boundaries" true
    (verify ~cert ~end_prev_epoch:prev ~end_epoch:cur);
  checkb "wrong prev" false (verify ~cert ~end_prev_epoch:cur ~end_epoch:cur);
  checkb "wrong cur" false (verify ~cert ~end_prev_epoch:prev ~end_epoch:prev);
  (* quality is bound too *)
  let cert2 =
    Withdrawal_certificate.make ~ledger_id:cert.ledger_id ~epoch_id:0
      ~quality:2 ~bt_list:[] ~proofdata ~proof
  in
  checkb "quality bound" false
    (verify ~cert:cert2 ~end_prev_epoch:prev ~end_epoch:cur)

let test_mc_wallet_edge_cases () =
  let params =
    { Zen_mainchain.Chain_state.default_params with pow = Zen_mainchain.Pow.trivial }
  in
  let chain = ref (Zen_mainchain.Chain.create ~params ~time:0 ()) in
  let w = Zen_mainchain.Wallet.create ~seed:"edge" in
  let addr = Zen_mainchain.Wallet.fresh_address w in
  for t = 1 to 4 do
    let b =
      ok (Zen_mainchain.Miner.mine_empty !chain ~time:t ~miner_addr:addr)
    in
    chain := fst (ok (Zen_mainchain.Chain.add_block !chain b))
  done;
  let st = Zen_mainchain.Chain.tip_state !chain in
  (* spending more than the balance *)
  checkb "insufficient funds" true
    (Result.is_error
       (Zen_mainchain.Wallet.build_transfer w st
          ~outputs:
            [ Zen_mainchain.Tx.Coin { Zen_mainchain.Tx.addr; amount = Amount.max_supply } ]
          ~fee:Amount.zero));
  (* exact spend with no change: output count stays as requested *)
  let balance = Zen_mainchain.Wallet.balance w st in
  let tx =
    ok
      (Zen_mainchain.Wallet.build_transfer w st
         ~outputs:[ Zen_mainchain.Tx.Coin { Zen_mainchain.Tx.addr; amount = balance } ]
         ~fee:Amount.zero)
  in
  match tx with
  | Zen_mainchain.Tx.Transfer { outputs; _ } ->
    checkb "no change output" true (List.length outputs = 1)
  | _ -> Alcotest.fail "expected transfer"

let test_mc_ref_size_claim () =
  (* §5.5.1: a reference is much smaller than the full MC block. A
     block with 50 transfers but only 1 sidechain-related tx yields a
     reference a fraction of the body size. *)
  let params =
    { Zen_mainchain.Chain_state.default_params with pow = Zen_mainchain.Pow.trivial }
  in
  let chain = ref (Zen_mainchain.Chain.create ~params ~time:0 ()) in
  let w = Zen_mainchain.Wallet.create ~seed:"size" in
  let addr = Zen_mainchain.Wallet.fresh_address w in
  for t = 1 to 8 do
    let b = ok (Zen_mainchain.Miner.mine_empty !chain ~time:t ~miner_addr:addr) in
    chain := fst (ok (Zen_mainchain.Chain.add_block !chain b))
  done;
  (* a block with many plain transfers *)
  let st = Zen_mainchain.Chain.tip_state !chain in
  let rec build_txs state n acc =
    if n = 0 then List.rev acc
    else begin
      match
        Zen_mainchain.Wallet.build_transfer w state
          ~outputs:[ Zen_mainchain.Tx.Coin { Zen_mainchain.Tx.addr; amount = amount 1000 } ]
          ~fee:Amount.zero
      with
      | Error _ -> List.rev acc
      | Ok tx -> (
        match
          Zen_mainchain.Chain_state.apply_tx state ~height:(state.height + 1)
            ~block_hash:Hash.zero tx
        with
        | Ok (state', _) -> build_txs state' (n - 1) (tx :: acc)
        | Error _ -> List.rev acc)
    end
  in
  let txs = build_txs st 10 [] in
  checkb "built several txs" true (List.length txs >= 3);
  let b, _ =
    ok
      (Zen_mainchain.Miner.build_block !chain ~time:99 ~miner_addr:addr
         ~candidates:txs)
  in
  chain := fst (ok (Zen_mainchain.Chain.add_block !chain b));
  let r =
    ok (Zen_latus.Mc_ref.build ~ledger_id:(Hash.of_string "some-sc") b)
  in
  checkb "reference verifies" true
    (Result.is_ok (Zen_latus.Mc_ref.verify ~ledger_id:(Hash.of_string "some-sc") r));
  let ref_bytes = Zen_latus.Sc_wire.mc_ref_size_bytes r in
  let block_bytes = Zen_mainchain.Mc_wire.block_size_bytes b in
  checkb
    (Printf.sprintf "ref (%d B) smaller than block (%d B)" ref_bytes
       block_bytes)
    true (ref_bytes < block_bytes)

let suite =
  ( "verifier-extra",
    [
      Alcotest.test_case "config vk arity" `Quick test_config_rejects_wrong_arity;
      Alcotest.test_case "config bounds" `Quick test_config_parameter_bounds;
      Alcotest.test_case "config schedule edges" `Quick
        test_config_schedule_edges;
      Alcotest.test_case "disabled withdrawals" `Quick test_disabled_withdrawals;
      Alcotest.test_case "wcert binds boundaries" `Quick
        test_wcert_binds_boundaries;
      Alcotest.test_case "mc wallet edges" `Quick test_mc_wallet_edge_cases;
      Alcotest.test_case "mc ref size" `Quick test_mc_ref_size_claim;
    ] )
