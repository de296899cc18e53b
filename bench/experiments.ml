(* Experiment series (DESIGN.md §4, EXPERIMENTS.md): each function
   regenerates one figure/claim of the paper as a printed table. *)

open Zen_crypto
open Zen_latus
open Zendoo

let amount n = Amount.of_int_exn n

(* ---- E1: Merkle hash tree scaling (Fig. 2) ---- *)

let e1_mht_scaling () =
  Util.header "E1 mht-scaling (Fig. 2)"
    "Merkle tree: build O(n); proof size and verification O(log n).";
  let rows =
    List.map
      (fun log_n ->
        let n = 1 lsl log_n in
        let blocks = List.init n (fun i -> Printf.sprintf "data-%d" i) in
        let build_t, tree = Util.time_of_run (fun () -> Merkle.of_data blocks) in
        let proof = Merkle.prove tree (n / 2) in
        let leaf = Hash.of_string (Printf.sprintf "data-%d" (n / 2)) in
        let verify_t =
          Util.time_per_run ~budget:0.05 (fun () ->
              Merkle.verify ~root:(Merkle.root tree) ~leaf proof)
        in
        [
          string_of_int n;
          Util.pp_seconds build_t;
          string_of_int (Merkle.proof_length proof);
          Util.pp_bytes (Merkle.proof_size_bytes proof);
          Util.pp_seconds verify_t;
        ])
      [ 6; 8; 10; 12; 14 ]
  in
  Util.table
    ~columns:[ "leaves"; "build"; "proof len"; "proof size"; "verify" ]
    rows

(* ---- E2: withdrawal epoch schedule and ceasing (Fig. 3, Def. 4.2) ---- *)

let e2_epoch_schedule () =
  Util.header "E2 epoch-schedule (Fig. 3, Def. 4.2)"
    "Withdrawal epochs, submission windows, and the ceasing deadline.";
  let sched = { Epoch.start_block = 100; epoch_len = 10; submit_len = 3 } in
  let rows =
    List.map
      (fun e ->
        let lo, hi = Epoch.submission_window sched ~epoch:e in
        [
          string_of_int e;
          Printf.sprintf "%d..%d" (Epoch.first_height sched ~epoch:e)
            (Epoch.last_height sched ~epoch:e);
          Printf.sprintf "%d..%d" lo hi;
          string_of_int (hi + 1);
        ])
      [ 0; 1; 2; 3 ]
  in
  Util.table
    ~columns:[ "epoch"; "MC heights"; "cert window"; "ceased if none by" ]
    rows;
  (* Live ceasing scenario through the harness. *)
  let h = Zen_sim.Harness.create ~seed:"e2" () in
  Zen_sim.Harness.fund h ~blocks:3;
  let sc =
    Result.get_ok
      (Zen_sim.Harness.add_latus h ~name:"withholder" ~epoch_len:3
         ~submit_len:1 ~activation_delay:1 ())
  in
  sc.Zen_sim.Harness.withhold_certs <- true;
  let first_ceased = ref None in
  for _ = 1 to 10 do
    Zen_sim.Harness.tick h;
    if !first_ceased = None && Zen_sim.Harness.is_ceased h sc then
      first_ceased := Some (Zen_mainchain.Chain.height h.Zen_sim.Harness.chain)
  done;
  Util.note
    "scenario: sidechain withholding certificates ceased at MC height %s \
     (activation %d, epoch_len 3, submit_len 1)\n"
    (match !first_ceased with Some height -> string_of_int height | None -> "never")
    sc.Zen_sim.Harness.config.start_block

(* ---- E3: SCTxsCommitment (Figs. 4 & 12) ---- *)

let e3_sctx_commitment () =
  Util.header "E3 sctx-commitment (Figs. 4 & 12)"
    "Two-level commitment: build vs #sidechains; mproof and\n\
     proofOfNoData stay logarithmic; flat-scan baseline grows linearly.";
  let mk_entry i nfts =
    let ledger_id = Hash.of_string (Printf.sprintf "sc-%d" i) in
    {
      Sc_commitment.ledger_id;
      fts =
        List.init nfts (fun j ->
            Forward_transfer.make ~ledger_id
              ~receiver_metadata:(String.make 64 'x')
              ~amount:(amount (j + 1)));
      btrs = [];
      wcert = None;
    }
  in
  let rows =
    List.map
      (fun n_sc ->
        let nfts = 20 in
        let entries = List.init n_sc (fun i -> mk_entry i nfts) in
        let build_t, t =
          Util.time_of_run (fun () -> Result.get_ok (Sc_commitment.build entries))
        in
        let target = (List.nth entries (n_sc / 2)).Sc_commitment.ledger_id in
        let m = Option.get (Sc_commitment.prove_membership t target) in
        let eh = Sc_commitment.entry_hash (List.nth entries (n_sc / 2)) in
        let verify_t =
          Util.time_per_run ~budget:0.05 (fun () ->
              Sc_commitment.verify_membership ~root:(Sc_commitment.root t)
                ~ledger_id:target ~entry_hash:eh m)
        in
        let absent = Hash.of_string "absent-sc" in
        let a = Option.get (Sc_commitment.prove_absence t absent) in
        (* Baseline: shipping + hashing all sidechains' data. *)
        let flat_t =
          Util.time_per_run ~budget:0.05 (fun () ->
              List.iter (fun e -> ignore (Sc_commitment.entry_hash e)) entries)
        in
        [
          string_of_int n_sc;
          Util.pp_seconds build_t;
          Util.pp_bytes (Sc_commitment.membership_size_bytes m);
          Util.pp_seconds verify_t;
          Util.pp_bytes (Sc_commitment.absence_size_bytes a);
          Util.pp_seconds flat_t;
        ])
      [ 4; 16; 64; 256 ]
  in
  Util.table
    ~columns:
      [ "#sidechains"; "build"; "mproof"; "verify"; "noData proof"; "flat scan" ]
    rows

(* ---- E4: slot-leader fairness (Fig. 8, §5.1) ---- *)

let e4_leader_fairness () =
  Util.header "E4 leader-fairness (Fig. 8, §5.1)"
    "Slot leadership is proportional to stake (10000 slots).";
  let stakes =
    [ ("alice", 500_000); ("bob", 300_000); ("carol", 150_000); ("dave", 50_000) ]
  in
  let d =
    Leader.of_list
      (List.map (fun (n, s) -> (Hash.of_string n, amount s)) stakes)
  in
  let rand = Hash.of_string "e4-epoch-randomness" in
  let slots = 10_000 in
  let tally = Hashtbl.create 8 in
  for slot = 0 to slots - 1 do
    match Leader.select d ~rand ~slot with
    | Some l ->
      Hashtbl.replace tally l (1 + Option.value (Hashtbl.find_opt tally l) ~default:0)
    | None -> ()
  done;
  let total = float_of_int 1_000_000 in
  let rows =
    List.map
      (fun (name, stake) ->
        let won =
          Option.value (Hashtbl.find_opt tally (Hash.of_string name)) ~default:0
        in
        [
          name;
          Printf.sprintf "%.1f%%" (100. *. float_of_int stake /. total);
          Printf.sprintf "%.1f%%" (100. *. float_of_int won /. float_of_int slots);
        ])
      stakes
  in
  Util.table ~columns:[ "stakeholder"; "stake"; "slots won" ] rows

(* ---- E5: MST operations and mst_delta (Figs. 9, 15, 16) ---- *)

(* A naive dense Merkle tree that rehashes everything per update — the
   ablation showing why the sparse tree with cached empty hashes wins. *)
let naive_root depth leaves =
  let n = 1 lsl depth in
  let level =
    Array.init n (fun i ->
        Smt.leaf_hash (Option.bind (Hashtbl.find_opt leaves i) Option.some))
  in
  let rec up level =
    if Array.length level = 1 then level.(0)
    else
      up
        (Array.init
           (Array.length level / 2)
           (fun i -> Poseidon.hash2 level.(2 * i) level.((2 * i) + 1)))
  in
  up level

let e5_mst_ops () =
  Util.header "E5 mst-ops (Figs. 9, 15, 16)"
    "Sparse MST update cost is O(depth); a naive dense rebuild is O(2^depth).";
  let rows =
    List.map
      (fun depth ->
        let params = { Params.default with mst_depth = depth } in
        let m = ref (Mst.create params) in
        (* pre-populate 64 utxos *)
        for i = 0 to 63 do
          let u =
            Utxo.make ~addr:(Hash.of_string "addr") ~amount:(amount (i + 1))
              ~nonce:(Hash.of_string (Printf.sprintf "pre-%d-%d" depth i))
          in
          match Mst.apply_ops !m [ Mst.Op_insert u ] with
          | Ok m' -> m := m'
          | Error _ -> ()
        done;
        let fresh i =
          Utxo.make ~addr:(Hash.of_string "addr") ~amount:(amount 7)
            ~nonce:(Hash.of_string (Printf.sprintf "fresh-%d-%d" depth i))
        in
        let counter = ref 0 in
        let insert_t =
          Util.time_per_run ~budget:0.1 (fun () ->
              incr counter;
              ignore (Mst.apply_ops !m [ Mst.Op_insert (fresh !counter) ]))
        in
        let pos = 5 in
        let prove_t =
          Util.time_per_run ~budget:0.05 (fun () -> Mst.prove_slot !m pos)
        in
        let naive_t =
          if depth <= 12 then begin
            let leaves = Hashtbl.create 64 in
            List.iter
              (fun (p, u) -> Hashtbl.replace leaves p (Utxo.commitment u))
              (Mst.all_utxos !m);
            Some (Util.time_per_run ~budget:0.1 ~min_runs:1 (fun () ->
                naive_root depth leaves))
          end
          else None
        in
        let delta = Mst.delta_bits !m in
        [
          string_of_int depth;
          string_of_int (1 lsl depth);
          Util.pp_seconds insert_t;
          Util.pp_seconds prove_t;
          (match naive_t with Some t -> Util.pp_seconds t | None -> "(skipped)");
          Util.pp_bytes (Bytes.length delta);
        ])
      [ 8; 12; 16; 20 ]
  in
  Util.table
    ~columns:
      [ "depth"; "slots"; "sparse insert"; "prove slot"; "naive rebuild"; "mst_delta size" ]
    rows

(* ---- E6: recursive proof composition (Figs. 10 & 11, §5.4) ---- *)

let e6_recursive_proof () =
  Util.header "E6 recursive-proof (Figs. 10 & 11)"
    "Prover work linear in #transitions, merge-tree depth logarithmic,\n\
     final proof constant; sequential-merge ablation shows the degenerate tree.";
  let params = Params.default in
  let family = Circuits.make params in
  let rsys =
    Zen_snark.Recursive.create ~name:"bench" ~base_vks:(Circuits.base_vks family)
  in
  let make_chain n =
    (* n inserts applied to a fresh state. *)
    let state = ref (Sc_state.create params) in
    List.init n (fun i ->
        let u =
          Utxo.make ~addr:(Hash.of_string "bench") ~amount:(amount (i + 1))
            ~nonce:(Hash.of_string (Printf.sprintf "e6-%d" i))
        in
        let step = Sc_tx.Insert u in
        let proof, vk, s_from, s_to =
          Result.get_ok (Circuits.prove_step family !state step)
        in
        state := Result.get_ok (Sc_tx.apply_step !state step);
        Result.get_ok
          (Zen_snark.Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof))
  in
  let rows =
    List.map
      (fun n ->
        let base_t, chain = Util.time_of_run (fun () -> make_chain n) in
        let merge_t, top =
          Util.time_of_run (fun () ->
              let acc = Zen_snark.Recursive.Incremental.create rsys in
              List.iter (Zen_snark.Recursive.Incremental.push acc) chain;
              Result.get_ok (Zen_snark.Recursive.Incremental.finish acc))
        in
        let seq_t, seq =
          Util.time_of_run (fun () ->
              (* The degenerate tree: a left fold, one merge per link. *)
              List.fold_left
                (fun acc t -> Result.get_ok (Zen_snark.Recursive.merge rsys acc t))
                (List.hd chain) (List.tl chain))
        in
        let verify_t =
          Util.time_per_run ~budget:0.05 (fun () ->
              Zen_snark.Recursive.verify rsys top)
        in
        [
          string_of_int n;
          Util.pp_seconds base_t;
          Util.pp_seconds merge_t;
          string_of_int (Zen_snark.Recursive.depth top);
          string_of_int (Zen_snark.Recursive.depth seq);
          Util.pp_seconds seq_t;
          Util.pp_bytes (Zen_snark.Recursive.proof_size_bytes top);
          Util.pp_seconds verify_t;
        ])
      [ 1; 4; 16; 64 ]
  in
  Util.table
    ~columns:
      [
        "#transitions"; "base proofs"; "balanced merge"; "depth";
        "seq depth"; "seq merge"; "final proof"; "verify";
      ]
    rows

(* ---- E7: the headline — certificate verification cost (§4.1.2) ---- *)

let e7_wcert_verification () =
  Util.header "E7 wcert-verification (headline, §4.1.2)"
    "Mainchain cost to validate one epoch's withdrawals:\n\
     Zendoo = one SNARK verification (constant);\n\
     certifier committee [12] = threshold signature checks (linear in m);\n\
     direct validation = replay every SC transaction (linear in activity).";
  let params = Params.default in
  let family = Circuits.make params in
  let ledger_id = Hash.of_string "e7-sc" in
  (* Zendoo: build a certificate binding proof and measure Verify. *)
  let make_cert n_bts =
    let bt_list =
      List.init n_bts (fun i ->
          Backward_transfer.make
            ~receiver_addr:(Hash.of_string (string_of_int i))
            ~amount:(amount (i + 1)))
    in
    let proofdata =
      Proofdata.
        [ Digest (Hash.of_string "sb"); Field Fp.one; Blob (String.make 64 '\000') ]
    in
    let end_prev_epoch = Hash.of_string "prev" in
    let end_epoch = Hash.of_string "cur" in
    let proof =
      Result.get_ok
        (Circuits.prove_wcert_binding family ~quality:42
           ~bt_root:(Backward_transfer.list_root bt_list)
           ~end_prev_epoch ~end_epoch ~proofdata ~s_prev:Fp.one ~s_last:Fp.two)
    in
    ( Withdrawal_certificate.make ~ledger_id ~epoch_id:1 ~quality:42 ~bt_list
        ~proofdata ~proof,
      end_prev_epoch,
      end_epoch )
  in
  (* The certificate (and hence its verification work) is structurally
     independent of epoch activity: the same constant-size proof covers
     any number of sidechain transactions. Fix 8 BTs and vary the
     activity the proof attests to. *)
  let zendoo_rows =
    let cert, prev, cur = make_cert 8 in
    List.map
      (fun n_txs ->
        let t =
          Util.time_per_run ~budget:0.2 (fun () ->
              Verifier.verify_wcert ~vk:(Circuits.wcert_keys family).vk ~cert
                ~end_prev_epoch:prev ~end_epoch:cur)
        in
        [ "Zendoo SNARK"; string_of_int n_txs; "8 BTs"; Util.pp_seconds t ])
      [ 16; 256; 4096 ]
  in
  (* Payout hashing (MH(BTList)) is linear in the number of
     *withdrawals* — outputs the MC must materialize under any scheme —
     not in sidechain activity. *)
  let payout_rows =
    List.map
      (fun n_bts ->
        let cert, prev, cur = make_cert n_bts in
        let t =
          Util.time_per_run ~budget:0.2 (fun () ->
              Verifier.verify_wcert ~vk:(Circuits.wcert_keys family).vk ~cert
                ~end_prev_epoch:prev ~end_epoch:cur)
        in
        [
          "Zendoo (payout hashing)";
          "-";
          string_of_int n_bts ^ " BTs";
          Util.pp_seconds t;
        ])
      [ 128; 1024 ]
  in
  let committee_rows =
    List.map
      (fun m ->
        let c = Zen_baselines.Certifiers.committee_of_seed ~seed:"e7" ~size:m in
        let threshold = (2 * m / 3) + 1 in
        let cert =
          Zen_baselines.Certifiers.make_certificate c
            ~signers:(List.init threshold Fun.id) ~ledger_id ~epoch_id:1
            ~bt_list:[]
        in
        let t =
          Util.time_per_run ~budget:0.2 (fun () ->
              Zen_baselines.Certifiers.verify c ~threshold cert)
        in
        [
          "certifiers [12]";
          "0";
          Printf.sprintf "m=%d t=%d" m threshold;
          Util.pp_seconds t;
        ])
      [ 4; 16; 64 ]
  in
  let direct_rows =
    List.map
      (fun n_txs ->
        (* an epoch of n payments *)
        let w = Sc_wallet.create ~seed:"e7-direct" in
        let addr = Sc_wallet.fresh_address w in
        let st = ref (Sc_state.create params) in
        let coins =
          List.init n_txs (fun i ->
              Utxo.make ~addr ~amount:(amount 10)
                ~nonce:(Hash.of_string (Printf.sprintf "d-%d" i)))
        in
        List.iter
          (fun u ->
            match Mst.apply_ops !st.Sc_state.mst [ Mst.Op_insert u ] with
            | Ok m -> st := Sc_state.with_mst !st m
            | Error _ -> ())
          coins;
        let initial = !st in
        let txs =
          List.filter_map
            (fun u ->
              Result.to_option
                (Sc_wallet.build_backward_transfer w initial ~utxo:u
                   ~mc_receiver:(Hash.of_string "mc")))
            coins
        in
        let t =
          Util.time_per_run ~budget:0.2 ~min_runs:1 (fun () ->
              Zen_baselines.Direct_validation.replay_epoch ~params ~initial ~txs)
        in
        [
          "direct validation";
          string_of_int n_txs;
          Util.pp_bytes (Zen_baselines.Direct_validation.epoch_data_bytes ~txs);
          Util.pp_seconds t;
        ])
      [ 16; 64; 256 ]
  in
  Util.table
    ~columns:[ "scheme"; "#SC txs"; "extra"; "MC verify cost" ]
    (zendoo_rows @ payout_rows @ committee_rows @ direct_rows)

(* ---- E8: BTR/CSW costs and nullifiers (§4.1.2.1) ---- *)

let e8_csw_btr () =
  Util.header "E8 csw-btr (§4.1.2.1, §5.5.3.2)"
    "Ownership proof generation/verification and nullifier throughput.";
  let params = Params.default in
  let family = Circuits.make params in
  let m = ref (Mst.create params) in
  let utxos =
    List.init 100 (fun i ->
        Utxo.make ~addr:(Hash.of_string "owner") ~amount:(amount (i + 1))
          ~nonce:(Hash.of_string (Printf.sprintf "e8-%d" i)))
  in
  List.iter
    (fun u ->
      match Mst.apply_ops !m [ Mst.Op_insert u ] with
      | Ok m' -> m := m'
      | Error _ -> ())
    utxos;
  let u = List.hd utxos in
  let proofdata = [ Proofdata.Blob (Utxo.encode u) ] in
  let reference_block = Hash.of_string "refb" in
  let receiver = Hash.of_string "recv" in
  let gen_t =
    Util.time_per_run ~budget:0.3 ~min_runs:2 (fun () ->
        Circuits.prove_ownership family ~mst:!m ~utxo:u ~reference_block
          ~receiver ~proofdata)
  in
  let proof =
    Result.get_ok
      (Circuits.prove_ownership family ~mst:!m ~utxo:u ~reference_block
         ~receiver ~proofdata)
  in
  let request =
    Mainchain_withdrawal.make ~kind:Mainchain_withdrawal.Csw
      ~ledger_id:(Hash.of_string "sc") ~receiver ~amount:u.Utxo.amount
      ~nullifier:(Utxo.nullifier u) ~proofdata ~proof
  in
  let verify_t =
    Util.time_per_run ~budget:0.2 (fun () ->
        Verifier.verify_withdrawal ~vk:(Circuits.ownership_keys family).vk
          ~request ~reference_block)
  in
  let nullifier_t =
    let set = ref Hash.Set.empty in
    let i = ref 0 in
    Util.time_per_run ~budget:0.1 (fun () ->
        incr i;
        let nf = Hash.of_string (string_of_int !i) in
        if not (Hash.Set.mem nf !set) then set := Hash.Set.add nf !set)
  in
  Util.table
    ~columns:[ "operation"; "cost" ]
    [
      [ "ownership proof generation (depth 12)"; Util.pp_seconds gen_t ];
      [ "MC verification of BTR/CSW"; Util.pp_seconds verify_t ];
      [ "nullifier check+record"; Util.pp_seconds nullifier_t ];
      [ "proof size"; Util.pp_bytes Zen_snark.Backend.proof_size_bytes ];
    ]

(* ---- E9: safeguard stress (§4.1.2.2) ---- *)

let e9_safeguard_stress () =
  Util.header "E9 safeguard-stress (§4.1.2.2)"
    "Random epochs of FT/payment/BT traffic: the MC-side balance\n\
     invariant (withdrawn <= transferred) holds; counts reported.";
  let h = Zen_sim.Harness.create ~seed:"e9" () in
  Zen_sim.Harness.fund h ~blocks:6;
  let sc =
    Result.get_ok
      (Zen_sim.Harness.add_latus h ~name:"stress" ~epoch_len:4 ~submit_len:2
         ~activation_delay:1 ())
  in
  let rng = Rng.create 909 in
  let users = Array.init 4 (fun i -> Sc_wallet.create ~seed:(Printf.sprintf "e9-u%d" i)) in
  let addrs = Array.map Sc_wallet.fresh_address users in
  let fts = ref 0 and bts = ref 0 and pays = ref 0 in
  for round = 1 to 24 do
    (* random FT *)
    if Rng.int rng 3 = 0 then begin
      let u = Rng.int rng 4 in
      match
        Zen_sim.Harness.forward_transfer h sc ~receiver:addrs.(u)
          ~payback:addrs.(u)
          ~amount:(amount (10_000 + Rng.int rng 100_000))
      with
      | Ok () -> incr fts
      | Error _ -> ()
    end;
    (* random SC payment / BT *)
    let state = Node.next_block_state sc.Zen_sim.Harness.node in
    let u = Rng.int rng 4 in
    (match Sc_wallet.utxos users.(u) state with
    | coin :: _ when round mod 5 = 0 ->
      (match
         Sc_wallet.build_backward_transfer users.(u) state ~utxo:coin
           ~mc_receiver:addrs.(u)
       with
      | Ok tx -> (
        match Node.submit_tx sc.Zen_sim.Harness.node tx with
        | Ok () -> incr bts
        | Error _ -> ())
      | Error _ -> ())
    | coin :: _ -> (
      let target = addrs.(Rng.int rng 4) in
      match
        Sc_wallet.build_payment users.(u) state ~to_:target
          ~amount:coin.Utxo.amount
      with
      | Ok tx -> (
        match Node.submit_tx sc.Zen_sim.Harness.node tx with
        | Ok () -> incr pays
        | Error _ -> ())
      | Error _ -> ())
    | [] -> ());
    Zen_sim.Harness.tick h
  done;
  let balance = Zen_sim.Harness.sc_balance_on_mc h sc in
  let certified = Node.certified_epochs sc.Zen_sim.Harness.node in
  Util.table
    ~columns:[ "metric"; "value" ]
    [
      [ "rounds"; "24" ];
      [ "forward transfers"; string_of_int !fts ];
      [ "payments"; string_of_int !pays ];
      [ "backward transfers"; string_of_int !bts ];
      [ "epochs certified"; string_of_int (List.length certified) ];
      [ "final SC balance on MC"; Amount.to_string balance ];
      [ "balance non-negative"; "yes (typed invariant)" ];
    ]

(* ---- E10: Latus transaction throughput (§5.3) ---- *)

let e10_latus_txs () =
  Util.header "E10 latus-txs (§5.3)"
    "State-transition throughput per transaction type (validation +\n\
     application, no proving).";
  let params = Params.default in
  let w = Sc_wallet.create ~seed:"e10" in
  let addr = Sc_wallet.fresh_address w in
  let base_state =
    let st = Sc_state.create params in
    let mst =
      List.fold_left
        (fun m i ->
          let u =
            Utxo.make ~addr ~amount:(amount 1000)
              ~nonce:(Hash.of_string (Printf.sprintf "e10-%d" i))
          in
          match Mst.apply_ops m [ Mst.Op_insert u ] with
          | Ok m' -> m'
          | Error _ -> m)
        st.Sc_state.mst (List.init 128 Fun.id)
    in
    Sc_state.with_mst st mst
  in
  let coin = List.hd (Sc_wallet.utxos w base_state) in
  let pay =
    Result.get_ok
      (Sc_wallet.build_payment w base_state ~to_:addr ~amount:(amount 500))
  in
  let bt =
    Result.get_ok
      (Sc_wallet.build_backward_transfer w base_state ~utxo:coin
         ~mc_receiver:(Hash.of_string "mc"))
  in
  let ft =
    Sc_tx.Forward_transfers_tx
      {
        mcid = Hash.zero;
        fts =
          [
            Forward_transfer.make ~ledger_id:Hash.zero
              ~receiver_metadata:(Sc_tx.ft_metadata ~receiver:addr ~payback:addr)
              ~amount:(amount 77);
          ];
      }
  in
  let row name tx =
    let t =
      Util.time_per_run ~budget:0.2 (fun () -> Sc_tx.apply base_state tx)
    in
    [ name; Util.pp_seconds t; Printf.sprintf "%.0f" (1.0 /. t) ]
  in
  Util.table
    ~columns:[ "tx type"; "apply"; "tx/s" ]
    [ row "payment (1-in-2-out)" pay; row "backward transfer" bt; row "forward transfers (1 ft)" ft ]

(* ---- E11: SNARK cost profile (Def. 2.3) ---- *)

let e11_snark_costs () =
  Util.header "E11 snark-costs (Def. 2.3)"
    "Prove linear in circuit size; proof size and verification constant.";
  let build_chain_circuit n =
    let ctx = Zen_snark.Gadget.create () in
    let x = Zen_snark.Gadget.input ctx Fp.one in
    let acc = ref x in
    for _ = 1 to n do
      acc := Zen_snark.Gadget.poseidon2 ctx !acc x
    done;
    let out = Zen_snark.Gadget.witness ctx (Zen_snark.Gadget.value !acc) in
    Zen_snark.Gadget.assert_eq ctx !acc out;
    Zen_snark.Gadget.finalize ~name:(Printf.sprintf "chain-%d" n) ctx
  in
  let rows =
    List.map
      (fun n ->
        let circuit, public, witness = build_chain_circuit n in
        let setup_t, (pk, vk) =
          Util.time_of_run (fun () -> Zen_snark.Backend.setup circuit)
        in
        let prove_t =
          Util.time_per_run ~budget:0.2 ~min_runs:2 (fun () ->
              Zen_snark.Backend.prove pk ~public ~witness)
        in
        let proof = Result.get_ok (Zen_snark.Backend.prove pk ~public ~witness) in
        let verify_t =
          Util.time_per_run ~budget:0.1 (fun () ->
              Zen_snark.Backend.verify vk ~public proof)
        in
        [
          string_of_int (Zen_snark.R1cs.num_constraints circuit);
          Util.pp_seconds setup_t;
          Util.pp_seconds prove_t;
          Util.pp_bytes (String.length (Zen_snark.Backend.proof_encode proof));
          Util.pp_seconds verify_t;
        ])
      [ 1; 8; 32; 128 ]
  in
  Util.table
    ~columns:[ "constraints"; "setup"; "prove"; "proof size"; "verify" ]
    rows

(* ---- E12: wire sizes — the light-sync claim (§5.5.1) ---- *)

let e12_wire_sizes () =
  Util.header "E12 wire-sizes (§5.5.1)"
    "What a sidechain node downloads per MC block: the reference (header\n\
     + commitment proof + own slice) vs the full block, exact encodings.";
  let open Zen_mainchain in
  let params = { Chain_state.default_params with pow = Pow.trivial } in
  let rows =
    List.map
      (fun n_transfers ->
        let chain = ref (Chain.create ~params ~time:0 ()) in
        let w = Wallet.create ~seed:(Printf.sprintf "e12-%d" n_transfers) in
        let addr = Wallet.fresh_address w in
        (* One mature coinbase per planned transfer (change outputs are
           not spendable within the same block). *)
        for t = 1 to n_transfers + 3 do
          (match Miner.mine_empty !chain ~time:t ~miner_addr:addr with
          | Ok b -> (
            match Chain.add_block !chain b with
            | Ok (c, _) -> chain := c
            | Error _ -> ())
          | Error _ -> ())
        done;
        (* n plain transfers + one FT to "our" sidechain *)
        let ledger_id = Hash.of_string "e12-sc" in
        let rec build state n acc =
          if n = 0 then List.rev acc
          else begin
            match
              Wallet.build_transfer w state
                ~outputs:[ Tx.Coin { Tx.addr; amount = amount 1000 } ]
                ~fee:Amount.zero
            with
            | Error _ -> List.rev acc
            | Ok tx -> (
              match
                Chain_state.apply_tx state ~height:(state.height + 1)
                  ~block_hash:Hash.zero tx
              with
              | Ok (state', _) -> build state' (n - 1) (tx :: acc)
              | Error _ -> List.rev acc)
          end
        in
        let txs = build (Chain.tip_state !chain) n_transfers [] in
        let ft_tx =
          Tx.Transfer
            {
              inputs = [];
              outputs =
                [
                  Tx.Ft
                    (Forward_transfer.make ~ledger_id
                       ~receiver_metadata:(String.make 64 'x')
                       ~amount:(amount 1));
                ];
            }
        in
        (* assemble without validation: inputs-empty FT tx is for size
           measurement of the commitment path only *)
        let block =
          match
            Block.assemble ~prev:(Chain.tip_hash !chain)
              ~height:(Chain.height !chain + 1)
              ~time:99
              ~txs:(txs @ [ ft_tx ])
              ~pow:Pow.trivial ()
          with
          | Ok b -> b
          | Error e -> failwith e
        in
        let full = Mc_wire.block_size_bytes block in
        let with_data =
          Result.get_ok (Zen_latus.Mc_ref.build ~ledger_id block)
        in
        let without_data =
          Result.get_ok
            (Zen_latus.Mc_ref.build ~ledger_id:(Hash.of_string "other") block)
        in
        [
          string_of_int (List.length block.txs);
          Util.pp_bytes full;
          Util.pp_bytes (Zen_latus.Sc_wire.mc_ref_size_bytes with_data);
          Util.pp_bytes (Zen_latus.Sc_wire.mc_ref_size_bytes without_data);
        ])
      [ 5; 20; 80 ]
  in
  Util.table
    ~columns:
      [ "block txs"; "full MC block"; "mc_ref (with data)"; "mc_ref (no data)" ]
    rows

(* ---- E13: distributed proving (§5.4.1) ---- *)

let e13_prover_pool () =
  Util.header "E13 prover-pool (§5.4.1)"
    "Real multicore epoch proving: an epoch's base proofs are generated\n\
     as Domain-pool futures and folded, in step order, into the Fig. 11\n\
     epoch proof while later steps are still proving\n\
     (Prover_pool.prove_and_merge). Wall-clock is measured, not\n\
     simulated; outputs are checked byte-identical against the 1-domain\n\
     run.";
  let params = Params.default in
  let family = Circuits.make params in
  let rsys =
    Zen_snark.Recursive.create ~name:"e13" ~base_vks:(Circuits.base_vks family)
  in
  let st = Sc_state.create params in
  let steps =
    List.init 32 (fun i ->
        Sc_tx.Insert
          (Utxo.make ~addr:(Hash.of_string "e13") ~amount:(amount (i + 1))
             ~nonce:(Hash.of_string (Printf.sprintf "e13-%d" i))))
  in
  let run pool =
    let t0 = Unix.gettimeofday () in
    Util.handicap_pause ();
    let proofs, stats, top =
      Result.get_ok
        (Prover_pool.prove_and_merge ~pool family rsys ~initial:st ~steps
           ~workers:(Zen_crypto.Pool.domains pool) ~seed:77)
    in
    let total = Unix.gettimeofday () -. t0 in
    let fingerprint =
      Hash.tagged "e13.run"
        (Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top)
        :: List.map
             (fun tp ->
               Zen_snark.Backend.proof_encode tp.Prover_pool.proof)
             proofs)
    in
    (stats, total, fingerprint)
  in
  let base_stats, base_total, base_fp = run Zen_crypto.Pool.sequential in
  let rows =
    List.map
      (fun domains ->
        let stats, total, fp =
          if domains = 1 then (base_stats, base_total, base_fp)
          else run (Zen_crypto.Pool.get ~domains)
        in
        [
          string_of_int domains;
          Util.pp_seconds stats.Prover_pool.total_work;
          Printf.sprintf "%.2f" stats.Prover_pool.concurrency;
          Util.pp_seconds total;
          Printf.sprintf "%.2fx" (base_total /. total);
          (if Hash.equal fp base_fp then "yes" else "NO");
        ])
      [ 1; 2; 4; 8 ]
  in
  Util.table
    ~columns:
      [
        "domains"; "task work"; "concurrency"; "prove+merge wall"; "speedup";
        "identical";
      ]
    rows;
  Util.note
    "32-step epoch; speedup = 1-domain prove+merge wall / this run's;\n\
     concurrency = task work / pipelined prove+merge wall.\n\
     Pools come from the process-wide registry (Pool.get): spawned once\n\
     per domain count, reused across rows, spawn cost outside the timed\n\
     sections. Domain.recommended_domain_count on this machine: %d\n\
     (wall-clock speedup is bounded by the cores actually available).\n"
    (Zen_crypto.Pool.recommended_domains ())

(* ---- E14: fault storm (Zen_sim.Faults) ---- *)

let e14_fault_storm () =
  Util.header "E14 fault-storm (Zen_sim.Faults)"
    "The epoch pipeline under seeded fault plans of growing intensity:\n\
     crashed/slow prover workers, dropped/delayed/duplicated certificate\n\
     submissions, adversarial reorgs and clock skew. Liveness (epochs\n\
     certified) degrades gracefully and proof bytes never change.";
  let params = Params.default in
  let family = Circuits.make params in
  let rsys =
    Zen_snark.Recursive.create ~name:"e14" ~base_vks:(Circuits.base_vks family)
  in
  let ticks = 24 and epoch_len = 4 and submit_len = 5 in
  let st = Sc_state.create params in
  let steps =
    List.init 8 (fun i ->
        Sc_tx.Insert
          (Utxo.make ~addr:(Hash.of_string "e14") ~amount:(amount (i + 1))
             ~nonce:(Hash.of_string (Printf.sprintf "e14-%d" i))))
  in
  let episode fl =
    Result.get_ok
      (Prover_pool.prove_and_merge ~faults:fl family rsys ~initial:st ~steps
         ~workers:4 ~seed:42)
  in
  let digest proofs =
    Hash.tagged "e14.run"
      (List.map
         (fun tp -> Zen_snark.Backend.proof_encode tp.Prover_pool.proof)
         proofs)
  in
  let clean_digest =
    let proofs, _, _ = episode [] in
    digest proofs
  in
  let rows =
    List.map
      (fun intensity ->
        let plan =
          Zen_sim.Faults.storm ~seed:42 ~first_tick:8 ~ticks
            ~epochs:(ticks / epoch_len) ~workers:4 ~intensity ()
        in
        let faults = Zen_sim.Faults.create ~seed:42 plan in
        let h = Zen_sim.Harness.create ~faults ~seed:"e14" () in
        Zen_sim.Harness.fund h ~blocks:5;
        let sc =
          Result.get_ok
            (Zen_sim.Harness.add_latus h ~name:"sc" ~family ~epoch_len
               ~submit_len ~activation_delay:1 ())
        in
        Zen_sim.Harness.tick_n h ticks;
        let certified =
          let state = Zen_mainchain.Chain.tip_state h.chain in
          match Zen_mainchain.Sc_ledger.find state.scs sc.ledger_id with
          | None -> 0
          | Some s -> List.length s.Zen_mainchain.Sc_ledger.certs
        in
        let worker_faults =
          List.concat_map
            (fun e -> Zen_sim.Faults.prover_faults faults ~epoch:e)
            (List.init (ticks / epoch_len) Fun.id)
        in
        let proofs, stats, _ = episode worker_faults in
        [
          string_of_int intensity;
          string_of_int (List.length plan);
          string_of_int (Zen_sim.Faults.injected faults);
          string_of_int certified;
          string_of_bool (Zen_sim.Harness.is_ceased h sc);
          string_of_int stats.Prover_pool.retries;
          (if Hash.equal (digest proofs) clean_digest then "yes" else "NO");
        ])
      [ 0; 15; 30; 50 ]
  in
  Util.table
    ~columns:
      [
        "intensity %"; "plan size"; "injected"; "epochs certified"; "ceased";
        "prover retries"; "proof identical";
      ]
    rows;
  Util.note
    "24-tick world, epoch_len %d, submit_len %d (overlapping windows);\n\
     every row is replayable from (seed 42, printed plan size) alone.\n"
    epoch_len submit_len

(* ---- E15: MC verification at scale (verifier cache + batch verify) ---- *)

let e15_mc_scale () =
  Util.header "E15 mc-scale (verifier cache + batch verify + aggregation)"
    "Mainchain block validation with many registered sidechains, each\n\
     submitting an epoch-0 certificate in the same block. Compares the\n\
     no-cache sequential path against the cached path (miner prewarm +\n\
     Verifier.verify_batch on a Domain pool) and against certificate\n\
     aggregation (--aggregate: the miner folds every certificate proof\n\
     into one recursive aggregate, so each validation verifies exactly\n\
     one SNARK regardless of sidechain count). Accept/reject decisions\n\
     must be byte-identical for every configuration.";
  let open Zen_mainchain in
  let family = Circuits.make Params.default in
  let wcert_vk = (Circuits.wcert_keys family).Circuits.vk in
  let epoch_len = 4 and submit_len = 4 in
  (* Heavy proofdata: 256 field elements make MH(proofdata) — recomputed
     on every verification — dominate the wall clock, standing in for a
     production verifier's pairing/MSM cost. *)
  let schema = List.init 256 (fun _ -> Proofdata.Tfield) in
  let proofdata =
    List.init 256 (fun i -> Proofdata.Field (Fp.of_int (i + 1)))
  in
  let miner_addr = Hash.of_string "e15-miner" in
  let snark_verify = Zen_obs.Counter.make "snark.verify" in
  (* One full run: fresh chain, [sidechains] registrations, one cert per
     sidechain (every 4th sidechain also submits a cert whose claimed
     quality contradicts its proof — a reject decision), then the timed
     section: mine the certificate block, add it, and replay it twice
     against the parent state (the mempool-recheck / reorg path). *)
  let run ~sidechains ~cache ~aggregate pool =
    Verifier.Cache.clear ();
    Verifier.Cache.set_enabled cache;
    let mc_params = { Chain_state.default_params with pow = Pow.trivial } in
    let chain = ref (Chain.create ~params:mc_params ~time:0 ()) in
    let time = ref 0 in
    let mine candidates =
      incr time;
      let b, _ =
        Result.get_ok
          (Miner.build_block ~pool ~aggregate !chain ~time:!time ~miner_addr
             ~candidates)
      in
      let c, _ = Result.get_ok (Chain.add_block ~pool !chain b) in
      chain := c;
      b
    in
    for _ = 1 to 5 do
      ignore (mine [])
    done;
    let configs =
      List.init sidechains (fun i ->
          let ledger_id =
            Sidechain_config.derive_ledger_id ~creator:miner_addr ~nonce:(i + 1)
          in
          Result.get_ok
            (Sidechain_config.make ~ledger_id ~start_block:7 ~epoch_len
               ~submit_len ~wcert_vk ~wcert_proofdata:schema ()))
    in
    ignore (mine (List.map (fun c -> Tx.Sc_create c) configs));
    for _ = 1 to 4 do
      ignore (mine [])
    done;
    (* height 10: epoch 0 covers 7..10, its window is 11..14. *)
    let sched = Epoch.of_config (List.hd configs) in
    let st = Chain.tip_state !chain in
    let resolve h =
      if h < 0 then Hash.zero else Option.get (Chain_state.block_hash_at st h)
    in
    let end_prev_epoch = resolve (Epoch.last_height sched ~epoch:(-1)) in
    let end_epoch = resolve (Epoch.last_height sched ~epoch:0) in
    let proof =
      Result.get_ok
        (Circuits.prove_wcert_binding family ~quality:1
           ~bt_root:(Backward_transfer.list_root []) ~end_prev_epoch ~end_epoch
           ~proofdata ~s_prev:Fp.zero ~s_last:Fp.one)
    in
    let cert ~ledger_id ~quality =
      Tx.Certificate
        (Withdrawal_certificate.make ~ledger_id ~epoch_id:0 ~quality ~bt_list:[]
           ~proofdata ~proof)
    in
    let candidates =
      List.concat
        (List.mapi
           (fun i (c : Sidechain_config.t) ->
             let valid = cert ~ledger_id:c.ledger_id ~quality:1 in
             if i mod 4 = 0 then
               (* quality 2 contradicts the proof's statement: rejected. *)
               [ valid; cert ~ledger_id:c.ledger_id ~quality:2 ]
             else [ valid ])
           configs)
    in
    let parent_state = Chain.tip_state !chain in
    (* Producer side (untimed): the miner admits the candidates, which
       verifies every proof at first sight — into the cache when it is
       enabled, exactly as mempool admission would on a validator. *)
    let block = mine candidates in
    let v0 = Zen_obs.Counter.value snark_verify in
    let replays = ref [] in
    let wall =
      Zen_obs.Registry.with_enabled (fun () ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 3 do
            Util.handicap_pause ();
            replays :=
              Result.is_ok (Chain_state.apply_block ~pool parent_state block)
              :: !replays
          done;
          Unix.gettimeofday () -. t0)
    in
    let verifies = Zen_obs.Counter.value snark_verify - v0 in
    let stats = Verifier.Cache.stats () in
    (* The digest binds the selected transactions (tx_root), not the
       block hash: an aggregated block legitimately hashes differently
       (its header commits to the aggregate), while the selection and
       the accept/reject decisions must be identical. *)
    let decisions =
      Hash.tagged "e15.decisions"
        (Hash.to_raw block.Block.header.tx_root
        :: List.map string_of_bool (List.rev !replays))
    in
    (wall, verifies, stats.Verifier.Cache.hits, decisions)
  in
  let identical_all = ref true in
  let rows =
    List.concat_map
      (fun sidechains ->
        let base_wall, base_verifies, base_hits, base_decisions =
          run ~sidechains ~cache:false ~aggregate:false
            Zen_crypto.Pool.sequential
        in
        List.map
          (fun (label, cache, domains, aggregate) ->
            let wall, verifies, hits, decisions =
              if (not cache) && domains = 1 && not aggregate then
                (base_wall, base_verifies, base_hits, base_decisions)
              else if domains = 1 then
                run ~sidechains ~cache ~aggregate Zen_crypto.Pool.sequential
              else
                run ~sidechains ~cache ~aggregate
                  (Zen_crypto.Pool.get ~domains)
            in
            let identical = Hash.equal decisions base_decisions in
            if not identical then identical_all := false;
            [
              string_of_int sidechains;
              label;
              string_of_int domains;
              string_of_int verifies;
              string_of_int hits;
              Util.pp_seconds wall;
              Printf.sprintf "%.2fx" (base_wall /. wall);
              (if identical then "yes" else "NO");
            ])
          [
            ("no-cache", false, 1, false);
            ("cache", true, 1, false);
            ("cache", true, 4, false);
            (* aggregated rows run without the cache so the timed
               section's verify count is the structural cost: one
               aggregate proof per validation, flat in [sidechains]. *)
            ("aggregated", false, 1, true);
            ("aggregated", false, 4, true);
          ])
      [ 1; 8; 32; 64 ]
  in
  Verifier.Cache.set_enabled true;
  Verifier.Cache.clear ();
  Util.table
    ~columns:
      [
        "sidechains"; "verifier"; "domains"; "SNARK verifies"; "cache hits";
        "3 validations"; "speedup"; "identical";
      ]
    rows;
  Util.note
    "batch decisions identical across domain counts: %b\n\
     Timed section = three full validations of the sealed certificate\n\
     block against its parent state (first acceptance, mempool re-check,\n\
     reorg replay). Every proof was verified once at first sight during\n\
     (untimed) mempool admission; the no-cache baseline re-verifies all\n\
     of them on every validation pass, the cached path answers each from\n\
     the verification cache, batched on the Domain pool. The aggregated\n\
     rows validate a block carrying one recursive certificate aggregate:\n\
     SNARK verifies stay at one per validation pass for every sidechain\n\
     count (the linear-to-constant flip), with the cache disabled so the\n\
     flat cost is structural, not cached.\n"
    !identical_all

(* ---- E16: compile-once circuit templates ---- *)

let e16_template () =
  Util.header "E16 template-cache (compile-once circuits)"
    "Epoch proving through the re-synthesis reference family\n\
     (Circuits.make_resynth: every prove re-synthesizes and re-digests\n\
     its circuit) versus compile-once templates (Circuits.make): each\n\
     circuit is synthesized and SHA-digested once at startup, and every\n\
     prove afterwards only runs the witness generator and checks it\n\
     against the compiled constraint system (gate rows as flat index\n\
     arrays, the rest as CSR matrices). Both prove and merge the epoch\n\
     with Prover_pool.prove_and_merge. Proof bytes are checked identical\n\
     across every configuration.";
  let params = Params.default in
  let template = Circuits.make params in
  let resynth = Circuits.make_resynth params in
  let rsys =
    Zen_snark.Recursive.create ~name:"e16"
      ~base_vks:(Circuits.base_vks template)
  in
  let st = Sc_state.create params in
  let n_steps = 64 in
  (* Slots are nonce-derived; skip the occasional nonce whose slot is
     already taken so the epoch applies cleanly. *)
  let steps =
    let rec gen acc_st acc i n =
      if n = 0 then List.rev acc
      else
        let u =
          Utxo.make ~addr:(Hash.of_string "e16") ~amount:(amount (i + 1))
            ~nonce:(Hash.of_string (Printf.sprintf "e16-%d" i))
        in
        match Sc_tx.apply_step acc_st (Sc_tx.Insert u) with
        | Ok st' -> gen st' (Sc_tx.Insert u :: acc) (i + 1) (n - 1)
        | Error _ -> gen acc_st acc (i + 1) n
    in
    gen st [] 0 n_steps
  in
  let finalizes = Zen_obs.Counter.make "snark.r1cs.finalize" in
  (* One timed epoch. The finalize delta is recorded inside
     Registry.with_enabled so the column reflects exactly this epoch's
     proves. *)
  let run family pool =
    Zen_obs.Registry.with_enabled @@ fun () ->
    let fin0 = Zen_obs.Counter.value finalizes in
    let t0 = Unix.gettimeofday () in
    Util.handicap_pause ();
    let proofs, _, top =
      match
        Prover_pool.prove_and_merge ~pool family rsys ~initial:st ~steps
          ~workers:(Zen_crypto.Pool.domains pool) ~seed:16
      with
      | Ok r -> r
      | Error e -> failwith ("e16 prove_and_merge: " ^ e)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let fin = Zen_obs.Counter.value finalizes - fin0 in
    let fingerprint =
      Hash.tagged "e16.run"
        (Zen_snark.Backend.proof_encode (Zen_snark.Recursive.final_proof top)
        :: List.map
             (fun tp -> Zen_snark.Backend.proof_encode tp.Prover_pool.proof)
             proofs)
    in
    (wall, fin, fingerprint)
  in
  (* Warm-up epoch (untimed): first-touch costs land here, not in the
     baseline row. *)
  ignore (run template Zen_crypto.Pool.sequential);
  let base = run resynth Zen_crypto.Pool.sequential in
  let base_wall, _, base_fp = base in
  let identical_all = ref true in
  let template_finalizes = ref 0 in
  let rows =
    List.concat_map
      (fun domains ->
        let pool =
          if domains = 1 then Zen_crypto.Pool.sequential
          else Zen_crypto.Pool.get ~domains
        in
        let off = if domains = 1 then base else run resynth pool in
        let on_ = run template pool in
        List.map
          (fun (label, (wall, fin, fp)) ->
            let identical = Hash.equal fp base_fp in
            if not identical then identical_all := false;
            if label = "template" then
              template_finalizes := !template_finalizes + fin;
            [
              string_of_int domains;
              label;
              Util.pp_seconds wall;
              Printf.sprintf "%.0f" (float_of_int n_steps /. wall);
              string_of_int fin;
              Printf.sprintf "%.2fx" (base_wall /. wall);
              (if identical then "yes" else "NO");
            ])
          [ ("re-synthesis", off); ("template", on_) ])
      [ 1; 2; 4 ]
  in
  Util.table
    ~columns:
      [
        "domains"; "prover"; "epoch wall"; "steps/s"; "finalizes"; "speedup";
        "identical";
      ]
    rows;
  Util.note
    "proof bytes identical across all configurations: %b\n\
     finalizes while proving (template rows): %d\n\
     64-step epoch, proven and merged; speedup is against re-synthesis\n\
     at 1 domain. finalizes counts R1cs circuit synthesis+digest runs\n\
     during the epoch: the re-synthesis family runs one per proved\n\
     step; the fold's 63 merges fill a compiled merge template and run\n\
     none (all templates compile before the timed section).\n\
     Multi-domain rows run on the persistent registry pool (Pool.get,\n\
     spawned once, one future per step); recommended_domain_count\n\
     here: %d.\n"
    !identical_all !template_finalizes
    (Zen_crypto.Pool.recommended_domains ())

(* ---- E17: million-user soak (workload engine, batched state layer) ---- *)

let e17_soak () =
  Util.header "E17 soak (deterministic workload, batched state updates)"
    "The Zen_sim.Workload engine drives the soak profile — 1M zipfian\n\
     accounts, 110k mixed transactions per simulated epoch over 16\n\
     diurnal phases, deterministic reorgs every 7th phase — against the\n\
     Latus state layer. Each phase commits as one merged MST traversal,\n\
     and a reorg restores an O(1) copy-on-write checkpoint and re-mines\n\
     the rolled-back phases, which must restore the same root.";
  Util.handicap_pause ();
  let b =
    match Zen_sim.Workload.run ~seed:17 Zen_sim.Workload.soak with
    | Ok s -> s
    | Error e -> failwith ("e17: " ^ e)
  in
  let row name (s : Zen_sim.Workload.stats) =
    [
      name;
      string_of_int s.applied;
      string_of_int (s.applied / s.profile.epochs);
      Util.pp_seconds s.wall_s;
      Printf.sprintf "%.0f tx/s" (float_of_int s.applied /. s.wall_s);
      string_of_int s.peak_words;
    ]
  in
  Util.table
    ~columns:
      [ "state updates"; "txs applied"; "per epoch"; "wall"; "throughput";
        "peak heap (w)" ]
    [ row "batched" b ];
  Util.note ">=100k txs per epoch sustained: %b\n"
    (b.applied / b.profile.epochs >= 100_000);
  Util.table
    ~columns:
      [ "rollback"; "rollbacks"; "txs rolled back"; "phases re-run"; "wall" ]
    [
      [
        "O(1) snapshots";
        string_of_int b.rollbacks;
        string_of_int b.rolled_back_txs;
        string_of_int b.replayed_phases;
        Util.pp_seconds b.wall_s;
      ];
    ];
  (* The per-address coin index the soak exposed: coins_of_addr was a
     full-map fold per wallet refresh. *)
  let n_coins = 100_000 and n_addrs = 1_000 in
  let addr i = Hash.tagged "e17.addr" [ string_of_int (i mod n_addrs) ] in
  let changes =
    List.init n_coins (fun i ->
        ( { Zen_mainchain.Tx.txid = Hash.tagged "e17.op" [ string_of_int i ];
            vout = 0 },
          Some
            {
              Zen_mainchain.Utxo_set.addr = addr i;
              amount = amount ((i mod 1000) + 1);
              spendable_after = 0;
            } ))
  in
  let us = Zen_mainchain.Utxo_set.apply_batch Zen_mainchain.Utxo_set.empty changes in
  let target = addr 17 in
  let indexed_t =
    Util.time_per_run ~budget:0.2 (fun () ->
        Zen_mainchain.Utxo_set.coins_of_addr us target)
  in
  let naive_t =
    Util.time_per_run ~budget:0.4 ~min_runs:1 (fun () ->
        Zen_mainchain.Utxo_set.fold us ~init:[] ~f:(fun acc op c ->
            if Hash.equal c.Zen_mainchain.Utxo_set.addr target then
              (op, c) :: acc
            else acc))
  in
  Util.table
    ~columns:[ "coins_of_addr"; "coins"; "addresses"; "per query" ]
    [
      [ "indexed"; string_of_int n_coins; string_of_int n_addrs;
        Util.pp_seconds indexed_t ];
      [ "naive full scan"; string_of_int n_coins; string_of_int n_addrs;
        Util.pp_seconds naive_t ];
    ];
  Util.note "index speedup %.0fx on %d coins / %d addresses"
    (naive_t /. indexed_t) n_coins n_addrs

(* ---- E18: pipelined epoch proving ---- *)

let e18_pipeline () =
  Util.header "E18 pipeline (pipelined epoch proving)"
    "Proof_pipeline takes base-proof generation off the forge path and\n\
     folds completed proofs through the online balanced merge between\n\
     ticks, leaving certify time only the <= ceil(log2 n) binary-counter\n\
     carry merges plus the binding check, where a burst fold at the\n\
     epoch boundary would run n - 1 merges. The run log must be\n\
     byte-identical for every domain count; only latency moves.";
  let params = Params.default in
  let family = Circuits.make params in
  let run ~domains =
    let pool = Pool.get ~domains in
    let h = Zen_sim.Harness.create ~pool ~seed:"e18" () in
    Zen_sim.Harness.fund h ~blocks:5;
    let sc =
      match
        Zen_sim.Harness.add_latus h ~name:"sc" ~family ~epoch_len:6
          ~submit_len:5 ~activation_delay:1 ()
      with
      | Ok sc -> sc
      | Error e -> failwith ("e18: " ^ e)
    in
    (match
       Zen_sim.Harness.set_workload h ~profile:Zen_sim.Workload.smoke ~seed:18
     with
    | Ok () -> ()
    | Error e -> failwith ("e18: " ^ e));
    let ticks = ref [] in
    let t_all = Unix.gettimeofday () in
    for i = 1 to 24 do
      let t = Unix.gettimeofday () in
      (* inside the measured window so the sentinel's negative control
         (ZENDOO_BENCH_HANDICAP_MS) shows up in tick max and wall *)
      if i = 1 then Util.handicap_pause ();
      Zen_sim.Harness.tick h;
      ticks := (Unix.gettimeofday () -. t) :: !ticks
    done;
    let wall = Unix.gettimeofday () -. t_all in
    let digest =
      Hash.of_string (String.concat "\n" (Zen_sim.Harness.dump_log h))
    in
    ( Array.of_list (List.rev !ticks),
      wall,
      digest,
      Node.certificate_stats sc.node )
  in
  let pct arr q =
    let a = Array.copy arr in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  let results = List.map (fun domains -> (domains, run ~domains)) [ 1; 2; 4 ] in
  let row mode domains (ticks, wall, _, _) =
    [
      mode;
      string_of_int domains;
      Util.pp_seconds (pct ticks 0.50);
      Util.pp_seconds (pct ticks 0.99);
      Util.pp_seconds (pct ticks 1.0);
      Util.pp_seconds wall;
    ]
  in
  Util.table
    ~columns:[ "mode"; "domains"; "tick p50"; "tick p99"; "tick max"; "wall" ]
    (List.map (fun (domains, r) -> row "pipelined" domains r) results);
  let digest_of (_, _, d, _) = d in
  let on1 = List.assoc 1 results in
  Util.note "log digest identical across domains: %b\n"
    (List.for_all
       (fun (_, r) -> Hash.equal (digest_of r) (digest_of on1))
       results);
  (* Certify-path accounting: deterministic in the seed, so identical
     for every row above (taken from the 1-domain run). The burst column
     is what a fold of all n leaves at certify time would run. *)
  let _, _, _, stats = on1 in
  Util.table
    ~columns:
      [ "epoch"; "leaves"; "certify merges (pipelined)"; "burst merges";
        "bound ceil(log2 n)" ]
    (List.map
       (fun (cs : Proof_pipeline.certificate_stats) ->
         let bound =
           let rec go acc p =
             if p >= cs.cert_leaves then acc else go (acc + 1) (p * 2)
           in
           if cs.cert_leaves <= 1 then 0 else go 0 1
         in
         [
           string_of_int cs.cert_epoch;
           string_of_int cs.cert_leaves;
           string_of_int cs.cert_carry_merges;
           string_of_int (max 0 (cs.cert_leaves - 1));
           string_of_int bound;
         ])
       stats);
  Util.note "all certify-path merge counts within ceil(log2 n) + 1: %b\n"
    (List.for_all
       (fun (cs : Proof_pipeline.certificate_stats) ->
         let rec bound acc p =
           if p >= cs.cert_leaves then acc else bound (acc + 1) (p * 2)
         in
         cs.cert_carry_merges
         <= (if cs.cert_leaves <= 1 then 0 else bound 0 1) + 1)
       stats)

let all =
  [
    ("E1", e1_mht_scaling);
    ("E2", e2_epoch_schedule);
    ("E3", e3_sctx_commitment);
    ("E4", e4_leader_fairness);
    ("E5", e5_mst_ops);
    ("E6", e6_recursive_proof);
    ("E7", e7_wcert_verification);
    ("E8", e8_csw_btr);
    ("E9", e9_safeguard_stress);
    ("E10", e10_latus_txs);
    ("E11", e11_snark_costs);
    ("E12", e12_wire_sizes);
    ("E13", e13_prover_pool);
    ("E14", e14_fault_storm);
    ("E15", e15_mc_scale);
    ("E16", e16_template);
    ("E17", e17_soak);
    ("E18", e18_pipeline);
  ]
