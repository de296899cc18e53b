(* Typed test-only export scan.

   Every [val] of a [lib/*/*.mli] (read from its [.cmti], including the
   [val]s of nested module signatures such as [Ec.Field] and of included
   module types) needs a caller outside its own module in lib, bin,
   bench (CI runs its experiments), perfbench or examples, unless
   [allow] below gives a reason. A caller is a [Texp_ident] or a
   binding operator of a [.cmt] under those directories; paths through
   module aliases ([module H = Zen_sim.Harness]) are followed, so
   [H.force_reorg] counts for [Harness.force_reorg].

   Run from the repository root:

     dune build @check ./test/export_scan/export_scan.exe
     ./_build/default/test/export_scan/export_scan.exe

   A plain [dune build] writes no [.cmt] for executables, and the scan
   refuses to run without them. [controls.sh] beside this file checks
   that the scan catches what it should. Exits 1 when a [val] has no such caller, when an
   allowlist entry names a [val] that is gone or now has a caller, or
   when a directory has no [.cmt]. *)

let build = "_build/default"
let caller_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* The exceptions, with their reasons: (interface, dotted [val] names,
   reason). A parked entry waits for the ROADMAP item it names; a test
   hook names the test that needs it. *)
let allow =
  [ ( "lib/core/codec.mli",
      [ "encode_config"; "decode_config"; "encode_wcert"; "decode_wcert";
        "encode_withdrawal"; "decode_withdrawal" ],
      "wire codec, decided by ROADMAP item 17" );
    ( "lib/crypto/wire.mli",
      [ "writer"; "contents"; "reader"; "bool"; "read_bool"; "expect_end" ],
      "wire codec, decided by ROADMAP item 17" );
    ( "lib/mainchain/mc_wire.mli",
      [ "encode_tx"; "decode_tx"; "encode_block"; "decode_block" ],
      "wire codec, decided by ROADMAP item 17" );
    ( "lib/latus/sc_wire.mli",
      [ "decode_tx"; "encode_block"; "decode_block"; "block_size_bytes" ],
      "wire codec, decided by ROADMAP item 17" );
    ( "lib/latus/sc_validate.mli",
      [ "validate" ],
      "the follower's block check, decided with the wire by ROADMAP item 17" );
    ( "lib/core/backward_transfer.mli",
      [ "list_root_fp" ],
      "kept for the BT-list binding of ROADMAP item 8" );
    ( "lib/core/verifier.mli",
      [ "Cache.size"; "Cache.set_capacity"; "job_key" ],
      "test hook: t_scale's cache tests (fifo eviction, hit/miss/stats) \
       and its signature-key tests (the key binds key, message and \
       signature)" );
    ( "lib/crypto/ec.mli",
      [ "g"; "equal"; "add"; "double"; "neg"; "mul"; "Scalar.split_lambda";
        "Field.create"; "Field.of_bytes"; "Field.of_limbs"; "Field.to_bytes";
        "Field.add"; "Field.sub"; "Field.mul"; "Field.sq"; "Field.inv" ],
      "test hook: t_ec_oracle checks the field and point operations and \
       the GLV split against test/ec_oracle.ml, and t_ec_schnorr builds \
       its points with them" );
    ( "lib/crypto/smt.mli",
      [ "depth"; "get"; "verify" ],
      "test hook: test/smt_oracle.ml checks the tree against its model \
       through them, and t_latus and t_workload verify Mst slot proofs" );
    ( "lib/latus/prover_pool.mli",
      [ "dispatch" ],
      "test hook: t_latus checks the §5.4.1 dispatch is uniform and \
       t_pipeline replays it" );
    ( "lib/mainchain/mempool.mli",
      [ "reinject_front"; "remove_txs" ],
      "Mempool.S, shared with Sc_mempool, whose node calls them" );
    ( "lib/latus/sc_mempool.mli",
      [ "remove" ],
      "Mempool.S, shared with the mainchain Mempool, whose callers use them" );
    ( "lib/obs/clock.mli",
      [ "set"; "reset" ],
      "test hook: t_obs, t_report, t_faults and t_pipeline substitute a \
       deterministic time source" );
    ( "lib/snark/aggregate.mli",
      [ "node_hash"; "template" ],
      "test hook: t_aggregate rebuilds the merge tree, t_template pins the \
       circuit and checks its prove against synthesis" );
    ( "lib/snark/gadget.mli",
      [ "terms"; "sub"; "scale"; "sum"; "mul"; "is_zero"; "select" ],
      "test hook: the constraint DSL's arithmetic, which t_template's \
       random-body qcheck and t_snark's gadget tests build circuits from" );
    ( "lib/snark/r1cs.mli",
      [ "constraints" ],
      "test hook: test/r1cs_oracle.ml checks R1cs.check against its \
       all-rows form" );
    ( "lib/snark/recursive.mli",
      [ "merge_template" ],
      "test hook (merge circuit prove = synthesis, pinned digest)" ) ]

let rec files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files p else [ p ])

let with_ext ext dir =
  List.filter (fun f -> Filename.check_suffix f ext) (files dir)

(* A compilation unit of a wrapped library is [Lib__Module]. *)
let units = Hashtbl.create 128

(* [(unit, dotted name)] -> interface file, for every exported [val]. *)
let vals = Hashtbl.create 1024

let rec sig_vals unit src prefix (sg : Typedtree.signature) =
  let add name = Hashtbl.replace vals (unit, prefix ^ name) src in
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> add vd.val_name.txt
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> sig_vals unit src (prefix ^ m ^ ".") sg
          | _ -> ())
      | Tsig_include incl ->
          List.iter
            (function
              | Types.Sig_value (id, _, _) -> add (Ident.name id) | _ -> ())
            incl.incl_type
      | _ -> ())
    sg.sig_items

let read_interface file =
  let cmt = Cmt_format.read_cmt file in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | Interface sg, Some src ->
      Hashtbl.replace units cmt.cmt_modname ();
      sig_vals cmt.cmt_modname src "" sg
  | _ -> ()

(* [Lib.M.x], [Lib__.M.x] and [Lib__M.x] all name [x] of unit [Lib__M]. *)
let canonical = function
  | u :: rest when Hashtbl.mem units u -> Some (u, rest)
  | lib :: m :: rest ->
      let lib =
        if String.ends_with ~suffix:"__" lib then lib else lib ^ "__"
      in
      if Hashtbl.mem units (lib ^ m) then Some (lib ^ m, rest) else None
  | _ -> None

let called = Hashtbl.create 1024

let read_implementation file =
  let cmt = Cmt_format.read_cmt file in
  match cmt.cmt_annots with
  | Implementation str ->
      let aliases = Hashtbl.create 16 in
      let rec expand = function
        | Path.Pident id -> (
            match Hashtbl.find_opt aliases id with
            | Some p -> expand p
            | None -> Some [ Ident.name id ])
        | Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (expand p)
        | _ -> None
      in
      let rec alias_target (me : Typedtree.module_expr) =
        match me.mod_desc with
        | Tmod_ident (p, _) -> Some p
        | Tmod_constraint (me, _, _, _) -> alias_target me
        | _ -> None
      in
      let alias id me =
        match (id, alias_target me) with
        | Some id, Some p -> Hashtbl.replace aliases id p
        | _ -> ()
      in
      let use p =
        match Option.bind (expand p) canonical with
        | Some (unit, (_ :: _ as name)) when unit <> cmt.cmt_modname ->
            Hashtbl.replace called (unit, String.concat "." name) ()
        | _ -> ()
      in
      let open Tast_iterator in
      let it =
        { default_iterator with
          module_binding =
            (fun it mb ->
              alias mb.mb_id mb.mb_expr;
              default_iterator.module_binding it mb);
          expr =
            (fun it e ->
              (match e.exp_desc with
              | Texp_ident (p, _, _) -> use p
              | Texp_letmodule (id, _, _, me, _) -> alias id me
              | Texp_letop { let_; ands; _ } ->
                  List.iter
                    (fun (b : Typedtree.binding_op) -> use b.bop_op_path)
                    (let_ :: ands)
              | _ -> ());
              default_iterator.expr it e)
        }
      in
      it.structure it str
  | _ -> ()

let () =
  let missing =
    List.filter
      (fun d -> with_ext ".cmt" (Filename.concat build d) = [])
      caller_dirs
  in
  if missing <> [] then begin
    List.iter
      (fun d ->
        Printf.eprintf
          "%s/%s has no .cmt: run `dune build @check` before the scan\n" build
          d)
      missing;
    exit 1
  end;
  List.iter read_interface (with_ext ".cmti" (Filename.concat build "lib"));
  List.iter
    (fun d ->
      List.iter read_implementation (with_ext ".cmt" (Filename.concat build d)))
    caller_dirs;
  let allowed = Hashtbl.create 16 in
  List.iter
    (fun (src, names, _) ->
      List.iter (fun n -> Hashtbl.replace allowed (src, n) ()) names)
    allow;
  let fail = ref false in
  let report fmt =
    fail := true;
    Printf.eprintf fmt
  in
  let sorted =
    Hashtbl.fold (fun (unit, name) src acc -> (src, name, unit) :: acc) vals []
    |> List.sort compare
  in
  List.iter
    (fun (src, name, unit) ->
      let is_called = Hashtbl.mem called (unit, name) in
      match (is_called, Hashtbl.mem allowed (src, name)) with
      | false, false -> report "%s: %s has no caller outside test/\n" src name
      | true, true ->
          report "%s: %s is allowlisted but has a caller; drop its entry\n" src
            name
      | _ -> ())
    sorted;
  List.iter
    (fun (src, names, _) ->
      List.iter
        (fun name ->
          if not (List.exists (fun (s, n, _) -> s = src && n = name) sorted)
          then
            report "%s: allowlisted %s is not a val of it; drop its entry\n"
              src name)
        names)
    allow;
  Printf.printf "export scan: %d vals, %d allowlisted\n" (List.length sorted)
    (Hashtbl.length allowed);
  if !fail then begin
    prerr_endline
      "lib/*/*.mli exports only what callers outside test/ use: rewrite the \
       test against the public API, hide or delete the export, or give it an \
       allowlist entry with a reason in test/export_scan/export_scan.ml";
    exit 1
  end
