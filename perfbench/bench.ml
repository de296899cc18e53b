(* The protocol benchmark.

   bench.exe --workload world|prove|soak|fanin --seed N --seconds S
             --trace 0|1 [--delay LAYER]

   Untraced (--trace 0) runs print every end-to-end metric; traced runs
   enable the Zen_obs registry and print every per-layer metric, the
   decomposition of the operation into layer spans with its residual,
   and the tracing overhead. The last line of standard output is the
   result object. --delay slows one benchmark-side layer call by 25%
   (the attribution self-test). *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "world|prove|soak|fanin");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ( "--delay",
        Arg.Set_string Measure.delayed_layer,
        "layer call to slow by 25% (self-test)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench";
  let run =
    match !workload with
    | "world" -> W_world.run
    | "prove" -> W_prove.run
    | "soak" -> W_soak.run
    | "fanin" -> W_fanin.run
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2
  in
  let trace = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~trace in
  Measure.print_outcome ~trace o
