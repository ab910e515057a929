(* The DiCE benchmark: one workload per run.

     main.exe --workload live|explore|panel|fleet --seed N --seconds S --trace 0|1

   The workload's inputs are a pure function of the seed; [seconds] sizes
   its fixed work. The run checks the workload's outputs, prints its
   fixed work counts and its own named metrics, and ends with one JSON
   line: the end-to-end metrics with tracing off, the per-layer metrics
   with tracing on (spans and counters also go to
   .dicebench/trace-<workload>-<seed>.json). A failed correctness check
   prints [correct: false] and exits 1. *)

open Common

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let parse argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME live|explore|panel|fleet");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length, sizes the fixed work");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
  in
  Arg.parse_argv argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (!workload, { seed = Int64.of_int !seed; seconds = max 1 !seconds; small = false }, !trace = 1)

let metric_json name value unit =
  (name, Dice_util.Json.obj [ ("value", Dice_util.Json.float value); ("unit", Dice_util.Json.string unit) ])

let report ~workload ~traced (o : opts) (r : result) =
  let correct = List.for_all snd r.checks in
  Printf.printf "workload %s, seed %Ld, %s\n" workload o.seed
    (if traced then "traced" else "untraced");
  List.iter (fun (k, v) -> Printf.printf "  work  %-28s %d\n" k v) r.work;
  Printf.printf "  setup_s %.4f s\n" r.setup_s;
  Printf.printf "  host slowdown %.3fx setting up, %.3fx measuring\n" (fst r.slowdown) (snd r.slowdown);
  List.iter (fun (k, v, u) -> Printf.printf "  metric %-30s %.4f %s\n" k v u) r.named;
  List.iter
    (fun (k, ok) -> Printf.printf "  check %-30s %s\n" k (if ok then "ok" else "FAILED"))
    r.checks;
  Printf.printf "  failed %d of %d attempted\n" r.failed r.attempted;
  let metrics =
    if traced then
      List.map
        (fun (name, unit) ->
          metric_json name (Option.value (List.assoc_opt name r.layers) ~default:0.0) unit)
        Metrics.per_layer
    else
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "setup_s" -> r.setup_s
            | "throughput_per_cpu_s" -> r.throughput_per_cpu_s
            | _ -> invalid_arg name
          in
          metric_json name v unit)
        Metrics.end_to_end
  in
  let module J = Dice_util.Json in
  print_endline
    (J.to_string
       (J.obj
          [ ("correct", J.bool correct);
            ("attempted", J.int r.attempted);
            ("failed", J.int r.failed);
            ("metrics", J.obj metrics) ]));
  correct

let () =
  match parse Sys.argv with
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | exception Arg.Help msg ->
    print_string msg;
    exit 0
  | workload, o, traced -> begin
    match List.assoc_opt workload Registry.workloads with
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" workload
        (String.concat ", " (List.map fst Registry.workloads));
      exit 2
    | Some run ->
      if traced then Span.enable ();
      let r = run o in
      if traced then begin
        (try Sys.mkdir ".dicebench" 0o755 with Sys_error _ -> ());
        Span.dump (Printf.sprintf ".dicebench/trace-%s-%Ld.json" workload o.seed)
      end;
      if not (report ~workload ~traced o r) then exit 1
  end
