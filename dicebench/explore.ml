(* Workload [explore]: the paper's exploration from live state (§4.2).

   Each round sets up a BIRD provider with an 8,000-prefix table under
   the partially-correct customer filter, observes the customer's two
   prefixes as seeds, and runs Orchestrator.explore at jobs = 2 until
   coverage is exhausted. The hijack checker is wrapped: it timestamps
   the first non-empty fault list (the time to the first verdict) and,
   when tracing, times every check. *)

open Dice_inet
open Dice_core
open Common

let n_prefixes o = if o.small then 1_000 else 8_000

(* The table: the routes inside the space the customer filter admits
   (198/8 and 203/8: the only routes an explored announcement can
   conflict with) are the scenario and come from a fixed seed; the rest
   of the table is background and comes from [--seed]. So every seed
   explores the same paths over a different table of the same size. *)
let scenario_seed = 42L
let scenario_space = [ Prefix.of_string "198.0.0.0/8"; Prefix.of_string "203.0.0.0/8" ]

let table o =
  let n_prefixes = n_prefixes o in
  let in_scenario (e : Dice_trace.Gen.entry) =
    List.exists (fun b -> Prefix.subsumes b e.prefix) scenario_space
  in
  let background = Provider.table ~seed:o.seed ~n_prefixes ~tail:0 in
  let scenario = Provider.table ~seed:scenario_seed ~n_prefixes ~tail:0 in
  let dump =
    Array.append
      (Array.of_list (List.filter (fun e -> not (in_scenario e)) (Array.to_list background.dump)))
      (Array.of_list (List.filter in_scenario (Array.to_list scenario.dump)))
  in
  Array.sort (fun (a : Dice_trace.Gen.entry) b -> Prefix.compare a.prefix b.prefix) dump;
  { background with Dice_trace.Gen.dump }

(* rounds sized to take about 2.5 times [seconds] (one round is ~3 s
   on a 2-core machine): a round is one unit of the median *)
let rounds o = if o.small then 2 else max 2 (o.seconds * 4 / 5)

(* calibrations of the host before each set-up, and before and after
   each exploration: a round is long, and one sample of the kernel is
   noisy *)
let calibrations = 3

let cfg checker =
  { Orchestrator.default_cfg with
    Orchestrator.exploration =
      { Orchestrator.default_exploration with
        Orchestrator.jobs = 2;
        explorer = { Dice_concolic.Explorer.default_config with Dice_concolic.Explorer.max_runs = 512 };
      };
    checkers = [ checker ];
  }

(* Each checked outcome ends one exploration run; the wrapped checker
   stamps it with its time and whether it found a fault. *)
type stamp = { at : float; faulted : bool }

type round = {
  report : Orchestrator.report;
  wall : float;
  first_fault : float;
  setup : clock;
  cpu : float;
}

let round ~setup_host ~run_host trace =
  let wrap = if Span.enabled () then Timed.instance else Fun.id in
  for _ = 1 to calibrations do Host.calibrate setup_host done;
  let live, setup =
    clocked (fun () ->
        Span.quiet (fun () ->
            let sp = Provider.create ~wrap "bird" in
            List.iter
              (fun m -> ignore (Speaker.feed sp ~peer:Provider.internet_addr m))
              (Provider.dump_updates trace);
            sp))
  in
  Gc.compact ();
  let lock = Mutex.create () and stamps = ref [] in
  let observe (_ : Speaker.import_outcome) faults =
    let s = { at = now (); faulted = faults <> [] } in
    Mutex.protect lock (fun () -> stamps := s :: !stamps)
  in
  let dice = Orchestrator.create ~cfg:(cfg (Timed.checker ~label:"hijack" ~observe Hijack.checker)) live in
  List.iter
    (fun prefix ->
      Orchestrator.observe dice ~peer:Provider.customer_addr ~prefix ~route:Provider.customer_route)
    Provider.Threerouter.customer_prefixes;
  for _ = 1 to calibrations do Host.calibrate run_host done;
  let t0 = now () in
  let report, { Common.wall; cpu } = clocked (fun () -> Orchestrator.explore dice) in
  for _ = 1 to calibrations do Host.calibrate run_host done;
  let first_fault =
    List.fold_left (fun acc s -> if s.faulted then min acc (s.at -. t0) else acc) infinity !stamps
  in
  { report; wall; first_fault; setup; cpu }

let executions (r : Orchestrator.report) =
  List.fold_left
    (fun acc (s : Orchestrator.seed_report) -> acc + s.explorer.Dice_concolic.Explorer.executions)
    0 r.seed_reports

let sum_seeds r f = List.fold_left (fun acc (s : Orchestrator.seed_report) -> acc + f s.explorer) 0 r.Orchestrator.seed_reports

(* Per-layer view of every round's spans. Self time is the seeds' busy
   time (the explorer's own per-seed clock) minus what the spans cover
   inside it; the one restore per seed that precedes the explorer loop
   is taken out at the mean restore cost. *)
let layers rds =
  let module E = Dice_concolic.Explorer in
  let reports = List.map (fun rd -> rd.report) rds in
  let execs = List.fold_left (fun acc r -> acc + executions r) 0 reports in
  let seed_reports = List.concat_map (fun (r : Orchestrator.report) -> r.seed_reports) reports in
  let seeds = List.length seed_reports in
  let elapsed = List.map (fun (s : Orchestrator.seed_report) -> s.explorer.E.elapsed_s) seed_reports in
  let busy_ns = 1e9 *. List.fold_left ( +. ) 0.0 elapsed in
  let restores = Span.count "speaker.bird.restore" in
  let restore_ns = float_of_int (Span.total_ns "speaker.bird.restore") in
  let inner_restore_ns = restore_ns *. fratio (restores - seeds) restores in
  let covered_ns =
    inner_restore_ns
    +. float_of_int
         (Span.total_ns "speaker.bird.import_concolic" + Span.total_ns "speaker.bird.snapshot"
        + Span.total_ns "checker.hijack.check")
  in
  (* counts are per round: every round does the same work *)
  let last = List.nth reports (List.length reports - 1) in
  let per_round f = float_of_int (sum_seeds last f) in
  let imbalance (r : Orchestrator.report) =
    let el = List.map (fun (s : Orchestrator.seed_report) -> s.explorer.E.elapsed_s) r.seed_reports in
    ratio (List.fold_left max 0.0 el) (List.fold_left ( +. ) 0.0 el /. float_of_int (List.length el))
  in
  [ ("speaker.bird.restore_ms", Span.mean_ns "speaker.bird.restore" /. 1e6);
    ("explore.restores_per_run", fratio restores execs);
    ("speaker.bird.snapshot_ms", Span.mean_ns "speaker.bird.snapshot" /. 1e6);
    ("speaker.bird.import_concolic_us", Span.mean_ns "speaker.bird.import_concolic" /. 1e3);
    ("checker.hijack.check_us", Span.mean_ns "checker.hijack.check" /. 1e3);
    ("explorer.self_ms_per_run", ratio (busy_ns -. covered_ns) (float_of_int execs) /. 1e6);
    ("explorer.span_share", ratio covered_ns busy_ns);
    ("explorer.executions", float_of_int (executions last));
    ("explorer.sat_ratio", fratio (sum_seeds last (fun e -> e.E.negations_sat)) (sum_seeds last (fun e -> e.E.negations_attempted)));
    ("solver.calls", per_round (fun e -> e.E.solver_stats.Dice_concolic.Solver.calls));
    ("solver.prefix_reuses", per_round (fun e -> e.E.solver_stats.Dice_concolic.Solver.prefix_reuses));
    ("solver.gave_up", per_round (fun e -> e.E.solver_stats.Dice_concolic.Solver.gave_up));
    ("pool.seed_imbalance", median (List.map imbalance reports));
    ("speaker.bird.freeze_us", Span.mean_ns "speaker.bird.freeze" /. 1e3);
    ("explore.first_fault_s", median (List.map (fun rd -> rd.first_fault) rds)) ]

let fault_keys (r : Orchestrator.report) = List.map Checker.fault_key r.faults

let run o =
  let trace = table o in
  let setup_host = Host.create () and run_host = Host.create () in
  let rds = List.init (rounds o) (fun _ -> round ~setup_host ~run_host trace) in
  let layers = if Span.enabled () then layers rds else [] in
  let first = List.hd rds in
  let execs = executions first.report in
  let leakable = Hijack.leakable_summary first.report.faults in
  let checks =
    [ ("faults_found", first.report.faults <> []);
      ( "leakable_inside_filtered_space",
        List.for_all
          (fun (p, _) -> List.exists (fun s -> Prefix.subsumes s p) Provider.filter_space)
          leakable );
      ( "misfiltered_block_leaks",
        List.exists
          (fun (p, _) ->
            Prefix.subsumes Provider.misfiltered_block p
            && not (List.exists (fun own -> Prefix.subsumes own p) Provider.Threerouter.customer_prefixes))
          leakable );
      ( "rounds_agree",
        List.for_all
          (fun rd -> executions rd.report = execs && fault_keys rd.report = fault_keys first.report)
          rds ) ]
  in
  let total_execs = List.fold_left (fun acc rd -> acc + executions rd.report) 0 rds in
  let total_wall = List.fold_left (fun acc rd -> acc +. rd.wall) 0.0 rds in
  let program_exns = List.fold_left (fun acc rd -> acc + sum_seeds rd.report (fun e -> e.Dice_concolic.Explorer.program_exns)) 0 rds in
  let first_fault = median (List.map (fun rd -> rd.first_fault) rds) in
  Printf.printf "explore: %d seeds, %d executions and %d faults (%d leakable ranges) per round\n"
    (List.length first.report.seed_reports) execs (List.length first.report.faults)
    (List.length leakable);
  {
    checks;
    attempted = total_execs;
    failed = program_exns;
    setup_s = median (List.map (fun rd -> rd.setup.cpu) rds) /. Host.slowdown setup_host;
    throughput_per_cpu_s =
      float_of_int execs /. median (List.map (fun rd -> rd.cpu) rds) *. Host.slowdown run_host;
    slowdown = (Host.slowdown setup_host, Host.slowdown run_host);
    named =
      [ ("explore.runs_per_s", float_of_int total_execs /. total_wall, "1/s");
        ("explore.first_fault_s", first_fault, "s") ];
    work =
      [ ("table_prefixes", Array.length trace.Dice_trace.Gen.dump); ("rounds", List.length rds);
        ("executions_per_round", execs); ("faults_per_round", List.length first.report.faults) ];
    layers;
    fingerprint =
      Printf.sprintf "executions=%d;faults=%s" execs (String.concat "," (fault_keys first.report));
  }
