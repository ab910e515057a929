(* The workloads, by the names BENCHMARK.json gives them. *)

let workloads =
  [ ("live", Live.run); ("explore", Explore.run); ("panel", Panel_load.run); ("fleet", Fleet_load.run) ]
