(* The metric catalogue: every name the benchmark reports, with its unit.
   BENCHMARK.json lists the same names. Every workload reports every
   metric of the catalogue: end-to-end metrics are defined per workload
   (see LAYERS.md); a per-layer metric is 0 on a workload that does not
   exercise its layer. *)

let end_to_end = [ ("setup_s", "s"); ("throughput_per_cpu_s", "1/s") ]

let per_speaker f = List.concat_map f Dice_core.Speakers.names

let per_layer =
  (* live *)
  [ ("msg.decode_ns", "ns"); ("msg.encode_ns", "ns") ]
  @ per_speaker (fun i ->
        [ (Printf.sprintf "speaker.%s.feed_ns_p50" i, "ns");
          (Printf.sprintf "speaker.%s.feed_ns_p99" i, "ns");
          (Printf.sprintf "speaker.%s.alloc_words_per_update" i, "words");
          (Printf.sprintf "speaker.%s.outputs_per_update" i, "ratio") ])
  @ [ ("filter_interp.import_ns", "ns"); ("decision.best_ns", "ns"); ("rib.loc_set_ns", "ns") ]
  (* explore *)
  @ [ ("speaker.bird.restore_ms", "ms");
      ("explore.restores_per_run", "ratio");
      ("speaker.bird.snapshot_ms", "ms");
      ("speaker.bird.import_concolic_us", "us");
      ("checker.hijack.check_us", "us");
      ("explorer.self_ms_per_run", "ms");
      ("explorer.span_share", "ratio");
      ("explorer.executions", "count");
      ("explorer.sat_ratio", "ratio");
      ("solver.calls", "count");
      ("solver.prefix_reuses", "count");
      ("solver.gave_up", "count");
      ("pool.seed_imbalance", "ratio");
      ("speaker.bird.freeze_us", "us");
      ("explore.first_fault_s", "s") ]
  (* panel *)
  @ per_speaker (fun i ->
        [ (Printf.sprintf "speaker.%s.clone_us" i, "us");
          (Printf.sprintf "speaker.%s.loc_rib_us" i, "us");
          (Printf.sprintf "speaker.%s.probe_feed_us" i, "us") ])
  @ [ ("distributed.vcache_hit_rate", "ratio");
      ("probe_rpc.self_ms_per_batch", "ms");
      ("probe_rpc.retries", "count");
      ("probe_rpc.timeouts", "count");
      ("panel.span_share", "ratio");
      ("panel.batch_p90_ms", "ms") ]
  (* fleet *)
  @ [ ("fleet.delivered", "count");
      ("fleet.emitted", "count");
      ("fleet.rounds", "count");
      ("fleet.probes", "count");
      ("distributed.clones", "count");
      ("fleet.alloc_words_per_delivery", "words") ]
