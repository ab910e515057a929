(* Tests for the parallel exploration executor (Dice_exec). *)
module Pool = Dice_exec.Pool
module Jobq = Dice_exec.Jobq
module Dedup = Dice_exec.Dedup
module Qcache = Dice_exec.Qcache
module Vcache = Dice_exec.Vcache
module Explorer = Dice_exec.Explorer
module E = Dice_concolic.Explorer
module Engine = Dice_concolic.Engine
module Coverage = Dice_concolic.Coverage
module Cval = Dice_concolic.Cval
module Sym = Dice_concolic.Sym
module Path = Dice_concolic.Path
module Solver = Dice_concolic.Solver
module Strategy = Dice_concolic.Strategy

(* ---- Pool ---- *)

let test_pool_map_order () =
  let items = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "input order preserved" (List.map (fun x -> x * x) items)
    (Pool.map ~jobs:4 (fun x -> x * x) items)

let test_pool_run_all_workers () =
  let seen = Array.make 4 false in
  Pool.run ~jobs:4 (fun w -> seen.(w) <- true);
  Alcotest.(check bool) "every index ran" true (Array.for_all Fun.id seen)

let test_pool_exception_propagates () =
  Alcotest.check_raises "first failure re-raised" (Failure "w0") (fun () ->
      Pool.run ~jobs:3 (fun w -> if w = 0 then failwith "w0"))

(* N jobs through a shared queue under 4-way contention: every job is
   processed exactly once, with follow-up pushes exercising the in-flight
   accounting. *)
let test_pool_jobs_exactly_once () =
  let n = 500 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let q = Jobq.create ~shards:4 () in
  (* seed with even indices; workers push each job's odd successor *)
  for i = 0 to (n / 2) - 1 do
    ignore (Jobq.push q (2 * i))
  done;
  Pool.run ~jobs:4 (fun _w ->
      let rec loop () =
        match Jobq.pop q with
        | None -> ()
        | Some i ->
          Atomic.incr counts.(i);
          if i land 1 = 0 then ignore (Jobq.push q (i + 1));
          Jobq.task_done q;
          loop ()
      in
      loop ());
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "job %d exactly once" i) 1 (Atomic.get c))
    counts

(* ---- Jobq ---- *)

let drain q =
  let rec go acc =
    match Jobq.pop q with
    | None -> List.rev acc
    | Some x ->
      Jobq.task_done q;
      go (x :: acc)
  in
  go []

let test_jobq_fifo_order () =
  let q = Jobq.create ~shards:1 ~mode:`Fifo () in
  List.iter (fun x -> ignore (Jobq.push q x)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (drain q)

let test_jobq_lifo_order () =
  let q = Jobq.create ~shards:1 ~mode:`Lifo () in
  List.iter (fun x -> ignore (Jobq.push q x)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "lifo" [ 4; 3; 2; 1 ] (drain q)

let test_jobq_close_drops () =
  let q = Jobq.create () in
  Alcotest.(check bool) "open push accepted" true (Jobq.push q 1);
  Jobq.close q;
  Alcotest.(check bool) "push after close refused" false (Jobq.push q 2);
  Alcotest.(check (option int)) "closed pop" None (Jobq.pop q);
  Alcotest.(check int) "push after close dropped" 0 (Jobq.length q)

let test_jobq_empty_pop () =
  let q : int Jobq.t = Jobq.create () in
  Alcotest.(check (option int)) "no work, no block" None (Jobq.pop q)

(* ---- Dedup ---- *)

let test_dedup_claim_once_concurrent () =
  let keys = 200 in
  let wins = Array.init keys (fun _ -> Atomic.make 0) in
  let d = Dedup.create () in
  Pool.run ~jobs:4 (fun _w ->
      for k = 0 to keys - 1 do
        if Dedup.claim d (Int64.of_int k) then Atomic.incr wins.(k)
      done);
  Array.iteri
    (fun k w ->
      Alcotest.(check int) (Printf.sprintf "key %d single winner" k) 1 (Atomic.get w))
    wins;
  Alcotest.(check int) "size" keys (Dedup.size d)

(* ---- Qcache ---- *)

let constraints_gt ~name v =
  let x = Sym.Var (Sym.var ~name ~width:8) in
  [ { Path.expr = Sym.Binop (Sym.Ugt, x, Sym.const ~width:8 v); expected_nonzero = true } ]

let env_bindings (e : Sym.env) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) e [])

let test_qcache_identical_models () =
  let q = Qcache.create () in
  let cs = constraints_gt ~name:"qc.x" 10L in
  let hint = Hashtbl.create 0 in
  let m1 =
    match Qcache.solve q ~hint cs with
    | Solver.Sat m -> m
    | _ -> Alcotest.fail "first solve should be sat"
  in
  let m2 =
    match Qcache.solve q ~hint cs with
    | Solver.Sat m -> m
    | _ -> Alcotest.fail "second solve should be sat"
  in
  Alcotest.(check (list (pair int int64)))
    "identical model for identical constraint set" (env_bindings m1) (env_bindings m2);
  Alcotest.(check int) "one miss" 1 (Qcache.misses q);
  Alcotest.(check int) "one hit" 1 (Qcache.hits q);
  (* returned models are fresh copies: mutating one must not poison the cache *)
  Hashtbl.reset m2;
  (match Qcache.solve q ~hint cs with
  | Solver.Sat m3 ->
    Alcotest.(check (list (pair int int64))) "cache unpoisoned" (env_bindings m1)
      (env_bindings m3)
  | _ -> Alcotest.fail "third solve should be sat")

let test_qcache_canonicalization () =
  let q = Qcache.create () in
  let x = Sym.Var (Sym.var ~name:"qc.canon" ~width:8) in
  let a = { Path.expr = Sym.Binop (Sym.Ugt, x, Sym.const ~width:8 3L); expected_nonzero = true } in
  let b = { Path.expr = Sym.Binop (Sym.Ult, x, Sym.const ~width:8 100L); expected_nonzero = true } in
  let hint = Hashtbl.create 0 in
  ignore (Qcache.solve q ~hint [ a; b ]);
  (* permuted and duplicated conjunctions canonicalize to the same key *)
  ignore (Qcache.solve q ~hint [ b; a ]);
  ignore (Qcache.solve q ~hint [ a; b; a ]);
  Alcotest.(check int) "one miss" 1 (Qcache.misses q);
  Alcotest.(check int) "two hits" 2 (Qcache.hits q);
  Alcotest.(check int) "one entry" 1 (Qcache.size q)

let test_qcache_unsat_cached () =
  let q = Qcache.create () in
  (* variable-free contradiction: 0 must be nonzero *)
  let cs = [ { Path.expr = Sym.const ~width:8 0L; Path.expected_nonzero = true } ] in
  let hint = Hashtbl.create 0 in
  Alcotest.(check bool) "unsat" true (Qcache.solve q ~hint cs = Solver.Unsat);
  Alcotest.(check bool) "unsat again" true (Qcache.solve q ~hint cs = Solver.Unsat);
  Alcotest.(check int) "cached" 1 (Qcache.hits q)

let test_qcache_hit_rate () =
  let q = Qcache.create () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Qcache.hit_rate q);
  let cs = constraints_gt ~name:"qc.rate" 5L in
  let hint = Hashtbl.create 0 in
  ignore (Qcache.solve q ~hint cs);
  ignore (Qcache.solve q ~hint cs);
  ignore (Qcache.solve q ~hint cs);
  Alcotest.(check (float 1e-9)) "2/3" (2.0 /. 3.0) (Qcache.hit_rate q)

let test_qcache_prefix_priming () =
  let q = Qcache.create () in
  let x = Sym.var ~name:"qc.pfx" ~width:8 in
  let xe = Sym.Var x in
  let a = { Path.expr = Sym.Binop (Sym.Ugt, xe, Sym.const ~width:8 10L); expected_nonzero = true } in
  let b = { Path.expr = Sym.Binop (Sym.Ult, xe, Sym.const ~width:8 100L); expected_nonzero = true } in
  let extend = { Path.expr = Sym.Binop (Sym.Eq, xe, Sym.const ~width:8 42L); expected_nonzero = true } in
  let hint = Hashtbl.create 0 in
  (* seed the cache with the shorter query, then extend it: the longer
     query misses on its full key but finds the cached [a; b] model as a
     list-prefix and primes the incremental solver with it *)
  (match Qcache.solve q ~hint [ a; b ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "prefix query should be sat");
  Alcotest.(check int) "no prefix hit yet" 0 (Qcache.prefix_hits q);
  (match Qcache.solve q ~hint [ a; b; extend ] with
  | Solver.Sat env ->
    Alcotest.(check bool) "model holds" true (Solver.holds_all env [ a; b; extend ])
  | _ -> Alcotest.fail "extended query should be sat");
  Alcotest.(check int) "prefix primed" 1 (Qcache.prefix_hits q);
  (* a cached-unsat prefix refutes any extension outright *)
  let contradiction =
    [ { Path.expr = Sym.const ~width:8 0L; Path.expected_nonzero = true } ]
  in
  Alcotest.(check bool) "unsat cached" true
    (Qcache.solve q ~hint contradiction = Solver.Unsat);
  Alcotest.(check bool) "unsat prefix refutes extension" true
    (Qcache.solve q ~hint (contradiction @ [ a ]) = Solver.Unsat)

let test_qcache_solve_inc_caches () =
  let q = Qcache.create () in
  let x = Sym.var ~name:"qc.inc" ~width:8 in
  let xe = Sym.Var x in
  let p1 = { Path.expr = Sym.Binop (Sym.Ugt, xe, Sym.const ~width:8 10L); expected_nonzero = true } in
  let flipped = { Path.expr = Sym.Binop (Sym.Ult, xe, Sym.const ~width:8 100L); expected_nonzero = true } in
  let parent : Sym.env = Hashtbl.create 1 in
  Hashtbl.replace parent x.Sym.id 50L;
  (match Qcache.solve_inc q ~parent ~prefix:[ p1 ] [ flipped ] with
  | Solver.Sat env ->
    Alcotest.(check bool) "model holds" true (Solver.holds_all env [ p1; flipped ])
  | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "first call misses" 1 (Qcache.misses q);
  (* the same conjunction — whether asked incrementally or not — now hits *)
  (match Qcache.solve q ~hint:(Hashtbl.create 0) [ p1; flipped ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected cached sat");
  Alcotest.(check int) "full-key hit" 1 (Qcache.hits q)

(* ---- Vcache ---- *)

let test_vcache_hit_and_version_invalidation () =
  let v : (string, int) Vcache.t = Vcache.create () in
  Alcotest.(check (option int)) "cold" None (Vcache.find v ~version:0 "k");
  Vcache.store v ~version:0 "k" 42;
  Alcotest.(check (option int)) "same-version hit" (Some 42) (Vcache.find v ~version:0 "k");
  (* the authoritative state moved: the entry is stale, evicted on sight *)
  Alcotest.(check (option int)) "new version misses" None (Vcache.find v ~version:1 "k");
  Alcotest.(check int) "stale entry evicted" 0 (Vcache.size v);
  Vcache.store v ~version:1 "k" 7;
  Alcotest.(check (option int)) "restored at the new version" (Some 7)
    (Vcache.find v ~version:1 "k");
  Alcotest.(check int) "hits" 2 (Vcache.hits v);
  Alcotest.(check int) "misses" 2 (Vcache.misses v);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Vcache.hit_rate v)

let test_vcache_first_writer_wins_same_version () =
  let v : (int, string) Vcache.t = Vcache.create ~shards:1 () in
  Vcache.store v ~version:3 1 "first";
  Vcache.store v ~version:3 1 "second";
  Alcotest.(check (option string)) "first writer kept" (Some "first")
    (Vcache.find v ~version:3 1);
  (* a newer version replaces, not ties *)
  Vcache.store v ~version:4 1 "fresh";
  Alcotest.(check (option string)) "stale replaced" (Some "fresh")
    (Vcache.find v ~version:4 1)

let test_vcache_concurrent_store_find () =
  let v : (int, int) Vcache.t = Vcache.create () in
  let keys = 100 in
  (* workers only count what they see: Alcotest prints through Format,
     which is not domain-safe, so every check runs after the join *)
  let unstable = Atomic.make 0 in
  Pool.run ~jobs:4 (fun _w ->
      for k = 0 to keys - 1 do
        match Vcache.find v ~version:0 k with
        | Some cached -> if cached <> k * 2 then Atomic.incr unstable
        | None -> Vcache.store v ~version:0 k (k * 2)
      done);
  Alcotest.(check int) "stable value" 0 (Atomic.get unstable);
  Alcotest.(check int) "all keys resident" keys (Vcache.size v);
  for k = 0 to keys - 1 do
    Alcotest.(check (option int)) "value intact" (Some (k * 2)) (Vcache.find v ~version:0 k)
  done

(* ---- run_parallel vs sequential ---- *)

(* The examples/coverage.ml program: a realistic BGP import filter with
   prefix-set, MED, path-length and origin branches. *)
let filter_program =
  let filter_text =
    {|
    if net ~ [ 10.0.0.0/8{8,24}, 172.16.0.0/12{12,24} ] then {
      if bgp_med > 50 then {
        bgp_local_pref = 80;
        accept;
      }
      bgp_local_pref = 120;
      accept;
    }
    if bgp_path.len > 6 then reject;
    if bgp_origin = 2 then reject;
    accept;
    |}
  in
  let filter = Dice_bgp.Config_parser.parse_filter ~name:"exec_test" filter_text in
  let base_route =
    Dice_bgp.Route.make ~origin:Dice_bgp.Attr.Igp
      ~as_path:[ Dice_inet.Asn.Path.Seq [ 64501; 64502 ] ]
      ~med:(Some 10)
      ~next_hop:(Dice_inet.Ipv4.of_string "192.0.2.1")
      ()
  in
  fun ctx ->
    let cr =
      Dice_core.Symbolize.croute ctx ~tag:"in"
        ~prefix:(Dice_inet.Prefix.of_string "10.1.2.0/24")
        ~route:base_route
    in
    let cr =
      Dice_bgp.Croute.with_med cr
        (Engine.input ctx ~name:"in.med" ~width:32 ~default:10L)
    in
    ignore (Dice_bgp.Filter_interp.run ctx ~source_as:64501 ~local_as:64510 filter cr)

(* The bench F1 program: same route, a third prefix-set pattern, no
   path-length branch. *)
let bench_f1_program =
  let filter_text =
    {|
    if net ~ [ 10.0.0.0/8{8,24}, 172.16.0.0/12{12,24}, 192.168.0.0/16+ ] then {
      if bgp_med > 50 then { bgp_local_pref = 80; accept; }
      bgp_local_pref = 120;
      accept;
    }
    if bgp_origin = 2 then reject;
    accept;
    |}
  in
  let filter = Dice_bgp.Config_parser.parse_filter ~name:"exec_f1" filter_text in
  let base_route =
    Dice_bgp.Route.make ~origin:Dice_bgp.Attr.Igp
      ~as_path:[ Dice_inet.Asn.Path.Seq [ 64501; 64502 ] ]
      ~med:(Some 10)
      ~next_hop:(Dice_inet.Ipv4.of_string "192.0.2.1")
      ()
  in
  fun ctx ->
    let cr =
      Dice_core.Symbolize.croute ctx ~tag:"f1"
        ~prefix:(Dice_inet.Prefix.of_string "10.1.2.0/24")
        ~route:base_route
    in
    let cr =
      Dice_bgp.Croute.with_med cr
        (Engine.input ctx ~name:"f1.med" ~width:32 ~default:10L)
    in
    ignore (Dice_bgp.Filter_interp.run ctx ~source_as:64501 ~local_as:64510 filter cr)

(* A saturating budget: sequential DFS on these programs exhausts its
   worklist well under 64 executions, so at 256 both explorers reach the
   fixed point and the determinism contract applies. *)
let saturating_config strategy =
  { E.default_config with E.strategy; max_runs = 256 }

let check_matches_sequential program =
  List.iter
    (fun strategy ->
      let config = saturating_config strategy in
      let seq = E.explore ~config program in
      let par = Explorer.run_parallel ~config ~jobs:4 program in
      let name = Strategy.to_string strategy in
      Alcotest.(check int)
        (name ^ ": distinct paths")
        seq.E.distinct_paths par.E.distinct_paths;
      Alcotest.(check (list (pair int bool)))
        (name ^ ": branch-coverage set")
        (Coverage.snapshot seq.E.coverage)
        (Coverage.snapshot par.E.coverage))
    [ Strategy.Dfs; Strategy.Generational; Strategy.Random_negation 7L;
      Strategy.Cover_new ]

let test_parallel_matches_sequential () = check_matches_sequential filter_program
let test_parallel_matches_sequential_f1 () = check_matches_sequential bench_f1_program

let test_parallel_single_job_matches () =
  let config = saturating_config Strategy.Dfs in
  let seq = E.explore ~config filter_program in
  let par = Explorer.run_parallel ~config ~jobs:1 filter_program in
  Alcotest.(check int) "distinct paths" seq.E.distinct_paths par.E.distinct_paths;
  Alcotest.(check (list (pair int bool)))
    "coverage" (Coverage.snapshot seq.E.coverage) (Coverage.snapshot par.E.coverage)

let test_parallel_report_consistent () =
  let config = saturating_config Strategy.Dfs in
  let par = Explorer.run_parallel ~config ~jobs:4 filter_program in
  Alcotest.(check int) "executions = |runs|" par.E.executions
    (List.length par.E.runs);
  Alcotest.(check (list int)) "stable 0..n-1 run indices"
    (List.init par.E.executions Fun.id)
    (List.map (fun (r : E.run) -> r.E.index) par.E.runs);
  Alcotest.(check int) "attempt outcomes partition"
    par.E.negations_attempted
    (par.E.negations_sat + par.E.negations_unsat + par.E.negations_gave_up);
  Alcotest.(check bool) "budget respected" true (par.E.executions <= 256)

let test_parallel_max_runs_respected () =
  let config = { E.default_config with E.max_runs = 4 } in
  let par = Explorer.run_parallel ~config ~jobs:4 filter_program in
  Alcotest.(check bool) "bounded" true (par.E.executions <= 4)

let test_parallel_shared_qcache_hits () =
  let q = Qcache.create () in
  let config = saturating_config Strategy.Dfs in
  ignore (Explorer.run_parallel ~config ~qcache:q ~jobs:2 filter_program);
  let misses_first = Qcache.misses q in
  ignore (Explorer.run_parallel ~config ~qcache:q ~jobs:2 filter_program);
  Alcotest.(check bool) "second exploration reuses cached queries" true
    (Qcache.hits q > 0);
  Alcotest.(check bool) "hit rate in range" true
    (Qcache.hit_rate q >= 0.0 && Qcache.hit_rate q <= 1.0);
  Alcotest.(check bool) "first pass did real solves" true (misses_first > 0)

let suite =
  [ ("pool map preserves order", `Quick, test_pool_map_order);
    ("pool runs every worker", `Quick, test_pool_run_all_workers);
    ("pool propagates exceptions", `Quick, test_pool_exception_propagates);
    ("pool+jobq: jobs run exactly once", `Quick, test_pool_jobs_exactly_once);
    ("jobq fifo order", `Quick, test_jobq_fifo_order);
    ("jobq lifo order", `Quick, test_jobq_lifo_order);
    ("jobq close drops work", `Quick, test_jobq_close_drops);
    ("jobq empty pop returns", `Quick, test_jobq_empty_pop);
    ("dedup single winner per key", `Quick, test_dedup_claim_once_concurrent);
    ("qcache identical models", `Quick, test_qcache_identical_models);
    ("qcache canonicalization", `Quick, test_qcache_canonicalization);
    ("qcache caches unsat", `Quick, test_qcache_unsat_cached);
    ("qcache hit rate", `Quick, test_qcache_hit_rate);
    ("qcache prefix priming", `Quick, test_qcache_prefix_priming);
    ("qcache solve_inc caches", `Quick, test_qcache_solve_inc_caches);
    ("vcache hit + version invalidation", `Quick, test_vcache_hit_and_version_invalidation);
    ("vcache first writer wins per version", `Quick,
      test_vcache_first_writer_wins_same_version);
    ("vcache concurrent store/find", `Quick, test_vcache_concurrent_store_find);
    ("parallel matches sequential (all strategies)", `Quick,
      test_parallel_matches_sequential);
    ("parallel matches sequential (bench F1 program)", `Quick,
      test_parallel_matches_sequential_f1);
    ("parallel jobs=1 matches sequential", `Quick, test_parallel_single_job_matches);
    ("parallel report consistent", `Quick, test_parallel_report_consistent);
    ("parallel max_runs respected", `Quick, test_parallel_max_runs_respected);
    ("parallel shared qcache hits", `Quick, test_parallel_shared_qcache_hits)
  ]
