(* Workload [fleet]: writes beside reads. A fresh 32-domain mixed-speaker
   fleet from Dice_topology.Gen per round (realize + establish are
   set-up), driven with Fleet.drive at jobs = 2: every domain's collector
   feed, propagation in pool waves through the switching fabric, and an
   online probe of every 8th routed message at a clone of its target.
   The fleet builds its own speakers, so only counts are read from
   outside. A second drive of one fleet does less work, hence the fresh
   fleet per round. *)

open Dice_core
open Common
module Fleet = Dice_topology.Fleet

(* The fleet's shape is the workload: its topology comes from a fixed
   seed, and [--seed] varies the update streams driven through it. *)
let topology_seed = 31L

let domains o = if o.small then 8 else 32
let updates_per_domain o = if o.small then 64 else 128
let probe_every = 8

(* rounds sized to take about [seconds] (one round is ~0.25 s on a
   2-core machine), never fewer than 2 so rounds can be compared *)
let rounds o = if o.small then 2 else max 2 (o.seconds * 4)

type round = {
  stats : Fleet.stats;
  agents : Distributed.stats list;
  wall : float;
  cpu : float;
  setup : float;
  alloc_words : float;
}

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let round ~setup_host ~run_host o =
  Host.calibrate setup_host;
  let fleet, { Common.cpu = setup; _ } =
    clocked (fun () ->
        let fl = Fleet.realize (Dice_topology.Gen.generate ~seed:topology_seed ~domains:(domains o) ()) in
        Fleet.establish fl;
        fl)
  in
  Gc.compact ();
  let w0 = allocated () in
  Host.calibrate run_host;
  let stats, { Common.wall; cpu } =
    clocked (fun () ->
        Fleet.drive ~jobs:2 ~updates_per_domain:(updates_per_domain o) ~probe_every ~seed:o.seed fleet)
  in
  let alloc_words = allocated () -. w0 in
  { stats; agents = List.map Distributed.stats (Fleet.agents fleet); wall; cpu; setup; alloc_words }

let counts (s : Fleet.stats) = (s.Fleet.delivered, s.Fleet.probes, s.Fleet.verdicts)

let run o =
  let setup_host = Host.create () and run_host = Host.create () in
  let rds = List.init (rounds o) (fun _ -> round ~setup_host ~run_host o) in
  let first = List.hd rds in
  let s = first.stats in
  let n = float_of_int (domains o) in
  let total f = List.fold_left (fun acc rd -> acc + f rd) 0 rds in
  let delivered = total (fun rd -> rd.stats.Fleet.delivered) in
  let total_wall = List.fold_left (fun acc rd -> acc +. rd.wall) 0.0 rds in
  let agent_sum rd f = List.fold_left (fun acc a -> acc + f a) 0 rd.agents in
  let timeouts = total (fun rd -> agent_sum rd (fun a -> a.Distributed.timeouts)) in
  let failed = total (fun rd -> rd.stats.Fleet.dropped_down) + timeouts in
  let attempted = delivered + total (fun rd -> rd.stats.Fleet.probes) in
  let layers =
    if not (Span.enabled ()) then []
    else
      [ ("fleet.delivered", float_of_int s.Fleet.delivered);
        ("fleet.emitted", float_of_int s.Fleet.emitted);
        ("fleet.rounds", float_of_int s.Fleet.rounds);
        ("fleet.probes", float_of_int s.Fleet.probes);
        ("distributed.clones", float_of_int (agent_sum first (fun a -> a.Distributed.clones)));
        ( "distributed.vcache_hit_rate",
          fratio (agent_sum first (fun a -> a.Distributed.vcache_hits))
            (agent_sum first (fun a -> a.Distributed.probes)) );
        ("fleet.alloc_words_per_delivery", first.alloc_words /. float_of_int s.Fleet.delivered) ]
  in
  Printf.printf "fleet: %d domains x %d updates, %d rounds: %d delivered, %d probes, %d verdicts per round\n"
    (domains o) (updates_per_domain o) (List.length rds) s.Fleet.delivered s.Fleet.probes
    s.Fleet.verdicts;
  {
    checks =
      [ ("rounds_identical", List.for_all (fun rd -> counts rd.stats = counts s) rds);
        ("work_done", s.Fleet.delivered > 0 && s.Fleet.verdicts > 0) ];
    attempted;
    failed;
    setup_s = median (List.map (fun rd -> rd.setup) rds) /. Host.slowdown setup_host;
    throughput_per_cpu_s =
      median (List.map (fun rd -> float_of_int rd.stats.Fleet.delivered /. rd.cpu /. n) rds)
      *. Host.slowdown run_host;
    slowdown = (Host.slowdown setup_host, Host.slowdown run_host);
    named =
      [ ("fleet.updates_per_s_per_domain", float_of_int delivered /. total_wall /. n, "1/s");
        ( "fleet.verdicts_per_s",
          float_of_int (total (fun rd -> rd.stats.Fleet.verdicts)) /. total_wall,
          "1/s" ) ];
    work =
      [ ("domains", domains o); ("updates_per_domain", updates_per_domain o);
        ("rounds", List.length rds); ("fed_per_round", s.Fleet.fed);
        ("delivered_per_round", s.Fleet.delivered); ("probes_per_round", s.Fleet.probes);
        ("verdicts_per_round", s.Fleet.verdicts) ];
    layers;
    fingerprint =
      Printf.sprintf "delivered=%d;probes=%d;verdicts=%d;emitted=%d" s.Fleet.delivered
        s.Fleet.probes s.Fleet.verdicts s.Fleet.emitted;
  }
