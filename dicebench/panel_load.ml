(* Workload [panel]: federated probing through the narrow interface —
   the heterogeneous differential oracle, measured.

   A 3-member panel (bird, quagga, xorp) holds identical state: 8,000
   private routes from a collector plus one incumbent route. Each member
   is served with Distributed.serve on a fault-free simulated network
   and reached through a Probe_rpc endpoint, so every probe crosses the
   wire as Probe_wire frames. The run is a closed loop of fixed-size
   batches sent to Panel.probe. Every announcement recurs once (in the
   next batch), so the members' verdict caches have hits to take, and
   one announcement is the seeded tie-break trigger: XORP's IGP-cost
   step keeps the incumbent while BIRD and Quagga fall through to peer
   identity, so xorp is the lone outlier. *)

open Dice_inet
open Dice_bgp
open Dice_core
open Common
module Rng = Dice_util.Rng

let explorer_side = Ipv4.of_string "10.0.2.1"
let collector = Ipv4.of_string "10.0.3.2"
let member_addr = Ipv4.of_string "10.0.2.2"
let trigger_prefix = Prefix.of_string "203.0.113.0/24"

let config_src =
  Printf.sprintf
    "router id 10.0.2.2; local as 64700;\n\
     protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }\n\
     protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export none; }"
    Provider.Threerouter.provider_as

let n_private o = if o.small then 500 else 8_000

(* exchanges per batch: half first occurrences, half repeats *)
let batch_size = 8

(* batches sized to take about [seconds] on a 2-core machine *)
let n_batches o = if o.small then 6 else 10 * o.seconds

let incumbent =
  Msg.Update
    { Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp
             ~as_path:[ Asn.Path.Seq [ 64701; 64512 ] ]
             ~next_hop:(Ipv4.of_string "10.0.0.1") ());
      nlri = [ trigger_prefix ] }

let trigger =
  Msg.Update
    { Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp ~med:(Some 50)
             ~communities:[ Community.make 64510 77 ]
             ~as_path:[ Asn.Path.Seq [ Provider.Threerouter.provider_as; 64512 ] ]
             ~next_hop:explorer_side ());
      nlri = [ trigger_prefix ] }

let probe_msg prefix =
  Msg.Update
    { Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp
             ~as_path:
               [ Asn.Path.Seq [ Provider.Threerouter.provider_as; Provider.Threerouter.customer_as ] ]
             ~next_hop:explorer_side ());
      nlri = [ prefix ] }

type panel = {
  servers : Distributed.agent list;  (** the members' own Local agents *)
  remotes : Distributed.agent list;  (** what the panel probes *)
  endpoints : Probe_rpc.endpoint list;
}

let build ~wrap table =
  let net = Dice_sim.Network.create () in
  let client = Probe_rpc.client net ~name:"explorer" in
  let members =
    List.map
      (fun impl ->
        let sp = wrap (Speakers.create_exn impl (Speaker.Config (Config_parser.parse config_src))) in
        Speaker.establish sp ~peer:explorer_side;
        Speaker.establish sp ~peer:collector;
        List.iter (fun m -> ignore (Speaker.feed sp ~peer:collector m)) table;
        let serving =
          Distributed.agent ~name:impl ~addr:member_addr ~explorer_addr:explorer_side
            (Distributed.Local sp)
        in
        let server = Distributed.serve net serving in
        Dice_sim.Network.connect net (Probe_rpc.client_node client)
          (Probe_rpc.server_node server) ~latency:0.001;
        let ep = Probe_rpc.endpoint client ~server:(Probe_rpc.server_node server) in
        ( serving,
          Distributed.agent ~name:impl ~addr:member_addr ~explorer_addr:explorer_side
            (Distributed.Remote ep),
          ep ))
      Speakers.names
  in
  let servers, remotes, endpoints =
    List.fold_right (fun (s, r, e) (ss, rs, es) -> (s :: ss, r :: rs, e :: es)) members ([], [], [])
  in
  { servers; remotes; endpoints }

(* The batch schedule: an untimed warm-up batch of first occurrences,
   then [n_batches] timed batches, each of fresh first occurrences plus
   the repeats of the previous batch's, shuffled, then an untimed
   closing batch repeating the last one's. So every timed batch does the
   same mix of work. One first occurrence is the trigger. Probe prefixes
   are fresh /24s outside the private table. Returns (warm-up, timed
   batches, closing). *)
let schedule o table_prefixes =
  let rng = Rng.create (Int64.add o.seed 7919L) in
  let h = batch_size / 2 in
  let nb = n_batches o in
  let taken = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace taken p ()) (trigger_prefix :: table_prefixes);
  let rec fresh () =
    let a = Rng.int_in rng 1 223 in
    if a = 10 || a = 127 then fresh ()
    else begin
      let p = Prefix.make (Ipv4.of_octets a (Rng.int rng 256) (Rng.int rng 256) 0) 24 in
      if Hashtbl.mem taken p then fresh ()
      else begin
        Hashtbl.replace taken p ();
        probe_msg p
      end
    end
  in
  let trigger_at = h + Rng.int rng (nb * h) in
  let firsts =
    Array.init (nb + 1) (fun b ->
        Array.init h (fun i -> if (b * h) + i = trigger_at then trigger else fresh ()))
  in
  let exchanges batch = Array.to_list (Array.map (fun m -> (explorer_side, m)) batch) in
  let timed_batches =
    List.init nb (fun b ->
        let batch = Array.append firsts.(b + 1) firsts.(b) in
        Rng.shuffle rng batch;
        exchanges batch)
  in
  (exchanges firsts.(0), timed_batches, exchanges firsts.(nb))

let sum f agents = List.fold_left (fun acc a -> acc + f (Distributed.stats a)) 0 agents

let run o =
  let gen =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with
        Dice_trace.Gen.seed = o.seed; n_prefixes = n_private o; collector_as = 64701 }
  in
  let table = Dice_trace.Gen.to_updates gen ~peer_as:64701 ~next_hop:collector @ [ incumbent ] in
  let table_prefixes = Array.to_list (Array.map (fun (e : Dice_trace.Gen.entry) -> e.prefix) gen.dump) in
  let warm_up, batches, closing = schedule o table_prefixes in
  let setups = if o.small then 1 else 15 in
  let setup_host = Host.create () and run_host = Host.create () in
  let wrap = if Span.enabled () then Timed.instance else Fun.id in
  (* built [setups] times, each build garbage before the next starts;
     the last is kept *)
  let build_once () =
    Gc.compact ();
    Host.calibrate setup_host;
    clocked (fun () -> Span.quiet (fun () -> build ~wrap table))
  in
  let earlier = List.init (setups - 1) (fun _ -> (snd (build_once ())).cpu) in
  let panel, last = build_once () in
  let setup_cpus = last.cpu :: earlier in
  Gc.compact ();
  let answered () =
    sum (fun s -> s.Distributed.probes - s.Distributed.timeouts - s.Distributed.declines) panel.remotes
  in
  let probe batch = Panel.probe ~jobs:2 ~agents:panel.remotes batch in
  (* warm-up and closing batches are neither timed nor traced *)
  let warm_up_divergences = Span.quiet (fun () -> probe warm_up) in
  let results, batch_verdicts =
    List.split
      (List.map
         (fun batch ->
           Host.calibrate run_host;
           let before = answered () in
           let r = clocked (fun () -> probe batch) in
           (r, answered () - before))
         batches)
  in
  let closing_divergences = Span.quiet (fun () -> probe closing) in
  let walls = Array.of_list (List.map (fun (_, c) -> c.wall) results) in
  let cpu_rates =
    List.map2 (fun n (_, c) -> float_of_int n /. c.cpu) batch_verdicts results
  in
  let total_wall = Array.fold_left ( +. ) 0.0 walls in
  let p50 = 1000.0 *. percentile (Array.copy walls) 0.5 in
  let p90 = 1000.0 *. percentile (Array.copy walls) 0.9 in
  let probes = sum (fun s -> s.Distributed.probes) panel.remotes in
  let failed = sum (fun s -> s.Distributed.timeouts + s.Distributed.declines) panel.remotes in
  let verdicts = probes - failed in
  let timed_verdicts = List.fold_left ( + ) 0 batch_verdicts in
  let divergences = warm_up_divergences @ List.concat_map fst results @ closing_divergences in
  let signatures = List.sort_uniq compare (List.map Panel.signature divergences) in
  let seeded =
    List.for_all
      (fun (d : Panel.divergence) ->
        Prefix.equal d.Panel.prefix trigger_prefix && d.Panel.outliers = [ "xorp" ])
      divergences
  in
  let layers =
    if not (Span.enabled ()) then []
    else begin
      let speaker_ns =
        Span.total_matching (String.starts_with ~prefix:"speaker.")
      in
      let wall_ns = 1e9 *. total_wall in
      let rpc = List.map Probe_rpc.stats panel.endpoints in
      List.concat_map
        (fun impl ->
          let s op = Printf.sprintf "speaker.%s.%s" impl op in
          [ (s "clone_us", Span.mean_ns (s "clone") /. 1e3);
            (s "loc_rib_us", Span.mean_ns (s "loc_rib") /. 1e3);
            (s "probe_feed_us", Span.mean_ns (s "feed") /. 1e3);
            (s "feed_ns_p50", Span.percentile_ns (s "feed") 0.5);
            (s "feed_ns_p99", Span.percentile_ns (s "feed") 0.99) ])
        Speakers.names
      @ [ ( "distributed.vcache_hit_rate",
            fratio (sum (fun s -> s.Distributed.vcache_hits) panel.servers)
              (sum (fun s -> s.Distributed.probes) panel.servers) );
          ( "probe_rpc.self_ms_per_batch",
            (wall_ns -. float_of_int speaker_ns) /. float_of_int (List.length batches) /. 1e6 );
          ("probe_rpc.retries", float_of_int (List.fold_left (fun a s -> a + s.Probe_rpc.retries) 0 rpc));
          ("probe_rpc.timeouts", float_of_int (List.fold_left (fun a s -> a + s.Probe_rpc.timeouts) 0 rpc));
          ("panel.span_share", ratio (float_of_int speaker_ns) wall_ns);
          ("panel.batch_p90_ms", p90) ]
    end
  in
  Printf.printf "panel: %d members x %d private routes, %d batches of %d exchanges, %d divergence reports\n"
    (List.length panel.remotes) (n_private o) (List.length batches) batch_size
    (List.length divergences);
  {
    checks =
      [ ("seeded_divergence_only", divergences <> [] && seeded);
        ("single_divergence_signature", List.length signatures = 1) ];
    attempted = probes;
    failed;
    setup_s = median setup_cpus /. Host.slowdown setup_host;
    throughput_per_cpu_s = median cpu_rates *. Host.slowdown run_host;
    slowdown = (Host.slowdown setup_host, Host.slowdown run_host);
    named =
      [ ("panel.verdicts_per_s", float_of_int timed_verdicts /. total_wall, "1/s");
        ("panel.batch_p50_ms", p50, "ms");
        ("panel.batch_p90_ms", p90, "ms") ];
    work =
      [ ("private_routes", n_private o); ("batches", List.length batches);
        ("exchanges_per_batch", batch_size); ("probes", probes); ("verdicts", verdicts) ];
    layers;
    fingerprint = String.concat ";" (List.map Panel.signature divergences);
  }
