(* The shared SPEAKER conformance suite (ISSUE 5): every registered
   implementation — BIRD and the heterogeneous Quagga-flavored speaker —
   must satisfy the same contract behind {!Dice_core.Speaker}: feeding,
   attribution, version counting, snapshot/restore isolation, freeze
   semantics, serving exploration as the live node, and answering probes
   identically over Local and Remote transports. Plus QCheck properties
   pinning down exactly how far the implementations may diverge:
   acceptance and origin-conflict detection must always agree; full
   verdicts agree whenever no decision tie-breaking is involved. *)
open Dice_inet
open Dice_bgp
open Dice_core
module Network = Dice_sim.Network

let p = Prefix.of_string
let provider_side = Ipv4.of_string "10.0.2.1"
let collector = Ipv4.of_string "10.0.3.2"

let upstream_config () =
  Config_parser.parse
    {|
    router id 10.0.2.2;
    local as 64700;
    protocol bgp provider { neighbor 10.0.2.1 as 64510; import all; export none; }
    protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
    anycast [ 192.88.99.0/24 ];
    |}

let create impl =
  match Speakers.create impl (Speaker.Config (upstream_config ())) with
  | Some sp -> sp
  | None -> Alcotest.failf "speaker %s not registered" impl

let incumbents =
  [ ("198.51.0.0/16", 64999); ("8.8.8.0/24", 64888); ("192.88.99.0/24", 64777) ]

let feed_incumbents sp =
  List.iter
    (fun (prefix, origin) ->
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64701; origin ] ]
          ~next_hop:collector ()
      in
      ignore
        (Speaker.feed sp ~peer:collector
           (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ p prefix ] })))
    incumbents

let upstream impl =
  let sp = create impl in
  Speaker.establish sp ~peer:provider_side;
  Speaker.establish sp ~peer:collector;
  feed_incumbents sp;
  sp

let announcement ?(origin_asn = 64512) ?(origin = Attr.Igp) prefixes =
  Msg.Update
    {
      withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin
             ~as_path:[ Asn.Path.Seq [ 64510; origin_asn ] ]
             ~next_hop:provider_side ());
      nlri = List.map p prefixes;
    }

(* ---- conformance cases, one set per implementation ---- *)

let test_identity impl () =
  let sp = create impl in
  Alcotest.(check string) "id is the registry name" impl (Speaker.id sp);
  Alcotest.(check int) "fresh speaker processed nothing" 0 (Speaker.updates_processed sp);
  Alcotest.(check int) "local AS from config" 64700
    (Speaker.config sp).Config_types.local_as

let test_feed_and_attribution impl () =
  let sp = upstream impl in
  Alcotest.(check int) "every incumbent installed" (List.length incumbents)
    (Rib.Loc.cardinal (Speaker.loc_rib sp));
  List.iter
    (fun (prefix, _) ->
      (match Speaker.best_route sp (p prefix) with
      | Some e ->
        Alcotest.(check bool)
          (prefix ^ " attributed to the collector session") true
          (e.Rib.Loc.src.Route.peer_addr = collector)
      | None -> Alcotest.failf "%s not installed by %s" prefix impl);
      Alcotest.(check bool) "learned from the collector" true
        (Speaker.learned_from sp ~peer:collector (p prefix));
      Alcotest.(check bool) "not learned from the provider" false
        (Speaker.learned_from sp ~peer:provider_side (p prefix)))
    incumbents

let test_version_counter impl () =
  let sp = upstream impl in
  let v0 = Speaker.updates_processed sp in
  Alcotest.(check bool) "feeding advanced the version" true (v0 >= List.length incumbents);
  ignore (Speaker.feed sp ~peer:provider_side (announcement [ "100.0.0.0/16" ]));
  Alcotest.(check bool) "every update advances the version" true
    (Speaker.updates_processed sp > v0);
  let v1 = Speaker.updates_processed sp in
  ignore (Speaker.feed sp ~peer:provider_side Msg.Keepalive);
  Alcotest.(check int) "keepalives do not" v1 (Speaker.updates_processed sp);
  (* a session drop withdraws routes: cached views keyed on the version
     must see it *)
  ignore
    (Speaker.feed sp ~peer:collector
       (Msg.Notification { Msg.code = 6; subcode = 4; data = Bytes.empty }));
  Alcotest.(check bool) "a NOTIFICATION advances it" true (Speaker.updates_processed sp > v1)

(* 200 routes, every third with an 80-hop AS path: too large for one
   snapshot slot, so a slot-based image spills it to its overflow region *)
let feed_long_paths sp =
  for i = 0 to 199 do
    let hops = if i mod 3 = 0 then 80 else 2 in
    let route =
      Route.make ~origin:Attr.Igp
        ~as_path:[ Asn.Path.Seq (64510 :: List.init (hops - 1) (fun h -> 65000 + h)) ]
        ~next_hop:provider_side ()
    in
    let prefix = Prefix.make ((100 lsl 24) lor (i lsl 8)) 24 in
    ignore
      (Speaker.feed sp ~peer:provider_side
         (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ prefix ] }))
  done

let test_snapshot_restore_roundtrip impl () =
  let check_roundtrip what sp =
    let clone = Speaker.restore_like sp (Speaker.realization sp) (Speaker.snapshot sp) in
    Alcotest.(check string) (what ^ ": clone keeps the implementation") impl (Speaker.id clone);
    Alcotest.(check int) (what ^ ": clone keeps the version counter")
      (Speaker.updates_processed sp) (Speaker.updates_processed clone);
    Alcotest.(check int) (what ^ ": clone keeps the table")
      (Rib.Loc.cardinal (Speaker.loc_rib sp))
      (Rib.Loc.cardinal (Speaker.loc_rib clone));
    Alcotest.(check bytes) (what ^ ": snapshot of the clone is byte-identical")
      (Speaker.snapshot sp) (Speaker.snapshot clone)
  in
  check_roundtrip "incumbents" (upstream impl);
  let sp = upstream impl in
  feed_long_paths sp;
  check_roundtrip "long AS paths" sp

(* More routes than a 16-bit count can hold: the paper's tables have
   319,355 prefixes, so every image must count entries in 32 bits *)
let test_large_snapshot impl () =
  let sp = upstream impl in
  let n = 66_000 and per_update = 500 in
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64701; 64999 ] ] ~next_hop:collector ()
  in
  for u = 0 to (n / per_update) - 1 do
    let nlri =
      List.init per_update (fun i -> Prefix.make ((20 lsl 24) lor ((u * per_update + i) lsl 8)) 24)
    in
    ignore
      (Speaker.feed sp ~peer:collector
         (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri }))
  done;
  let image = Speaker.snapshot sp in
  let restored = Speaker.restore_like sp (Speaker.realization sp) image in
  Alcotest.(check int) "every route restored" (n + List.length incumbents)
    (Rib.Loc.cardinal (Speaker.loc_rib restored));
  Alcotest.(check bool) "the image round-trips byte for byte" true
    (Bytes.equal image (Speaker.snapshot restored))

let test_clone_isolation impl () =
  let sp = upstream impl in
  let before = Speaker.snapshot sp in
  let clone = Speaker.restore_like sp (Speaker.realization sp) before in
  ignore (Speaker.feed clone ~peer:provider_side (announcement [ "100.66.0.0/16" ]));
  Alcotest.(check bool) "clone took the route" true
    (Speaker.best_route clone (p "100.66.0.0/16") <> None);
  Alcotest.(check bool) "live speaker never saw it" true
    (Speaker.best_route sp (p "100.66.0.0/16") = None);
  Alcotest.(check bytes) "live state untouched" before (Speaker.snapshot sp)

let test_freeze_captures_the_moment impl () =
  let sp = upstream impl in
  let serialize = Speaker.freeze sp in
  (* the live speaker moves on after the freeze *)
  ignore (Speaker.feed sp ~peer:provider_side (announcement [ "100.77.0.0/16" ]));
  let clone = Speaker.restore_like sp (Speaker.realization sp) (serialize ()) in
  Alcotest.(check bool) "live has the post-freeze route" true
    (Speaker.best_route sp (p "100.77.0.0/16") <> None);
  Alcotest.(check bool) "the frozen image does not" true
    (Speaker.best_route clone (p "100.77.0.0/16") = None)

let test_explores_as_live_node impl () =
  (* the full checkpoint–symbolize–explore loop with this implementation
     as the live node: freeze, concolic import over clones of the
     restored base, checking — nothing in the orchestrator may assume
     BIRD *)
  let sp = upstream impl in
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Dice_concolic.Explorer.default_config with
              Dice_concolic.Explorer.max_runs = 24;
              max_depth = 64;
            };
        };
    }
  in
  let dice = Orchestrator.create ~cfg sp in
  let before = Speaker.snapshot sp in
  Orchestrator.observe dice ~peer:provider_side ~prefix:(p "100.80.0.0/16")
    ~route:
      (Route.make ~origin:Attr.Igp
         ~as_path:[ Asn.Path.Seq [ 64510; 64512 ] ]
         ~next_hop:provider_side ());
  let report = Orchestrator.explore dice in
  Alcotest.(check int) "the seed was explored" 1
    (List.length report.Orchestrator.seed_reports);
  Alcotest.(check bytes) "exploration never touches the live speaker" before
    (Speaker.snapshot sp)

(* ---- Local/Remote equivalence, per implementation (ISSUE 5: the new
   speaker must answer identically over both transports) ---- *)

let render outcome =
  match outcome with
  | Distributed.Timeout -> "timeout"
  | Distributed.Declined r -> "declined:" ^ r
  | Distributed.Verdicts vs ->
    String.concat ";"
      (List.map
         (fun (q, v) -> Prefix.to_string q ^ "=" ^ Verdict.to_string v)
         vs)

let local_agent sp =
  Distributed.agent ~name:"up-local" ~addr:(Ipv4.of_string "10.0.2.2")
    ~explorer_addr:provider_side (Distributed.Local sp)

let remote_agent net sp =
  let serving =
    Distributed.agent ~name:"up-serving" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Local sp)
  in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"explorer" in
  Network.connect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv)
    ~latency:0.001;
  let ep = Probe_rpc.endpoint cl ~server:(Probe_rpc.server_node srv) in
  Distributed.agent ~name:"up-remote" ~addr:(Ipv4.of_string "10.0.2.2")
    ~explorer_addr:provider_side (Distributed.Remote ep)

let equivalence_workload =
  [ announcement [ "198.51.100.0/24" ];  (* origin conflict *)
    announcement [ "198.0.0.0/8" ];  (* coverage leak *)
    announcement [ "100.0.0.0/16" ];  (* clean *)
    announcement [ "198.51.100.0/24"; "100.0.0.0/16" ];  (* multi-prefix *)
    announcement [ "192.88.99.0/24" ];  (* whitelisted *)
    announcement ~origin_asn:64888 [ "8.8.8.0/24" ];  (* same origin *)
    Msg.Keepalive  (* declined *) ]

let test_local_remote_equivalence impl () =
  let la = local_agent (upstream impl) in
  let ra = remote_agent (Network.create ()) (upstream impl) in
  List.iteri
    (fun i msg ->
      Alcotest.(check string)
        (Printf.sprintf "message %d answers identically over both transports" i)
        (render (Distributed.probe la ~from:provider_side msg))
        (render (Distributed.probe ra ~from:provider_side msg)))
    equivalence_workload

(* ---- wire tap: a quagga agent interoperates over unmodified
   Probe_wire frames — no new frame kinds, responses stay small ---- *)

let test_wire_tap_no_new_frame_types impl () =
  let net = Network.create () in
  let serving =
    Distributed.agent ~name:"up-serving" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Local (upstream impl))
  in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"explorer" in
  let client_id = Probe_rpc.client_node cl in
  let server_id = Probe_rpc.server_node srv in
  let crossed = ref [] in
  let tap =
    Network.add_node net ~name:"tap" ~handler:(fun net ~self ~from b ->
        crossed := Bytes.copy b :: !crossed;
        let dst = if from = client_id then server_id else client_id in
        Network.send net ~src:self ~dst b)
  in
  Network.connect net client_id tap ~latency:0.001;
  Network.connect net tap server_id ~latency:0.001;
  let ep = Probe_rpc.endpoint cl ~server:tap in
  let ra =
    Distributed.agent ~name:"up-remote" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Remote ep)
  in
  List.iter
    (fun msg -> ignore (Distributed.probe ra ~from:provider_side msg))
    [ announcement [ "198.51.100.0/24" ];
      announcement [ "198.0.0.0/8"; "100.0.0.0/16" ] ];
  Alcotest.(check bool) "traffic crossed the tap" true (List.length !crossed >= 4);
  List.iter
    (fun b ->
      match Probe_wire.decode b with
      | Probe_wire.Request _ | Probe_wire.Decline _ | Probe_wire.Error _
      | Probe_wire.Heartbeat _ -> ()
      | Probe_wire.Response { verdicts; _ } ->
        Alcotest.(check bool) "responses carry per-prefix verdicts only" true
          (List.length verdicts <= 2);
        Alcotest.(check bool) "response size independent of the RIB behind it" true
          (Bytes.length b < 128)
      | exception Dice_wire.Rbuf.Truncated msg ->
        Alcotest.failf "%s emitted a non-Probe_wire frame: %s" impl msg)
    !crossed

(* ---- the agent's per-version Loc-RIB view ---- *)

let conflict_of agent msg =
  match Distributed.verdicts (Distributed.probe agent ~from:provider_side msg) with
  | [ (_, v) ] -> v.Verdict.origin_conflict
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let collector_route ?(origin_asn = 64888) prefixes =
  Msg.Update
    { withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp
             ~as_path:[ Asn.Path.Seq [ 64701; origin_asn ] ]
             ~next_hop:collector ());
      nlri = List.map p prefixes }

let test_view_follows_live_feeds impl () =
  let sp = upstream impl in
  let agent = local_agent sp in
  (* the incumbent 198.51.0.0/16 is originated by 64999, like the probe *)
  let probe = announcement ~origin_asn:64999 [ "198.51.100.0/24" ] in
  Alcotest.(check bool) "same origin: no conflict" false (conflict_of agent probe);
  ignore (Speaker.feed sp ~peer:collector (collector_route [ "198.51.0.0/16" ]));
  Alcotest.(check bool) "the covering route changed origin: conflict" true
    (conflict_of agent probe)

let test_view_dropped_on_restart impl () =
  let sp = upstream impl in
  let agent = local_agent sp in
  let harness = Distributed.Recovery.attach agent in
  (* fed past the journal: the rebuilt speaker will not hold this route,
     and after one journaled update it presents the same version again *)
  ignore (Speaker.feed sp ~peer:collector (collector_route [ "203.0.113.0/24" ]));
  Alcotest.(check bool) "the unjournaled route conflicts" true
    (conflict_of agent (announcement [ "203.0.113.0/25" ]));
  Distributed.Recovery.crash_restart harness;
  ignore (Distributed.Recovery.feed harness ~peer:collector (collector_route [ "100.99.0.0/16" ]));
  Alcotest.(check int) "the rebuilt speaker reuses the version"
    (Speaker.updates_processed sp)
    (Distributed.Recovery.state_version harness);
  Alcotest.(check bool) "the rebuilt speaker's view has no such route" false
    (conflict_of agent (announcement [ "203.0.113.128/25" ]))

(* Clones of one base taken from two domains at once are the clones
   taken one after another: cloning marks the base's shared tables, and
   that must be domain-safe. *)
let test_concurrent_clones () =
  let base = upstream "quagga" in
  feed_long_paths base;
  let before = Speaker.snapshot base in
  let run lane =
    List.init 50 (fun i ->
        let c = Speaker.clone base in
        let prefix = Printf.sprintf "100.%d.%d.0/24" (200 + lane) i in
        ignore (Speaker.feed c ~peer:provider_side (announcement [ prefix ]));
        ignore (Speaker.feed c ~peer:collector (collector_route [ prefix; "100.0.0.0/16" ]));
        Speaker.snapshot c)
  in
  let lanes = List.map (fun lane -> Domain.spawn (fun () -> run lane)) [ 0; 1 ] in
  let concurrent = List.map Domain.join lanes in
  let sequential = List.map run [ 0; 1 ] in
  Alcotest.(check bool) "concurrent clones equal sequential ones" true
    (List.equal (List.equal Bytes.equal) concurrent sequential);
  Alcotest.(check bytes) "the base is untouched" before (Speaker.snapshot base)

(* ---- QCheck: how far may the implementations diverge? ---- *)

let verdicts_for agent msg =
  Distributed.verdicts (Distributed.probe agent ~from:provider_side msg)

let arb_announcement ~allow_incumbent_prefixes =
  (* prefixes under the incumbents' umbrella (more-specifics), in unheld
     space, and — when allowed — the incumbents themselves, where the
     probe competes head-on with an installed route and decision
     tie-breaking kicks in *)
  let open QCheck.Gen in
  let more_specific =
    let* len = int_range 17 24 in
    let* bits = int_bound ((1 lsl (len - 16)) - 1) in
    return (Prefix.make ((198 lsl 24) lor (51 lsl 16) lor (bits lsl (32 - len))) len)
  in
  let unheld =
    let* block = int_range 0 255 in
    return (Prefix.make (100 lsl 24 lor (block lsl 16)) 16)
  in
  let incumbent = oneofl (List.map (fun (q, _) -> p q) incumbents) in
  let prefix =
    if allow_incumbent_prefixes then oneof [ more_specific; unheld; incumbent ]
    else oneof [ more_specific; unheld ]
  in
  let gen =
    let* prefix = prefix in
    let* origin_asn = oneofl [ 64512; 64513; 64888; 64999 ] in
    let* origin = oneofl [ Attr.Igp; Attr.Egp; Attr.Incomplete ] in
    let* med = oneofl [ None; Some 0; Some 50 ] in
    return
      (Msg.Update
         {
           withdrawn = [];
           attrs =
             Route.to_attrs
               (Route.make ~origin ~med
                  ~as_path:[ Asn.Path.Seq [ 64510; origin_asn ] ]
                  ~next_hop:provider_side ());
           nlri = [ prefix ];
         })
  in
  QCheck.make gen ~print:(fun m ->
      match m with
      | Msg.Update u -> String.concat "," (List.map Prefix.to_string u.Msg.nlri)
      | _ -> "<non-update>")

(* Property B: whatever the announcement, BIRD and Quagga always agree
   on acceptance and on origin-conflict detection — the facts the
   narrow interface promises to mean the same thing everywhere. *)
let prop_origin_conflict_agreement =
  let bird = local_agent (upstream "bird") in
  let quagga = local_agent (upstream "quagga") in
  QCheck.Test.make ~name:"bird/quagga agree on acceptance and origin conflicts"
    ~count:150
    (arb_announcement ~allow_incumbent_prefixes:true)
    (fun msg ->
      List.for_all2
        (fun (ql, vl) (qr, vr) ->
          Prefix.equal ql qr
          && vl.Verdict.accepted = vr.Verdict.accepted
          && vl.Verdict.origin_conflict = vr.Verdict.origin_conflict)
        (verdicts_for bird msg) (verdicts_for quagga msg))

(* Property A: away from head-on competition with an installed route
   (no decision tie-breaking involved), the whole verdict must agree —
   divergences are *only* the documented tie-break cases. *)
let prop_tie_free_full_agreement =
  let bird = local_agent (upstream "bird") in
  let quagga = local_agent (upstream "quagga") in
  QCheck.Test.make ~name:"bird/quagga verdicts identical off the tie-break paths"
    ~count:150
    (arb_announcement ~allow_incumbent_prefixes:false)
    (fun msg ->
      List.for_all2
        (fun (ql, vl) (qr, vr) -> Prefix.equal ql qr && Verdict.equal vl vr)
        (verdicts_for bird msg) (verdicts_for quagga msg))

(* Property C: the whole registered triple — not just one pair — agrees
   on acceptance and origin-conflict detection, announcement by
   announcement. This is the invariant the N-way panel's taxonomy
   rests on: a majority vote can only ever split downstream of the
   decision process (tie-break divergences), never on the policy- and
   origin-level facts. *)
let prop_panel_origin_conflict_agreement =
  let agents = List.map (fun impl -> local_agent (upstream impl)) Speakers.names in
  QCheck.Test.make
    ~name:"all registered speakers agree on acceptance and origin conflicts"
    ~count:150
    (arb_announcement ~allow_incumbent_prefixes:true)
    (fun msg ->
      match List.map (fun a -> verdicts_for a msg) agents with
      | [] -> true
      | reference :: rest ->
        List.for_all
          (List.for_all2
             (fun (ql, vl) (qr, vr) ->
               Prefix.equal ql qr
               && vl.Verdict.accepted = vr.Verdict.accepted
               && vl.Verdict.origin_conflict = vr.Verdict.origin_conflict)
             reference)
          rest)

(* Oracle: an in-process clone is the same speaker as a snapshot
   round-trip — the explorer's path against the checkpoint's. *)
let fed_block b = Prefix.make ((100 lsl 24) lor (b lsl 16)) 16

let gen_update =
  let open QCheck.Gen in
  let* from = oneofl [ provider_side; collector ] in
  let* prefix = map fed_block (int_bound 31) in
  let* withdraw = bool in
  let* hops = oneofl [ 1; 2; 80 ] in
  let* origin_asn = oneofl [ 64512; 64888; 64999 ] in
  let head = if from = provider_side then 64510 else 64701 in
  let path = (head :: List.init (hops - 1) (fun h -> 65000 + h)) @ [ origin_asn ] in
  let route = Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq path ] ~next_hop:from () in
  return
    ( from,
      if withdraw then Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] }
      else Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ prefix ] } )

let arb_feed =
  let print (from, msg) =
    Ipv4.to_string from ^ ":"
    ^ (match msg with
      | Msg.Update { withdrawn = [ q ]; nlri = []; _ } -> "-" ^ Prefix.to_string q
      | Msg.Update u -> String.concat "," (List.map Prefix.to_string u.Msg.nlri)
      | _ -> "<other>")
  in
  QCheck.make
    QCheck.Gen.(pair (list_size (int_bound 40) gen_update) gen_update)
    ~print:(fun (feed, next) ->
      String.concat " " (List.map print feed) ^ " then " ^ print next)

let prop_clone_matches_restore impl =
  let same_loc a b =
    List.equal
      (fun (q, (e : Rib.Loc.entry)) (q', (e' : Rib.Loc.entry)) ->
        Prefix.equal q q' && Route.equal e.Rib.Loc.route e'.Rib.Loc.route
        && e.Rib.Loc.src = e'.Rib.Loc.src)
      (Rib.Loc.to_list (Speaker.loc_rib a))
      (Rib.Loc.to_list (Speaker.loc_rib b))
  in
  let agree a b =
    Bytes.equal (Speaker.snapshot a) (Speaker.snapshot b)
    && same_loc a b
    && Speaker.updates_processed a = Speaker.updates_processed b
    && List.for_all
         (fun q ->
           List.for_all
             (fun peer -> Speaker.learned_from a ~peer q = Speaker.learned_from b ~peer q)
             [ provider_side; collector ])
         (List.init 32 fed_block)
  in
  QCheck.Test.make ~name:(impl ^ ": clone agrees with snapshot/restore") ~count:100 arb_feed
    (fun (feed, (from, msg)) ->
      let sp = upstream impl in
      List.iter (fun (peer, m) -> ignore (Speaker.feed sp ~peer m)) feed;
      let before = Speaker.snapshot sp in
      let cloned = Speaker.clone sp in
      let restored = Speaker.restore_like sp (Speaker.realization sp) before in
      let agree_now = agree cloned restored in
      ignore (Speaker.feed cloned ~peer:from msg);
      ignore (Speaker.feed restored ~peer:from msg);
      agree_now && agree cloned restored && Bytes.equal before (Speaker.snapshot sp))

(* Oracle: a clone is the speaker it was taken from. One speaker is
   never cloned; its twin is cloned, and both go on taking the same
   messages as the clone (NOTIFICATIONs and re-established sessions
   included) while a clone of the clone takes other messages. At every
   step the twin and the clone must answer like the never-cloned
   speaker, in the same order, and hold the same bytes. *)
let arb_session_steps =
  let open QCheck.Gen in
  let step =
    frequency
      [ (8, map (fun (from, m) -> `Feed (from, m)) gen_update);
        (1, map (fun from -> `Notify from) (oneofl [ provider_side; collector ]));
        (1, map (fun from -> `Establish from) (oneofl [ provider_side; collector ]));
      ]
  in
  let print = function
    | `Feed (from, _) -> "feed:" ^ Ipv4.to_string from
    | `Notify from -> "notify:" ^ Ipv4.to_string from
    | `Establish from -> "establish:" ^ Ipv4.to_string from
  in
  QCheck.make
    (triple (list_size (int_bound 20) step) (list_size (int_range 1 30) step)
       (list_size (int_bound 30) step))
    ~print:(fun (pre, seq, other) ->
      String.concat " " (List.map print pre) ^ " | " ^ String.concat " " (List.map print seq)
      ^ " | " ^ String.concat " " (List.map print other))

let apply_step sp = function
  | `Feed (from, m) -> Speaker.feed sp ~peer:from m
  | `Notify from ->
    Speaker.feed sp ~peer:from
      (Msg.Notification { Msg.code = 6; subcode = 4; data = Bytes.empty })
  | `Establish from ->
    Speaker.establish sp ~peer:from;
    []

let prop_clone_matches_original impl =
  QCheck.Test.make ~name:(impl ^ ": a clone matches its original") ~count:100
    arb_session_steps (fun (pre, seq, other) ->
      let never = upstream impl and twin = upstream impl in
      List.iter (fun st -> ignore (apply_step never st); ignore (apply_step twin st)) pre;
      let clone = Speaker.clone twin in
      let stray = Speaker.clone clone in
      let others = ref other in
      List.for_all
        (fun st ->
          (match !others with
          | o :: rest ->
            ignore (apply_step stray o);
            others := rest
          | [] -> ());
          let expected = apply_step never st in
          let from_twin = apply_step twin st and from_clone = apply_step clone st in
          let image = Speaker.snapshot never in
          expected = from_twin && expected = from_clone
          && Bytes.equal image (Speaker.snapshot twin)
          && Bytes.equal image (Speaker.snapshot clone))
        seq)

let conformance impl =
  [ (impl ^ ": registry identity and config", `Quick, test_identity impl);
    (impl ^ ": feed installs with session attribution", `Quick,
      test_feed_and_attribution impl);
    (impl ^ ": update-version counter", `Quick, test_version_counter impl);
    (impl ^ ": snapshot/restore roundtrip", `Quick, test_snapshot_restore_roundtrip impl);
    (impl ^ ": snapshot/restore past 65,535 routes", `Slow, test_large_snapshot impl);
    (impl ^ ": restored clones are isolated", `Quick, test_clone_isolation impl);
    (impl ^ ": freeze captures the moment", `Quick, test_freeze_captures_the_moment impl);
    (impl ^ ": serves as the explored live node", `Quick, test_explores_as_live_node impl);
    (impl ^ ": local/remote transport equivalence", `Quick,
      test_local_remote_equivalence impl);
    (impl ^ ": wire tap sees only Probe_wire frames", `Quick,
      test_wire_tap_no_new_frame_types impl);
    (impl ^ ": probe view follows live feeds", `Quick, test_view_follows_live_feeds impl);
    (impl ^ ": probe view dropped on crash restart", `Quick,
      test_view_dropped_on_restart impl)
  ]

let suite =
  List.concat_map conformance Speakers.names
  @ List.concat_map
      (fun impl ->
        [ QCheck_alcotest.to_alcotest (prop_clone_matches_restore impl);
          QCheck_alcotest.to_alcotest (prop_clone_matches_original impl) ])
      Speakers.names
  @ [ ("quagga: clones from two domains at once", `Quick, test_concurrent_clones);
      QCheck_alcotest.to_alcotest prop_origin_conflict_agreement;
      QCheck_alcotest.to_alcotest prop_tie_free_full_agreement;
      QCheck_alcotest.to_alcotest prop_panel_origin_conflict_agreement
    ]
