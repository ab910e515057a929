open Dice_inet
open Dice_bgp
open Dice_concolic
module Fork = Dice_checkpoint.Fork

type seed = {
  tag : string;
  peer : Ipv4.t;
  prefix : Prefix.t;
  route : Route.t;
}

(* ------------------------------------------------------------------ *)
(* Configuration: three nested concern groups plus the checker list.   *)
(* Smart constructors validate; the records stay transparent so call   *)
(* sites can start from the default values and override with record    *)
(* update syntax.                                                      *)
(* ------------------------------------------------------------------ *)

type exploration = {
  explorer : Explorer.config;
  page_size : int;
  mode : Symbolize.mode;
  max_seeds : int;
  clone_samples : int;
  jobs : int;
}

type federation = {
  agents : Distributed.agent list;
  probe_jobs : int;
}

type faults = {
  probe : Dice_sim.Faults.t option;
  seed : int64;
  node : Dice_sim.Faults.node option;
  crash_seed : int64;
}

type cfg = {
  exploration : exploration;
  checkers : Checker.t list;
  federation : federation;
  faults : faults;
}

let exploration ~explorer ~page_size ~mode ~max_seeds ~clone_samples ~jobs =
  if page_size <= 0 then invalid_arg "Orchestrator.exploration: page_size must be positive";
  if max_seeds < 0 then invalid_arg "Orchestrator.exploration: max_seeds must be >= 0";
  if clone_samples < 0 then
    invalid_arg "Orchestrator.exploration: clone_samples must be >= 0";
  if jobs < 1 then invalid_arg "Orchestrator.exploration: jobs must be >= 1";
  { explorer; page_size; mode; max_seeds; clone_samples; jobs }

let federation ~agents ~probe_jobs =
  if probe_jobs < 1 then invalid_arg "Orchestrator.federation: probe_jobs must be >= 1";
  { agents; probe_jobs }

let faults ?node ?(crash_seed = Dice_sim.Network.default_crash_seed) ~probe ~seed () =
  (match probe with
  | Some f -> Dice_sim.Faults.validate f
  | None -> ());
  (match node with
  | Some nf -> Dice_sim.Faults.validate_node nf
  | None -> ());
  { probe; seed; node; crash_seed }

let default_exploration =
  {
    explorer = { Explorer.default_config with Explorer.max_runs = 96; max_depth = 64 };
    page_size = Dice_checkpoint.Page.default_size;
    mode = Symbolize.Selective;
    max_seeds = 4;
    clone_samples = 4;
    jobs = 1;
  }

let default_federation = { agents = []; probe_jobs = 1 }
let default_faults =
  { probe = None;
    seed = 42L;
    node = None;
    crash_seed = Dice_sim.Network.default_crash_seed;
  }

let default_cfg =
  {
    exploration = default_exploration;
    checkers = [ Hijack.checker ];
    federation = default_federation;
    faults = default_faults;
  }

type t = {
  live : Speaker.instance;
  cfg : cfg;
  mutable rev_seeds : seed list;
  mutable seed_counter : int;
}

let create ?(cfg = default_cfg) live =
  (* Chaos knobs: a link fault model in the config lands on every
     remote agent's probe link, a node crash model on every remote
     agent's serving node, each with its RNG reseeded so the whole run
     replays from [cfg.faults.seed] / [cfg.faults.crash_seed]. Local
     agents have no wire to perturb and no node to crash. *)
  (if cfg.faults.probe <> None || cfg.faults.node <> None then
     List.iter
       (fun a ->
         match Distributed.agent_transport a with
         | Distributed.Remote ep ->
           let net, cnode, snode = Probe_rpc.endpoint_link ep in
           (match cfg.faults.probe with
           | None -> ()
           | Some f ->
             Dice_sim.Network.set_fault_seed net cfg.faults.seed;
             Dice_sim.Network.set_faults net cnode snode f);
           (match cfg.faults.node with
           | None -> ()
           | Some nf ->
             Dice_sim.Network.set_crash_seed net cfg.faults.crash_seed;
             Dice_sim.Network.set_node_faults net snode nf)
         | Distributed.Local _ -> ())
       cfg.federation.agents);
  (* Cooperating remote agents become one more checker: every exploration
     outcome is probed across the domain boundary, [probe_jobs] probes at
     a time over the worker pool. *)
  let cfg =
    match cfg.federation.agents with
    | [] -> cfg
    | agents ->
      { cfg with
        checkers =
          cfg.checkers
          @ [ Distributed.checker ~jobs:cfg.federation.probe_jobs ~agents ];
      }
  in
  { live; cfg; rev_seeds = []; seed_counter = 0 }

let speaker t = t.live

let observe t ~peer ~prefix ~route =
  let tag = Printf.sprintf "seed%d" t.seed_counter in
  t.seed_counter <- t.seed_counter + 1;
  t.rev_seeds <- { tag; peer; prefix; route } :: t.rev_seeds

let observe_update t ~peer (u : Msg.update) =
  match Route.of_attrs u.Msg.attrs with
  | Error _ -> ()
  | Ok route -> List.iter (fun prefix -> observe t ~peer ~prefix ~route) u.Msg.nlri

let pending_seeds t = List.length t.rev_seeds

type seed_report = {
  seed : seed;
  explorer : Explorer.report;
  faults : Checker.fault list;
  intercepted : int;
  runs_accepted : int;
  runs_rejected : int;
  observed_accepted : bool;
  clone_stats : Fork.clone_stats list;
  depth_counts : (string * int) list;
}

type report = {
  seed_reports : seed_report list;
  faults : Checker.fault list;
  checkpoint_pages : int;
  live_image_bytes : int;
  wall_seconds : float;
  checkpoint_seconds : float;
}

(* Serialized engine metadata: the path condition buffers a forked explorer
   process keeps in memory — counted as part of the clone's CoW footprint,
   as they would be in a real fork-based explorer. *)
let add_engine_metadata buf ctx =
  List.iter
    (fun (e : Path.entry) ->
      Buffer.add_string buf (Path.Site.name e.Path.site);
      Buffer.add_string buf (Format.asprintf "%a" Path.pp_constr e.Path.constr))
    (Engine.path ctx)

let dedup_faults faults =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun f ->
      let key = Checker.fault_key f in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    faults

let explore_seed t ~checkpoint ~base ~pre_loc (s : seed) =
  let ex = t.cfg.exploration in
  let sandbox = Dice_sim.Isolation.create ~name:("dice-" ^ s.tag) in
  (* the engine's accumulated in-memory state (constraints recorded across
     all runs so far): part of a forked explorer's footprint *)
  let meta_buf = Buffer.create 1024 in
  let faults = ref [] in
  let accepted = ref 0 in
  let rejected = ref 0 in
  let observed_accepted = ref None in
  let clone_stats = ref [] in
  let sampled = ref 0 in
  let depth_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let checker_ctx peer_as =
    { Checker.pre_loc_rib = pre_loc;
      anycast = (Speaker.config t.live).Config_types.anycast;
      peer = s.peer;
      peer_as;
    }
  in
  let peer_as =
    match Config_types.find_peer (Speaker.config t.live) s.peer with
    | Some p -> p.Config_types.remote_as
    | None -> 0
  in
  let run_outcome clone ctx (outcome : Speaker.import_outcome) =
    (* the first run replays the observed input unmutated *)
    if !observed_accepted = None then observed_accepted := Some outcome.Speaker.accepted;
    add_engine_metadata meta_buf ctx;
    List.iter
      (fun (_, _) -> Dice_sim.Isolation.send sandbox ~src:0 ~dst:0 Bytes.empty)
      outcome.Speaker.outputs;
    if outcome.Speaker.accepted then begin
      incr accepted;
      (* sample clone footprints at exponentially spaced points so the
         growth of the explorer's workspace over the whole exploration is
         captured, not just the first few runs *)
      let power_of_two n = n land (n - 1) = 0 in
      if !sampled < ex.clone_samples && power_of_two !accepted then begin
        incr sampled;
        let fclone = Fork.spawn checkpoint in
        let final_parts = [ Speaker.snapshot clone; Buffer.to_bytes meta_buf ] in
        clone_stats := Fork.finish fclone ~final_parts :: !clone_stats
      end
    end
    else incr rejected;
    List.iter
      (fun (c : Checker.t) -> faults := c.Checker.check (checker_ctx peer_as) outcome @ !faults)
      t.cfg.checkers
  in
  let program ctx =
    (* every run starts from its own copy of the checkpointed state *)
    let clone = Speaker.clone base in
    match ex.mode with
    | Symbolize.Selective ->
      let cr = Symbolize.croute ctx ~tag:s.tag ~prefix:s.prefix ~route:s.route in
      let outcome = Speaker.import_concolic ~ctx clone ~peer:s.peer cr in
      run_outcome clone ctx outcome
    | Symbolize.Whole_message -> begin
      let observed =
        Msg.encode (Msg.Update { withdrawn = []; attrs = Route.to_attrs s.route; nlri = [ s.prefix ] })
      in
      let cvals = Symbolize.message_bytes ctx ~tag:s.tag observed in
      let depth = Concolic_parser.validate ctx cvals in
      let key = Concolic_parser.depth_to_string depth in
      Hashtbl.replace depth_tbl key
        (1 + Option.value (Hashtbl.find_opt depth_tbl key) ~default:0);
      match depth with
      | Concolic_parser.Valid_update -> begin
        let bytes = Symbolize.concretize_bytes cvals in
        match Msg.decode bytes with
        | Ok (Msg.Update u) when u.Msg.nlri <> [] -> begin
          match Route.of_attrs u.Msg.attrs with
          | Ok route ->
            List.iter
              (fun prefix ->
                let cr = Croute.of_route prefix route in
                let outcome = Speaker.import_concolic ~ctx clone ~peer:s.peer cr in
                run_outcome clone ctx outcome)
              u.Msg.nlri
          | Error _ -> incr rejected
        end
        | Ok _ | Error _ -> incr rejected
      end
      | Concolic_parser.Bad_header | Concolic_parser.Bad_update_skeleton
      | Concolic_parser.Bad_attribute | Concolic_parser.Bad_nlri
      | Concolic_parser.Valid_other ->
        ()
    end
  in
  let explorer = Explorer.explore ~config:ex.explorer program in
  {
    seed = s;
    explorer;
    faults = dedup_faults (List.rev !faults);
    intercepted = Dice_sim.Isolation.count sandbox;
    runs_accepted = !accepted;
    runs_rejected = !rejected;
    observed_accepted = Option.value !observed_accepted ~default:false;
    clone_stats = List.rev !clone_stats;
    depth_counts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) depth_tbl [] |> List.sort compare;
  }

let take n l =
  let rec go n l acc =
    if n = 0 then List.rev acc
    else begin
      match l with
      | [] -> List.rev acc
      | x :: rest -> go (n - 1) rest (x :: acc)
    end
  in
  go n l []

let explore t =
  let ex = t.cfg.exploration in
  let t0 = Unix.gettimeofday () in
  (* only this runs on the live node's critical path: freezing the
     process image — the in-process equivalent of fork()'s page-table
     copy; the speaker decides how cheap it can make it *)
  let serialize_frozen = Speaker.freeze t.live in
  let version = Speaker.updates_processed t.live in
  let checkpoint_seconds = Unix.gettimeofday () -. t0 in
  (* from here on the explorer does the work: serialization included *)
  let live_image = serialize_frozen () in
  (* the one exploration base: a clone of the live speaker as it was
     frozen, sharing its storage (and BIRD's image recorded by the
     serialization), so each sampled footprint patches that image
     instead of re-encoding the table; runs only ever read the base,
     through [Speaker.clone] *)
  let base = Speaker.clone t.live in
  if Speaker.updates_processed base <> version then
    invalid_arg "Orchestrator.explore: the live speaker changed while it was checkpointed";
  let mgr = Fork.create ~page_size:ex.page_size () in
  let checkpoint = Fork.checkpoint mgr ~live_image in
  (* the checkers' pre-exploration view: the base holds the live state,
     so a speaker that materializes its view does it off the live node *)
  let pre_loc = Speaker.loc_rib base in
  let seeds = take ex.max_seeds t.rev_seeds in
  t.rev_seeds <- [];
  (* Seed explorations are independent — every run of every seed clones
     the shared base, and cloning never mutates its argument — so they
     can run on separate domains. [Pool.map] keeps report order equal to
     seed order whatever the schedule. *)
  let seed_reports =
    Dice_exec.Pool.map ~jobs:(max 1 ex.jobs)
      (fun s -> explore_seed t ~checkpoint ~base ~pre_loc s)
      seeds
  in
  let all_faults =
    dedup_faults (List.concat_map (fun (r : seed_report) -> r.faults) seed_reports)
  in
  {
    seed_reports;
    faults = all_faults;
    checkpoint_pages =
      Dice_checkpoint.Page.count ~page_size:ex.page_size (Bytes.length live_image);
    live_image_bytes = Bytes.length live_image;
    wall_seconds = Unix.gettimeofday () -. t0;
    checkpoint_seconds;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>DiCE exploration report@,";
  Format.fprintf ppf "seeds explored: %d@," (List.length r.seed_reports);
  Format.fprintf ppf "live image: %d bytes (%d pages)@," r.live_image_bytes
    r.checkpoint_pages;
  List.iter
    (fun sr ->
      Format.fprintf ppf "@[<v 2>%s (%s observed on %s):@," sr.seed.tag
        (Prefix.to_string sr.seed.prefix)
        (Ipv4.to_string sr.seed.peer);
      Format.fprintf ppf "executions: %d, accepted: %d, rejected: %d@,"
        sr.explorer.Explorer.executions sr.runs_accepted sr.runs_rejected;
      Format.fprintf ppf "coverage: %d directions / %d sites@,"
        (Coverage.direction_count sr.explorer.Explorer.coverage)
        (Coverage.site_count sr.explorer.Explorer.coverage);
      let ss = sr.explorer.Explorer.solver_stats in
      Format.fprintf ppf
        "solver: %d calls, %d prefix reuses, %d simplifications, %d scan skips@,"
        ss.Dice_concolic.Solver.calls ss.Dice_concolic.Solver.prefix_reuses
        ss.Dice_concolic.Solver.simplifications
        ss.Dice_concolic.Solver.first_violated_skips;
      if sr.explorer.Explorer.program_exns > 0 then
        Format.fprintf ppf "program exceptions: %d@,"
          sr.explorer.Explorer.program_exns;
      if sr.depth_counts <> [] then
        Format.fprintf ppf "parser depths: %s@,"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) sr.depth_counts));
      Format.fprintf ppf "faults: %d@]@," (List.length sr.faults))
    r.seed_reports;
  Format.fprintf ppf "@[<v 2>distinct faults (%d):@,%a@]@,"
    (List.length r.faults)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Checker.pp_fault)
    r.faults;
  Format.fprintf ppf "wall time: %.2f s@]" r.wall_seconds
