open Dice_inet
open Dice_bgp
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

(* XORP-style state: one balanced map per table (RibIn/RibOut per peer,
   plus the main table), plumbed together by the decision process.
   Map iteration is sorted, so every serialization is canonical without
   an explicit sort pass. *)
module Pmap = Map.Make (struct
  type t = Prefix.t

  let compare = Prefix.compare
end)

type peer_st = {
  pcfg : Config_types.peer_cfg;
  mutable up : bool;
  mutable rin : Route.t Pmap.t;
  mutable rout : Route.t Pmap.t option;
      (* [None] until the first decision change must reach this peer —
         the lazily materialized Adj-RIB-Out *)
}

type t = {
  cfg : Config_types.t;
  peers : (Ipv4.t * peer_st) list;  (* sorted by address, fixed at create *)
  mutable main : Rib.Loc.entry Pmap.t;
  statics : (Prefix.t * Rib.Loc.entry) list;
  mutable updates : int;
}

let config t = t.cfg
let local_as t = t.cfg.Config_types.local_as
let updates_processed t = t.updates

let create cfg =
  let statics =
    List.map
      (fun (p, via) ->
        ( p,
          {
            Rib.Loc.route =
              Route.make ~origin:Attr.Igp ~as_path:Asn.Path.empty ~next_hop:via
                ~local_pref:(Some 100) ();
            src = Route.static_src;
          } ))
      cfg.Config_types.static_routes
  in
  let peers =
    List.map
      (fun pcfg ->
        (pcfg.Config_types.neighbor, { pcfg; up = false; rin = Pmap.empty; rout = None }))
      cfg.Config_types.peers
    |> List.sort (fun (a, _) (b, _) -> Ipv4.compare a b)
  in
  let main =
    List.fold_left (fun acc (p, e) -> Pmap.add p e acc) Pmap.empty statics
  in
  { cfg; peers; main; statics; updates = 0 }

let peer_exn t addr =
  match List.assoc_opt addr t.peers with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Xrouter: unknown peer %s" (Ipv4.to_string addr))

let session_up t ~peer =
  match List.assoc_opt peer t.peers with Some p -> p.up | None -> false

(* ------------------------------------------------------------------ *)
(* Decision process — the XORP flavor.                                 *)
(*                                                                     *)
(* Candidates are first grouped by neighboring AS and only the best    *)
(* candidate of each group survives (deterministic MED: the outcome    *)
(* never depends on arrival order; missing MED counts as 0, the BEST — *)
(* the opposite default of the Quagga flavor). Group survivors then    *)
(* compete without MED: local-pref, locally-originated, path length,   *)
(* ORIGIN, eBGP-over-iBGP, IGP cost to the next hop (modeled as the    *)
(* numeric next-hop address: lower is closer), and only then the peer  *)
(* tie-breaks (router id, then address) that BIRD and Quagga reach     *)
(* directly.                                                           *)
(* ------------------------------------------------------------------ *)

let missing_med_best = 0

let residual ~with_med ((ra, sa) : Route.t * Route.src) ((rb, sb) : Route.t * Route.src) =
  let lp r = Option.value r.Route.local_pref ~default:100 in
  let c = Int.compare (lp rb) (lp ra) in
  if c <> 0 then c
  else begin
    let c = Bool.compare (sb = Route.static_src) (sa = Route.static_src) in
    if c <> 0 then c
    else begin
      let c =
        Int.compare (Asn.Path.length ra.Route.as_path) (Asn.Path.length rb.Route.as_path)
      in
      if c <> 0 then c
      else begin
        let c =
          Int.compare (Attr.origin_code ra.Route.origin) (Attr.origin_code rb.Route.origin)
        in
        if c <> 0 then c
        else begin
          let med r = Option.value r.Route.med ~default:missing_med_best in
          let c = if with_med then Int.compare (med ra) (med rb) else 0 in
          if c <> 0 then c
          else begin
            let c = Bool.compare sb.Route.ebgp sa.Route.ebgp in
            if c <> 0 then c
            else begin
              let c = Ipv4.compare ra.Route.next_hop rb.Route.next_hop in
              if c <> 0 then c
              else begin
                let c = Ipv4.compare sa.Route.peer_bgp_id sb.Route.peer_bgp_id in
                if c <> 0 then c else Ipv4.compare sa.Route.peer_addr sb.Route.peer_addr
              end
            end
          end
        end
      end
    end
  end

let med_group ((r, s) : Route.t * Route.src) =
  if s = Route.static_src then -1
  else Option.value (Route.neighbor_as r) ~default:(-1)

let xcompare_group = residual ~with_med:true
let xcompare_winners = residual ~with_med:false

let src_of_peer t (p : peer_st) =
  {
    Route.peer_addr = p.pcfg.Config_types.neighbor;
    peer_asn = p.pcfg.Config_types.remote_as;
    peer_bgp_id = p.pcfg.Config_types.neighbor;
    ebgp = p.pcfg.Config_types.remote_as <> t.cfg.Config_types.local_as;
  }

let candidates t prefix =
  let from_static =
    match List.assoc_opt prefix t.statics with
    | Some e -> [ (e.Rib.Loc.route, e.Rib.Loc.src) ]
    | None -> []
  in
  List.fold_left
    (fun acc (_, p) ->
      match Pmap.find_opt prefix p.rin with
      | Some r -> (r, src_of_peer t p) :: acc
      | None -> acc)
    from_static t.peers

let decide t prefix =
  let cands = candidates t prefix in
  (* deterministic-MED grouping: one survivor per neighboring AS *)
  let groups = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let g = med_group c in
      match Hashtbl.find_opt groups g with
      | Some best when xcompare_group best c <= 0 -> ()
      | Some _ | None -> Hashtbl.replace groups g c)
    cands;
  let winners = Hashtbl.fold (fun _ c acc -> c :: acc) groups [] in
  match List.sort xcompare_winners winners with
  | (route, src) :: _ -> Some { Rib.Loc.route; src }
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Export path: standard BGP semantics (split horizon, NO_EXPORT /     *)
(* NO_ADVERTISE, eBGP prepend + next-hop-self + attribute strip), over *)
(* a lazily materialized RibOut.                                       *)
(* ------------------------------------------------------------------ *)

let export_view t (dst : peer_st) (route : Route.t) =
  let ebgp = dst.pcfg.Config_types.remote_as <> t.cfg.Config_types.local_as in
  if ebgp then
    {
      route with
      Route.as_path = Asn.Path.prepend t.cfg.Config_types.local_as route.Route.as_path;
      next_hop = t.cfg.Config_types.router_id;
      local_pref = None;
      med = None;
    }
  else route

let export_blocked (dst : peer_st) local_as (route : Route.t) (src : Route.src) =
  let ebgp = dst.pcfg.Config_types.remote_as <> local_as in
  src.Route.peer_addr = dst.pcfg.Config_types.neighbor (* split horizon *)
  || (ebgp && Route.has_community route Community.no_export)
  || Route.has_community route Community.no_advertise

(* What the export policy would put in [dst]'s RibOut for one main-table
   entry, or [None] if blocked/filtered. *)
let advert_for ?(ctx = Engine.null ()) t (dst : peer_st) prefix { Rib.Loc.route; src } =
  if export_blocked dst t.cfg.Config_types.local_as route src then None
  else begin
    let view = export_view t dst route in
    match
      Filter_interp.run_policy ctx ~source_as:src.Route.peer_asn
        ~local_as:t.cfg.Config_types.local_as dst.pcfg.Config_types.export_policy
        (Croute.of_route prefix view)
    with
    | Filter_interp.Accepted cr ->
      let _, r = Croute.to_route cr in
      Some r
    | Filter_interp.Rejected -> None
  end

(* The lazy quirk: the first time a decision change must reach [p], the
   whole RibOut materializes from the main table as it stood before the
   change — XORP's background RibOut plumbing, collapsed to the moment
   it becomes observable. The materialized entries were never emitted
   as messages: they stand for the initial table advertisement, which
   is session-establishment traffic the narrow interface never sees. *)
let ensure_rout t (p : peer_st) =
  if p.up && p.rout = None then
    p.rout <-
      Some
        (Pmap.fold
           (fun prefix e acc ->
             match advert_for t p prefix e with
             | Some r -> Pmap.add prefix r acc
             | None -> acc)
           t.main Pmap.empty)

let export_to ?(ctx = Engine.null ()) t (p : peer_st) prefix best =
  if not p.up then []
  else begin
    let rout = Option.value p.rout ~default:Pmap.empty in
    let previously = Pmap.find_opt prefix rout in
    let advert =
      match best with
      | None -> None
      | Some entry -> advert_for ~ctx t p prefix entry
    in
    match (previously, advert) with
    | None, None -> []
    | Some old, Some r when Route.equal old r -> []
    | _, Some r ->
      p.rout <- Some (Pmap.add prefix r rout);
      [ ( p.pcfg.Config_types.neighbor,
          Msg.Update { withdrawn = []; attrs = Route.to_attrs r; nlri = [ prefix ] } );
      ]
    | Some _, None ->
      p.rout <- Some (Pmap.remove prefix rout);
      [ ( p.pcfg.Config_types.neighbor,
          Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] } );
      ]
  end

let reconsider ?ctx t prefix =
  let old_best = Pmap.find_opt prefix t.main in
  let new_best = decide t prefix in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a.Rib.Loc.route b.Rib.Loc.route && a.src = b.src)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    (* materialize pending RibOuts against the pre-change table, then
       install and push the diff *)
    List.iter (fun (_, p) -> ensure_rout t p) t.peers;
    (match new_best with
    | Some e -> t.main <- Pmap.add prefix e t.main
    | None -> t.main <- Pmap.remove prefix t.main);
    List.concat_map (fun (_, p) -> export_to ?ctx t p prefix new_best) t.peers
  end
  else []

(* ------------------------------------------------------------------ *)
(* Sessions: administratively established, no FSM.                     *)
(* ------------------------------------------------------------------ *)

let establish t ~peer =
  let p = peer_exn t peer in
  if not p.up then p.up <- true (* RibOut stays unmaterialized: the lazy quirk *)

let session_clear ?ctx t (p : peer_st) =
  let prefixes = Pmap.fold (fun prefix _ acc -> prefix :: acc) p.rin [] in
  p.up <- false;
  p.rin <- Pmap.empty;
  p.rout <- None;
  List.concat_map (fun prefix -> reconsider ?ctx t prefix) prefixes

(* ------------------------------------------------------------------ *)
(* Import path                                                         *)
(* ------------------------------------------------------------------ *)

type import_outcome = {
  prefix : Prefix.t;
  accepted : bool;
  installed : bool;
  route : Route.t option;
  previous_best : Rib.Loc.entry option;
  outputs : (Ipv4.t * Msg.t) list;
}

let import_concolic ~ctx t ~peer croute =
  let p = peer_exn t peer in
  t.updates <- t.updates + 1;
  let rejected () =
    {
      prefix = Croute.prefix_of croute;
      accepted = false;
      installed = false;
      route = None;
      previous_best = Pmap.find_opt (Croute.prefix_of croute) t.main;
      outputs = [];
    }
  in
  if Asn.Path.contains croute.Croute.as_path t.cfg.Config_types.local_as then rejected ()
  else begin
    match
      Filter_interp.run_policy ctx ~source_as:p.pcfg.Config_types.remote_as
        ~local_as:t.cfg.Config_types.local_as p.pcfg.Config_types.import_policy croute
    with
    | Filter_interp.Rejected -> rejected ()
    | Filter_interp.Accepted cr ->
      let cr =
        if cr.Croute.has_local_pref then cr
        else Croute.with_local_pref cr (Cval.concrete ~width:32 100L)
      in
      let prefix, route = Croute.to_route cr in
      (* past the shared policy interpreter the pipeline runs concretely,
         as in a federated peer DiCE cannot instrument *)
      let previous_best = Pmap.find_opt prefix t.main in
      p.rin <- Pmap.add prefix route p.rin;
      let outputs = reconsider ~ctx t prefix in
      let installed =
        match Pmap.find_opt prefix t.main with
        | Some e -> e.Rib.Loc.src.Route.peer_addr = peer && Route.equal e.Rib.Loc.route route
        | None -> false
      in
      { prefix; accepted = true; installed; route = Some route; previous_best; outputs }
  end

let process_update ~ctx t ~peer (u : Msg.update) =
  let p = peer_exn t peer in
  let outs = ref [] in
  let withdraw prefix =
    if Pmap.mem prefix p.rin then begin
      p.rin <- Pmap.remove prefix p.rin;
      outs := !outs @ reconsider ~ctx t prefix
    end
  in
  List.iter withdraw u.Msg.withdrawn;
  if u.Msg.nlri <> [] then begin
    match Route.of_attrs u.Msg.attrs with
    | Error _ -> List.iter withdraw u.Msg.nlri (* treat-as-withdraw *)
    | Ok route ->
      List.iter
        (fun prefix ->
          let outcome = import_concolic ~ctx t ~peer (Croute.of_route prefix route) in
          outs := !outs @ outcome.outputs;
          if not outcome.accepted then withdraw prefix)
        u.Msg.nlri
  end
  else t.updates <- t.updates + if u.Msg.withdrawn <> [] then 1 else 0;
  !outs

let feed ?(ctx = Engine.null ()) t ~peer msg =
  let p = peer_exn t peer in
  match msg with
  | Msg.Update u -> if p.up then process_update ~ctx t ~peer u else []
  | Msg.Notification _ ->
    t.updates <- t.updates + 1;
    session_clear ~ctx t p
  | Msg.Open _ | Msg.Keepalive -> []

(* ------------------------------------------------------------------ *)
(* State views                                                         *)
(* ------------------------------------------------------------------ *)

let table t = Pmap.fold Rib.Loc.set t.main Rib.Loc.empty
let best_route t prefix = Pmap.find_opt prefix t.main

let learned_from t ~peer prefix =
  match List.assoc_opt peer t.peers with
  | Some p -> Pmap.mem prefix p.rin
  | None -> false

(* ------------------------------------------------------------------ *)
(* Checkpointing: an eager linear image ("XRTRSNP2" magic), the same   *)
(* framing conventions as the Quagga flavor's but a mutually alien     *)
(* layout:                                                             *)
(*   u32 updates                                                       *)
(*   u16 #peers, each (map order = sorted by address):                 *)
(*     u32 address | u8 flags (bit0 up, bit1 RibOut materialized)      *)
(*     u32 #rin entries, each: prefix (u8 len, u32 network)            *)
(*       | u16 attr-bytes | encoded path attributes                    *)
(*     if materialized: u32 #rout entries, same shape                  *)
(*   u32 #main-table entries, each: prefix | attrs | u32 src address   *)
(*     | u32 src ASN | u32 src router id | u8 ebgp                     *)
(* ------------------------------------------------------------------ *)

let magic = "XRTRSNP2"

let put_prefix b prefix =
  Wbuf.u8 b (Prefix.len prefix);
  Wbuf.u32 b (Prefix.network prefix)

let get_prefix r =
  let len = Rbuf.u8 ~what:"prefix length" r in
  let network = Rbuf.u32 ~what:"prefix network" r in
  Prefix.make network len

let put_route b (route : Route.t) =
  let len_at = Wbuf.mark b in
  Wbuf.u16 b 0;
  Attr.encode_list ~as4:true b (Route.to_attrs route);
  Wbuf.patch_u16 b len_at (Wbuf.length b - len_at - 2)

let get_route r =
  let len = Rbuf.u16 ~what:"attr region length" r in
  let region = Rbuf.sub r len in
  match Attr.decode_list ~as4:true region with
  | Error e -> invalid_arg ("Xrouter.restore: bad attributes: " ^ Attr.error_to_string e)
  | Ok attrs -> begin
    match Route.of_attrs attrs with
    | Error e -> invalid_arg ("Xrouter.restore: bad route: " ^ Attr.error_to_string e)
    | Ok route -> route
  end

let put_adj b adj =
  Wbuf.u32 b (Pmap.cardinal adj);
  Pmap.iter
    (fun prefix route ->
      put_prefix b prefix;
      put_route b route)
    adj

let get_adj r =
  let n = Rbuf.u32 ~what:"adj entry count" r in
  let adj = ref Pmap.empty in
  for _ = 1 to n do
    let prefix = get_prefix r in
    adj := Pmap.add prefix (get_route r) !adj
  done;
  !adj

let snapshot t =
  let b = Wbuf.create ~capacity:1024 () in
  Wbuf.string b magic;
  Wbuf.u32 b t.updates;
  Wbuf.u16 b (List.length t.peers);
  List.iter
    (fun (addr, p) ->
      Wbuf.u32 b addr;
      Wbuf.u8 b ((if p.up then 1 else 0) lor (if p.rout <> None then 2 else 0));
      put_adj b p.rin;
      match p.rout with Some rout -> put_adj b rout | None -> ())
    t.peers;
  Wbuf.u32 b (Pmap.cardinal t.main);
  Pmap.iter
    (fun prefix (e : Rib.Loc.entry) ->
      put_prefix b prefix;
      put_route b e.Rib.Loc.route;
      Wbuf.u32 b e.Rib.Loc.src.Route.peer_addr;
      Wbuf.u32 b e.Rib.Loc.src.Route.peer_asn;
      Wbuf.u32 b e.Rib.Loc.src.Route.peer_bgp_id;
      Wbuf.u8 b (if e.Rib.Loc.src.Route.ebgp then 1 else 0))
    t.main;
  Wbuf.contents b

let restore cfg image =
  try
    let r = Rbuf.of_bytes image in
    let m = Bytes.to_string (Rbuf.take ~what:"magic" r 8) in
    if m <> magic then invalid_arg "Xrouter.restore: not an Xrouter image";
    let t = create cfg in
    t.main <- Pmap.empty;
    t.updates <- Rbuf.u32 ~what:"updates" r;
    let n_peers = Rbuf.u16 ~what:"peer count" r in
    for _ = 1 to n_peers do
      let addr = Rbuf.u32 ~what:"peer address" r in
      let p =
        match List.assoc_opt addr t.peers with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Xrouter.restore: image peer %s absent from config"
               (Ipv4.to_string addr))
      in
      let flags = Rbuf.u8 ~what:"peer flags" r in
      p.up <- flags land 1 = 1;
      p.rin <- get_adj r;
      p.rout <- (if flags land 2 = 2 then Some (get_adj r) else None)
    done;
    let n_main = Rbuf.u32 ~what:"table entry count" r in
    let main = ref Pmap.empty in
    for _ = 1 to n_main do
      let prefix = get_prefix r in
      let route = get_route r in
      let peer_addr = Rbuf.u32 ~what:"src address" r in
      let peer_asn = Rbuf.u32 ~what:"src asn" r in
      let peer_bgp_id = Rbuf.u32 ~what:"src router id" r in
      let ebgp = Rbuf.u8 ~what:"src ebgp flag" r = 1 in
      main :=
        Pmap.add prefix
          { Rib.Loc.route; src = { Route.peer_addr; peer_asn; peer_bgp_id; ebgp } }
          !main
    done;
    t.main <- !main;
    t
  with Rbuf.Truncated what -> invalid_arg ("Xrouter.restore: truncated image: " ^ what)

(* An independent in-process copy. The per-table balanced maps are
   persistent, so the clone holds references and copies only the mutable
   per-peer cells — O(#peers), all route storage physically shared. *)
let clone t =
  let peers =
    List.map
      (fun (addr, p) -> (addr, { pcfg = p.pcfg; up = p.up; rin = p.rin; rout = p.rout }))
      t.peers
  in
  { cfg = t.cfg; peers; main = t.main; statics = t.statics; updates = t.updates }
