open Dice_inet
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

type output =
  | To_peer of Ipv4.t * Msg.t
  | Connect_request of Ipv4.t
  | Close_connection of Ipv4.t
  | Set_timer of Ipv4.t * Fsm.timer * float
  | Clear_timer of Ipv4.t * Fsm.timer
  | Session_up of Ipv4.t
  | Session_down of Ipv4.t * string

type peer_rt = {
  pcfg : Config_types.peer_cfg;
  mutable fsm : Fsm.state;
  mutable adj_in : Rib.Adj.t;
  mutable adj_out : Rib.Adj.t;
  mutable as4 : bool;
}

(* slot bookkeeping for stable-layout snapshots (see the Checkpointing
   section): every RIB entry owns a fixed-size slot, keyed by table and
   prefix, so snapshots have a stable page layout *)
type slot_key =
  | Slot_loc of Prefix.t
  | Slot_adj_in of Ipv4.t * Prefix.t
  | Slot_adj_out of Ipv4.t * Prefix.t

let compare_slot_key a b =
  let rank = function
    | Slot_loc _ -> 0
    | Slot_adj_in _ -> 1
    | Slot_adj_out _ -> 2
  in
  match (a, b) with
  | Slot_loc p, Slot_loc q -> Prefix.compare p q
  | Slot_adj_in (x, p), Slot_adj_in (y, q) | Slot_adj_out (x, p), Slot_adj_out (y, q) ->
    let c = Int.compare x y in
    if c <> 0 then c else Prefix.compare p q
  | _, _ -> Int.compare (rank a) (rank b)

(* persistent, so a clone shares the slot map with its origin *)
module Slots = Map.Make (struct
  type t = slot_key

  let compare = compare_slot_key
end)

(* maps keyed by slot index *)
module Idx = Map.Make (Int)

(* The image a serialized or restored router's slot map agrees with:
   the tries it held, and the bytes they serialize to, kept as the image
   it was serialized to or restored from plus the slots written since.
   [serialize] diffs against it and patches a copy of [rec_base] instead
   of re-encoding every entry (see the Checkpointing section).
   Immutable, so the clones that share it may read it from several
   domains. *)
type recorded = {
  rec_loc : Rib.Loc.t;
  rec_peers : (Ipv4.t * Rib.Adj.t * Rib.Adj.t) list;  (* by address *)
  rec_base : string;
  rec_base_region : int;  (* header room plus slots of [rec_base] *)
  rec_header_room : int;
  rec_overlay : bytes option Idx.t;  (* slots written since [rec_base]: payload, or None if freed *)
  rec_spilled : bytes Idx.t;  (* payloads of the overflow region *)
}

type t = {
  cfg : Config_types.t;
  peers : (Ipv4.t, peer_rt) Hashtbl.t;
  statics : Rib.Loc.entry Dice_inet.Prefix_trie.t;
  mutable loc : Rib.Loc.t;
  mutable updates : int;
  mutable slots : int Slots.t;
  mutable next_slot : int;
  mutable free_slots : int list;
  mutable recorded : recorded option;  (* None until first serialized or restored *)
}

let config t = t.cfg
let local_as t = t.cfg.Config_types.local_as
let router_id t = t.cfg.Config_types.router_id

let create cfg =
  let statics =
    List.fold_left
      (fun acc (p, via) ->
        Prefix_trie.add p
          {
            Rib.Loc.route =
              Route.make ~origin:Attr.Igp ~as_path:Asn.Path.empty ~next_hop:via
                ~local_pref:(Some 100) ();
            src = Route.static_src;
          }
          acc)
      Prefix_trie.empty cfg.Config_types.static_routes
  in
  let t =
    {
      cfg;
      peers = Hashtbl.create 8;
      statics;
      loc = Prefix_trie.fold (fun p e acc -> Rib.Loc.set p e acc) statics Rib.Loc.empty;
      updates = 0;
      slots = Slots.empty;
      next_slot = 0;
      free_slots = [];
      recorded = None;
    }
  in
  List.iter
    (fun pcfg ->
      Hashtbl.replace t.peers pcfg.Config_types.neighbor
        { pcfg; fsm = Fsm.initial; adj_in = Rib.Adj.empty; adj_out = Rib.Adj.empty; as4 = true })
    cfg.Config_types.peers;
  t

let peer_exn t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Router: unknown peer %s" (Ipv4.to_string addr))

let peer_state t addr = Option.map (fun p -> p.fsm) (Hashtbl.find_opt t.peers addr)

let established_peers t =
  Hashtbl.fold (fun addr p acc -> if p.fsm = Fsm.Established then addr :: acc else acc)
    t.peers []
  |> List.sort compare

let loc_rib t = t.loc
let adj_rib_in t addr = Option.map (fun p -> p.adj_in) (Hashtbl.find_opt t.peers addr)
let adj_rib_out t addr = Option.map (fun p -> p.adj_out) (Hashtbl.find_opt t.peers addr)
let best_route t prefix = Rib.Loc.find_opt prefix t.loc
let updates_processed t = t.updates

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)
(* ------------------------------------------------------------------ *)

let src_of_peer t p =
  {
    Route.peer_addr = p.pcfg.Config_types.neighbor;
    peer_asn = p.pcfg.Config_types.remote_as;
    peer_bgp_id = p.pcfg.Config_types.neighbor (* stand-in until OPEN is seen *);
    ebgp = p.pcfg.Config_types.remote_as <> t.cfg.Config_types.local_as;
  }

let candidates t prefix =
  let from_static =
    match Prefix_trie.find_opt prefix t.statics with
    | Some e -> [ (e.Rib.Loc.route, e.Rib.Loc.src) ]
    | None -> []
  in
  Hashtbl.fold
    (fun _ p acc ->
      match Rib.Adj.find_opt prefix p.adj_in with
      | Some r -> (r, src_of_peer t p) :: acc
      | None -> acc)
    t.peers from_static

let decide t prefix =
  match Decision.best (candidates t prefix) with
  | Some (route, src) -> Some { Rib.Loc.route; src }
  | None -> None

(* ------------------------------------------------------------------ *)
(* Export path                                                         *)
(* ------------------------------------------------------------------ *)

(* Transform the best route for advertisement to [dst]: eBGP prepends the
   local AS, rewrites next-hop to self, and strips LOCAL_PREF and MED;
   iBGP forwards LOCAL_PREF unchanged. *)
let export_view t (dst : peer_rt) (route : Route.t) =
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

(* Would advertising [route] to [dst] loop straight back? *)
let split_horizon (dst : peer_rt) (src : Route.src) =
  src.Route.peer_addr = dst.pcfg.Config_types.neighbor

let no_export_blocked (dst : peer_rt) local_as (route : Route.t) =
  let ebgp = dst.pcfg.Config_types.remote_as <> local_as in
  (ebgp && Route.has_community route Community.no_export)
  || Route.has_community route Community.no_advertise

(* Compute the UPDATE (if any) for [prefix]'s new best towards [dst], and
   update the Adj-RIB-Out. *)
let export_to ?(ctx = Engine.null ()) t (dst : peer_rt) prefix best =
  if dst.fsm <> Fsm.Established then []
  else begin
    let previously = Rib.Adj.find_opt prefix dst.adj_out in
    let advert =
      match best with
      | None -> None
      | Some { Rib.Loc.route; src } ->
        if split_horizon dst src then None
        else if no_export_blocked dst t.cfg.Config_types.local_as route then None
        else begin
          let view = export_view t dst route in
          let croute = Croute.of_route prefix view in
          match
            Filter_interp.run_policy ctx
              ~source_as:src.Route.peer_asn
              ~local_as:t.cfg.Config_types.local_as
              dst.pcfg.Config_types.export_policy croute
          with
          | Filter_interp.Accepted cr ->
            let _, r = Croute.to_route cr in
            Some r
          | Filter_interp.Rejected -> None
        end
    in
    match (previously, advert) with
    | None, None -> []
    | Some old, Some r when Route.equal old r -> []
    | _, Some r ->
      dst.adj_out <- Rib.Adj.add prefix r dst.adj_out;
      [ To_peer
          ( dst.pcfg.Config_types.neighbor,
            Msg.Update { withdrawn = []; attrs = Route.to_attrs r; nlri = [ prefix ] } );
      ]
    | Some _, None ->
      dst.adj_out <- Rib.Adj.remove prefix dst.adj_out;
      [ To_peer
          ( dst.pcfg.Config_types.neighbor,
            Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] } );
      ]
  end

let export_all ?ctx t prefix best =
  Hashtbl.fold (fun _ dst acc -> acc @ export_to ?ctx t dst prefix best) t.peers []

(* Recompute the best route for [prefix]; update Loc-RIB and export. *)
let reconsider ?ctx t prefix =
  let old_best = Rib.Loc.find_opt prefix t.loc in
  let new_best = decide t prefix in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a.Rib.Loc.route b.Rib.Loc.route && a.src = b.src)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    (match new_best with
    | Some e -> t.loc <- Rib.Loc.set prefix e t.loc
    | None -> t.loc <- Rib.Loc.remove prefix t.loc);
    export_all ?ctx t prefix new_best
  end
  else []

(* ------------------------------------------------------------------ *)
(* Import path                                                         *)
(* ------------------------------------------------------------------ *)

(* Concolic pre-decision: would the candidate beat the incumbent? This
   mirrors the first decision rules over concolic values so exploration
   can steer announcements into (or out of) the Loc-RIB. The authoritative
   installation still goes through the concrete decision process. *)
let concolic_beats ctx (cr : Croute.t) (incumbent : Rib.Loc.entry option) =
  match incumbent with
  | None -> true
  | Some { Rib.Loc.route = old; _ } -> begin
    let c32 v = Cval.concrete ~width:32 (Int64.of_int v) in
    let lp_new =
      if cr.Croute.has_local_pref then cr.Croute.local_pref else c32 100
    in
    let lp_old = c32 (Option.value old.Route.local_pref ~default:100) in
    if Engine.branchf ctx "decision:local-pref-gt" (Cval.ugt lp_new lp_old) then true
    else if Engine.branchf ctx "decision:local-pref-lt" (Cval.ult lp_new lp_old) then false
    else begin
      let len_new = Asn.Path.length cr.Croute.as_path in
      let len_old = Asn.Path.length old.Route.as_path in
      if len_new <> len_old then len_new < len_old
      else begin
        let org_new = cr.Croute.origin in
        let org_old = c32 (Attr.origin_code old.Route.origin) in
        if Engine.branchf ctx "decision:origin-lt" (Cval.ult org_new org_old) then true
        else not (Engine.branchf ctx "decision:origin-gt" (Cval.ugt org_new org_old))
      end
    end
  end

(* Concolic RIB-lookup probe: a radix-trie LPM walk compares the looked-up
   address against node prefixes bit-range by bit-range; recording those
   comparisons over the *symbolic* NLRI is what lets the explorer construct
   announcements that collide with — or exactly override — address space
   already in the table (the paper's hijack discovery mechanism: Oasis
   manipulates the NLRI until an accepted route conflicts with an existing
   origin). The walk follows the concrete descent; each visited node adds a
   containment branch, and bound nodes also add an exact-prefix branch. *)
let rib_walk_probe ctx t (cr : Croute.t) =
  if Engine.recording ctx then begin
    let addr = cr.Croute.net_addr and len = cr.Croute.net_len in
    let c32 v = Cval.concrete ~width:32 (Int64.of_int v) in
    let concrete_addr = Cval.to_int addr land 0xFFFFFFFF in
    List.iteri
      (fun depth (q, has_value) ->
        let qlen = Prefix.len q in
        if qlen > 0 then begin
          let diff = Cval.logxor addr (c32 (Prefix.network q)) in
          let agree = Cval.eq (Cval.shift_right diff (32 - qlen)) (c32 0) in
          ignore (Engine.branchf ctx (Printf.sprintf "rib:walk%d" depth) agree);
          if has_value then begin
            let exact =
              Cval.and_ agree
                (Cval.eq len (Cval.concrete ~width:8 (Int64.of_int qlen)))
            in
            ignore (Engine.branchf ctx (Printf.sprintf "rib:exact%d" depth) exact)
          end
        end)
      (Rib.Loc.descent concrete_addr t.loc)
  end

type import_outcome = {
  prefix : Prefix.t;
  accepted : bool;
  installed : bool;
  route : Route.t option;
  previous_best : Rib.Loc.entry option;
  outputs : output list;
}

let import_concolic ~ctx t ~peer croute =
  let p = peer_exn t peer in
  t.updates <- t.updates + 1;
  let rejected why =
    ignore why;
    {
      prefix = Croute.prefix_of croute;
      accepted = false;
      installed = false;
      route = None;
      previous_best = Rib.Loc.find_opt (Croute.prefix_of croute) t.loc;
      outputs = [];
    }
  in
  (* AS-loop detection (concrete: the path is not symbolized) *)
  if Asn.Path.contains croute.Croute.as_path t.cfg.Config_types.local_as then
    rejected `Loop
  else begin
    match
      Filter_interp.run_policy ctx
        ~source_as:p.pcfg.Config_types.remote_as
        ~local_as:t.cfg.Config_types.local_as
        p.pcfg.Config_types.import_policy croute
    with
    | Filter_interp.Rejected -> rejected `Policy
    | Filter_interp.Accepted cr ->
      let cr =
        if cr.Croute.has_local_pref then cr
        else
          Croute.with_local_pref cr (Cval.concrete ~width:32 100L)
      in
      let prefix, route = Croute.to_route cr in
      rib_walk_probe ctx t cr;
      let previous_best = Rib.Loc.find_opt prefix t.loc in
      (* record the concolic would-beat constraints for the explorer *)
      let _would_beat = concolic_beats ctx cr previous_best in
      p.adj_in <- Rib.Adj.add prefix route p.adj_in;
      let outputs = reconsider ~ctx t prefix in
      let installed =
        match Rib.Loc.find_opt prefix t.loc with
        | Some e -> e.Rib.Loc.src.Route.peer_addr = peer && Route.equal e.Rib.Loc.route route
        | None -> false
      in
      { prefix; accepted = true; installed; route = Some route; previous_best; outputs }
  end

(* Normal-path UPDATE processing. *)
let process_update ?(ctx = Engine.null ()) t ~peer (u : Msg.update) =
  let p = peer_exn t peer in
  let outs = ref [] in
  (* withdrawals *)
  List.iter
    (fun prefix ->
      if Rib.Adj.find_opt prefix p.adj_in <> None then begin
        p.adj_in <- Rib.Adj.remove prefix p.adj_in;
        outs := !outs @ reconsider ~ctx t prefix
      end)
    u.Msg.withdrawn;
  (* announcements *)
  if u.Msg.nlri <> [] then begin
    match Route.of_attrs u.Msg.attrs with
    | Error _ ->
      (* treat-as-withdraw (RFC 7606 spirit) for the announced prefixes *)
      List.iter
        (fun prefix ->
          if Rib.Adj.find_opt prefix p.adj_in <> None then begin
            p.adj_in <- Rib.Adj.remove prefix p.adj_in;
            outs := !outs @ reconsider ~ctx t prefix
          end)
        u.Msg.nlri
    | Ok route ->
      List.iter
        (fun prefix ->
          let croute = Croute.of_route prefix route in
          let outcome = import_concolic ~ctx t ~peer croute in
          outs := !outs @ outcome.outputs;
          if not outcome.accepted then begin
            (* policy-rejected: ensure any previous version is gone *)
            if Rib.Adj.find_opt prefix p.adj_in <> None then begin
              p.adj_in <- Rib.Adj.remove prefix p.adj_in;
              outs := !outs @ reconsider ~ctx t prefix
            end
          end)
        u.Msg.nlri
  end
  else t.updates <- t.updates + if u.Msg.withdrawn <> [] then 1 else 0;
  !outs

(* ------------------------------------------------------------------ *)
(* Session management                                                  *)
(* ------------------------------------------------------------------ *)

let timer_duration (p : peer_rt) = function
  | Fsm.Connect_retry -> p.pcfg.Config_types.connect_retry_time
  | Fsm.Hold -> p.pcfg.Config_types.hold_time
  | Fsm.Keepalive_timer -> p.pcfg.Config_types.keepalive_time

let open_msg t =
  Msg.Open
    {
      Msg.version = 4;
      my_as = (if t.cfg.Config_types.local_as > 0xFFFF then 23456 else t.cfg.Config_types.local_as);
      hold_time = 90;
      bgp_id = t.cfg.Config_types.router_id;
      capabilities = [ Msg.Cap_as4 t.cfg.Config_types.local_as ];
    }

(* Announce the whole Loc-RIB to a newly established peer. *)
let initial_advertisement ?ctx t (p : peer_rt) =
  Rib.Loc.fold
    (fun prefix entry acc -> acc @ export_to ?ctx t p prefix (Some entry))
    t.loc []

let flush_peer ?ctx t (p : peer_rt) =
  (* a session drop changes the Loc-RIB: it is a new version *)
  t.updates <- t.updates + 1;
  let prefixes = List.map fst (Rib.Adj.to_list p.adj_in) in
  p.adj_in <- Rib.Adj.empty;
  p.adj_out <- Rib.Adj.empty;
  List.concat_map (fun prefix -> reconsider ?ctx t prefix) prefixes

let rec apply_actions ?ctx t (p : peer_rt) actions =
  List.concat_map
    (fun action ->
      let addr = p.pcfg.Config_types.neighbor in
      match action with
      | Fsm.Send_open -> [ To_peer (addr, open_msg t) ]
      | Fsm.Send_keepalive -> [ To_peer (addr, Msg.Keepalive) ]
      | Fsm.Send_notification n -> [ To_peer (addr, Msg.Notification n) ]
      | Fsm.Start_timer tm -> [ Set_timer (addr, tm, timer_duration p tm) ]
      | Fsm.Stop_timer tm -> [ Clear_timer (addr, tm) ]
      | Fsm.Initiate_connect -> [ Connect_request addr ]
      | Fsm.Drop_connection -> [ Close_connection addr ]
      | Fsm.Session_established -> Session_up addr :: initial_advertisement ?ctx t p
      | Fsm.Session_down reason -> Session_down (addr, reason) :: flush_peer ?ctx t p
      | Fsm.Deliver_update u -> process_update ?ctx t ~peer:addr u)
    actions

and feed_event ?ctx t (p : peer_rt) ev =
  let state', actions = Fsm.step p.fsm ev in
  p.fsm <- state';
  apply_actions ?ctx t p actions

let start t =
  Hashtbl.fold (fun _ p acc -> acc @ feed_event t p Fsm.Manual_start) t.peers []

let handle_event t ~peer ev =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> feed_event t p ev

let handle_msg ?ctx t ~peer msg =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> begin
    match msg with
    | Msg.Open o ->
      (* validate the peer AS against configuration *)
      let claimed =
        match List.find_map (function Msg.Cap_as4 a -> Some a | _ -> None) o.Msg.capabilities with
        | Some real -> real
        | None -> o.Msg.my_as
      in
      p.as4 <-
        List.exists (function Msg.Cap_as4 _ -> true | _ -> false) o.Msg.capabilities;
      if claimed <> p.pcfg.Config_types.remote_as then begin
        let n = { Msg.code = 2; subcode = 2; data = Bytes.empty } in
        let outs = feed_event ?ctx t p (Fsm.Recv_notification n) in
        To_peer (p.pcfg.Config_types.neighbor, Msg.Notification n) :: outs
      end
      else feed_event ?ctx t p (Fsm.Recv_open o)
    | Msg.Update u -> feed_event ?ctx t p (Fsm.Recv_update u)
    | Msg.Keepalive -> feed_event ?ctx t p Fsm.Recv_keepalive
    | Msg.Notification n -> feed_event ?ctx t p (Fsm.Recv_notification n)
  end

let handle_bytes ?ctx t ~peer bytes =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> begin
    match Msg.decode ~as4:p.as4 bytes with
    | Ok msg -> handle_msg ?ctx t ~peer msg
    | Error e ->
      let n = Msg.error_notification e in
      let outs = feed_event ?ctx t p (Fsm.Recv_notification n) in
      To_peer (peer, Msg.Notification n) :: outs
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(* The snapshot models a process address space: every RIB entry lives in
   a fixed-size *slot* whose position is stable across snapshots (slots
   are assigned on first appearance and recycled on removal, like heap
   allocations). A router that installs or withdraws one route therefore
   dirties only the pages holding the affected slots — which is what
   makes the copy-on-write checkpoint accounting behave like fork() on
   the real daemon, instead of every page changing because a linear
   serialization shifted. Entries too large for one slot go to a linear
   overflow region (rare). *)

let magic = "DICERTR2"
let slot_size = 256

let encode_prefix w p =
  Wbuf.u8 w (Prefix.len p);
  Wbuf.u32 w (Prefix.network p)

let decode_prefix r =
  let len = Rbuf.u8 ~what:"snapshot prefix len" r in
  let addr = Rbuf.u32 ~what:"snapshot prefix addr" r in
  Prefix.make addr len

let encode_route w route =
  let attrs = Wbuf.create () in
  Attr.encode_list ~as4:true attrs (Route.to_attrs route);
  let b = Wbuf.contents attrs in
  Wbuf.u16 w (Bytes.length b);
  Wbuf.bytes w b

let decode_route r =
  let len = Rbuf.u16 ~what:"snapshot route len" r in
  let body = Rbuf.sub r len in
  match Attr.decode_list ~as4:true body with
  | Error e -> invalid_arg ("Router.restore: bad route: " ^ Attr.error_to_string e)
  | Ok attrs -> begin
    match Route.of_attrs attrs with
    | Error e -> invalid_arg ("Router.restore: bad route: " ^ Attr.error_to_string e)
    | Ok route -> route
  end

let fsm_code = function
  | Fsm.Idle -> 0
  | Fsm.Connect -> 1
  | Fsm.Active -> 2
  | Fsm.Open_sent -> 3
  | Fsm.Open_confirm -> 4
  | Fsm.Established -> 5

let fsm_of_code = function
  | 0 -> Fsm.Idle
  | 1 -> Fsm.Connect
  | 2 -> Fsm.Active
  | 3 -> Fsm.Open_sent
  | 4 -> Fsm.Open_confirm
  | 5 -> Fsm.Established
  | c -> invalid_arg (Printf.sprintf "Router.restore: bad FSM code %d" c)

(* slot payload: kind(1) peer(4) prefix(5) [src(13)] route — without the
   slot header byte *)
let encode_slot_payload w key payload_route src_opt =
  (match key with
  | Slot_loc prefix ->
    Wbuf.u8 w 1;
    Wbuf.u32 w 0;
    encode_prefix w prefix
  | Slot_adj_in (peer, prefix) ->
    Wbuf.u8 w 2;
    Wbuf.u32 w peer;
    encode_prefix w prefix
  | Slot_adj_out (peer, prefix) ->
    Wbuf.u8 w 3;
    Wbuf.u32 w peer;
    encode_prefix w prefix);
  (match src_opt with
  | Some (src : Route.src) ->
    Wbuf.u32 w src.Route.peer_addr;
    Wbuf.u32 w src.Route.peer_asn;
    Wbuf.u32 w src.Route.peer_bgp_id;
    Wbuf.u8 w (if src.Route.ebgp then 1 else 0)
  | None -> ());
  encode_route w payload_route

(* A frozen image: O(#peers) to take, because the RIBs are persistent
   tries — holding references to the current versions is exactly the
   copy-on-write semantics of fork(). The live router may keep mutating;
   this image stays consistent. Serialization happens later, off the
   live node's critical path. *)
type image = {
  of_router : t;  (* slot map owner: keeps the byte layout stable *)
  img_updates : int;
  img_loc : Rib.Loc.t;
  img_peers : (Ipv4.t * Fsm.state * bool * Rib.Adj.t * Rib.Adj.t) list;
}

let freeze t =
  {
    of_router = t;
    img_updates = t.updates;
    img_loc = t.loc;
    img_peers =
      Hashtbl.fold
        (fun addr p acc -> (addr, p.fsm, p.as4, p.adj_in, p.adj_out) :: acc)
        t.peers []
      |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b);
  }

let payload key route src_opt =
  let w = Wbuf.create () in
  encode_slot_payload w key route src_opt;
  Wbuf.contents w

let loc_payload prefix (e : Rib.Loc.entry) =
  payload (Slot_loc prefix) e.Rib.Loc.route (Some e.Rib.Loc.src)

(* current entries of all tables, with their serialized payloads *)
let live_entries img =
  let out = ref [] in
  Rib.Loc.fold
    (fun prefix e () -> out := (Slot_loc prefix, loc_payload prefix e) :: !out)
    img.img_loc ();
  List.iter
    (fun (addr, _, _, adj_in, adj_out) ->
      let add key route = out := (key, payload key route None) :: !out in
      Rib.Adj.fold (fun prefix route () -> add (Slot_adj_in (addr, prefix)) route) adj_in ();
      Rib.Adj.fold (fun prefix route () -> add (Slot_adj_out (addr, prefix)) route) adj_out ())
    img.img_peers;
  !out

(* Free the slots of [stale] keys, then give each of [fresh] a slot in
   [compare_slot_key] order: recycled slots lowest first, then new ones. *)
let reassign_slots t ~stale ~fresh =
  let stale_idx = List.map (fun k -> Slots.find k t.slots) stale in
  t.slots <- List.fold_left (fun m k -> Slots.remove k m) t.slots stale;
  t.free_slots <- List.sort_uniq Int.compare (stale_idx @ t.free_slots);
  List.iter
    (fun k ->
      match t.free_slots with
      | idx :: rest ->
        t.free_slots <- rest;
        t.slots <- Slots.add k idx t.slots
      | [] ->
        t.slots <- Slots.add k t.next_slot t.slots;
        t.next_slot <- t.next_slot + 1)
    (List.sort compare_slot_key fresh);
  stale_idx

let header_of img next_slot =
  let header = Wbuf.create () in
  Wbuf.string header magic;
  Wbuf.u32 header img.img_updates;
  Wbuf.u16 header (List.length img.img_peers);
  List.iter
    (fun (addr, fsm, as4, _, _) ->
      Wbuf.u32 header addr;
      Wbuf.u8 header (fsm_code fsm);
      Wbuf.u8 header (if as4 then 1 else 0))
    img.img_peers;
  Wbuf.u32 header next_slot;
  Wbuf.contents header

let header_room_of header_len = ((header_len / slot_size) + 1) * slot_size

let fits payload = Bytes.length payload <= slot_size - 1

(* Write [payload] into slot [idx] of a zeroed slot region, or mark the
   slot spilled: its payload goes to the overflow tail. *)
let write_slot buf ~header_room idx payload =
  let off = header_room + (idx * slot_size) in
  if fits payload then begin
    Bytes.set buf off '\001';
    Bytes.blit payload 0 buf (off + 1) (Bytes.length payload)
  end
  else Bytes.set buf off '\002'

let spill idx payload spilled =
  if fits payload then Idx.remove idx spilled else Idx.add idx payload spilled

(* the overflow region, in ascending slot order: the order [restore]
   reads it back in *)
let tail_of spilled =
  let tail = Wbuf.create () in
  Wbuf.u32 tail (Idx.cardinal spilled);
  Idx.iter
    (fun _ payload ->
      Wbuf.u16 tail (Bytes.length payload);
      Wbuf.bytes tail payload)
    spilled;
  Wbuf.contents tail

(* a serialized image and where its parts lie *)
type layout = { image : bytes; header_room : int; region : int; spilled : bytes Idx.t }

(* Re-encode every entry: O(table). *)
let encode_all img =
  let t = img.of_router in
  let entries = live_entries img in
  let live = Hashtbl.create (List.length entries) in
  List.iter (fun (k, payload) -> Hashtbl.replace live k payload) entries;
  let stale =
    Slots.fold (fun k _ acc -> if Hashtbl.mem live k then acc else k :: acc) t.slots []
  in
  let fresh =
    List.filter_map (fun (k, _) -> if Slots.mem k t.slots then None else Some k) entries
  in
  ignore (reassign_slots t ~stale ~fresh);
  let header = header_of img t.next_slot in
  let header_room = header_room_of (Bytes.length header) in
  let region = header_room + (t.next_slot * slot_size) in
  let spilled = Slots.fold (fun k idx m -> spill idx (Hashtbl.find live k) m) t.slots Idx.empty in
  let tail = tail_of spilled in
  let image = Bytes.make (region + Bytes.length tail) '\000' in
  Bytes.blit header 0 image 0 (Bytes.length header);
  Slots.iter (fun k idx -> write_slot image ~header_room idx (Hashtbl.find live k)) t.slots;
  Bytes.blit tail 0 image region (Bytes.length tail);
  { image; header_room; region; spilled }

(* Entries that differ between the recorded tries and [img]'s, with
   their new payloads ([None]: removed). Physically shared subtrees are
   skipped, so this is O(write set). *)
let changed_entries r img =
  let loc =
    Rib.Loc.fold_diff
      (fun prefix _ after acc -> (Slot_loc prefix, Option.map (loc_payload prefix) after) :: acc)
      r.rec_loc img.img_loc []
  in
  let adj key_of before after acc =
    Rib.Adj.fold_diff
      (fun prefix _ after acc ->
        let key = key_of prefix in
        (key, Option.map (fun route -> payload key route None) after) :: acc)
      before after acc
  in
  List.fold_left2
    (fun acc (addr, r_in, r_out) (_, _, _, adj_in, adj_out) ->
      adj (fun p -> Slot_adj_in (addr, p)) r_in adj_in acc
      |> adj (fun p -> Slot_adj_out (addr, p)) r_out adj_out)
    loc r.rec_peers img.img_peers

(* a record whose base is [l]'s image (a private copy) *)
let record ~loc ~peers l =
  {
    rec_loc = loc;
    rec_peers = peers;
    rec_base = Bytes.to_string l.image;
    rec_base_region = l.region;
    rec_header_room = l.header_room;
    rec_overlay = Idx.empty;
    rec_spilled = l.spilled;
  }

(* Patch a copy of the recorded image: the header, every slot written
   since its base, and the overflow tail. Slots are freed and assigned
   exactly as [encode_all] would (the recorded keys are the slot map's
   keys), so the bytes are the same. Returns the image and the new
   record, which shares the base until the overlay covers half the
   slots; [None] when the header room moved, which would shift every
   slot. *)
let patch_recorded img r ~peers =
  let t = img.of_router in
  let changes = changed_entries r img in
  let stale = List.filter_map (fun (k, p) -> if Option.is_none p then Some k else None) changes in
  let written = List.filter_map (fun (k, p) -> Option.map (fun p -> (k, p)) p) changes in
  let fresh =
    List.filter_map (fun (k, _) -> if Slots.mem k t.slots then None else Some k) written
  in
  let stale_idx = reassign_slots t ~stale ~fresh in
  let header = header_of img t.next_slot in
  let header_room = header_room_of (Bytes.length header) in
  if header_room <> r.rec_header_room then None
  else begin
    let written = List.map (fun (k, payload) -> (Slots.find k t.slots, payload)) written in
    let overlay = List.fold_left (fun m idx -> Idx.add idx None m) r.rec_overlay stale_idx in
    let overlay = List.fold_left (fun m (idx, p) -> Idx.add idx (Some p) m) overlay written in
    let spilled = List.fold_left (fun m idx -> Idx.remove idx m) r.rec_spilled stale_idx in
    let spilled = List.fold_left (fun m (idx, payload) -> spill idx payload m) spilled written in
    let region = header_room + (t.next_slot * slot_size) in
    let tail = tail_of spilled in
    (* the header has the base's length (same peers); the region only
       grows, and every slot past the base's was assigned since, so the
       overlay covers it *)
    let image = Bytes.create (region + Bytes.length tail) in
    Bytes.blit_string r.rec_base 0 image 0 r.rec_base_region;
    Bytes.blit header 0 image 0 (Bytes.length header);
    let overlaid = ref 0 in
    Idx.iter
      (fun idx payload ->
        incr overlaid;
        Bytes.fill image (header_room + (idx * slot_size)) slot_size '\000';
        Option.iter (write_slot image ~header_room idx) payload)
      overlay;
    Bytes.blit tail 0 image region (Bytes.length tail);
    (* a router serialized again and again (the live one) would keep
       every slot it ever wrote in the overlay: once that is half the
       slots, the image becomes the new base *)
    let r =
      if 2 * !overlaid > t.next_slot then
        record ~loc:img.img_loc ~peers { image; header_room; region; spilled }
      else
        { r with
          rec_loc = img.img_loc;
          rec_peers = peers;
          rec_overlay = overlay;
          rec_spilled = spilled;
        }
    in
    Some (image, r)
  end

let serialize_with ~patch img =
  let t = img.of_router in
  let peers = List.map (fun (a, _, _, i, o) -> (a, i, o)) img.img_peers in
  let addrs = List.map (fun (a, _, _) -> a) in
  let patched =
    match t.recorded with
    | Some r when patch && addrs r.rec_peers = addrs peers -> patch_recorded img r ~peers
    | Some _ | None -> None
  in
  match patched with
  | Some (image, r) ->
    t.recorded <- Some r;
    image
  | None ->
    let l = encode_all img in
    t.recorded <- Some (record ~loc:img.img_loc ~peers l);
    l.image

let serialize = serialize_with ~patch:true
let serialize_full = serialize_with ~patch:false

let snapshot t = serialize (freeze t)

let decode_slot_payload t r =
  let kind = Rbuf.u8 ~what:"slot kind" r in
  let peer_addr = Rbuf.u32 ~what:"slot peer" r in
  let prefix = decode_prefix r in
  match kind with
  | 1 ->
    let sa = Rbuf.u32 ~what:"src addr" r in
    let sasn = Rbuf.u32 ~what:"src asn" r in
    let sid = Rbuf.u32 ~what:"src id" r in
    let ebgp = Rbuf.u8 ~what:"src ebgp" r = 1 in
    let route = decode_route r in
    t.loc <-
      Rib.Loc.set prefix
        { Rib.Loc.route;
          src = { Route.peer_addr = sa; peer_asn = sasn; peer_bgp_id = sid; ebgp } }
        t.loc;
    Slot_loc prefix
  | 2 | 3 -> begin
    let route = decode_route r in
    match Hashtbl.find_opt t.peers peer_addr with
    | Some p ->
      if kind = 2 then p.adj_in <- Rib.Adj.add prefix route p.adj_in
      else p.adj_out <- Rib.Adj.add prefix route p.adj_out;
      if kind = 2 then Slot_adj_in (peer_addr, prefix) else Slot_adj_out (peer_addr, prefix)
    | None ->
      invalid_arg
        (Printf.sprintf "Router.restore: snapshot peer %s not in configuration"
           (Ipv4.to_string peer_addr))
  end
  | k -> invalid_arg (Printf.sprintf "Router.restore: bad slot kind %d" k)

let restore cfg image =
  let r = Rbuf.of_bytes image in
  let m = Bytes.to_string (Rbuf.take ~what:"magic" r (String.length magic)) in
  if m <> magic then invalid_arg "Router.restore: bad magic";
  let t = create cfg in
  t.loc <- Rib.Loc.empty;  (* statics come back through the loc slots *)
  t.updates <- Rbuf.u32 ~what:"updates" r;
  let n_peers = Rbuf.u16 ~what:"peer count" r in
  for _ = 1 to n_peers do
    let addr = Rbuf.u32 ~what:"peer addr" r in
    let fsm = fsm_of_code (Rbuf.u8 ~what:"fsm" r) in
    let as4 = Rbuf.u8 ~what:"as4" r = 1 in
    match Hashtbl.find_opt t.peers addr with
    | Some p ->
      p.fsm <- fsm;
      p.as4 <- as4
    | None ->
      invalid_arg
        (Printf.sprintf "Router.restore: snapshot peer %s not in configuration"
           (Ipv4.to_string addr))
  done;
  let n_slots = Rbuf.u32 ~what:"slot count" r in
  let header_room = header_room_of (Rbuf.pos r) in
  if Bytes.length image < header_room + (n_slots * slot_size) + 4 then
    invalid_arg "Router.restore: image shorter than its slot region";
  t.next_slot <- n_slots;
  let spilled = ref [] in
  for idx = 0 to n_slots - 1 do
    let off = header_room + (idx * slot_size) in
    match Bytes.get image off with
    | '\000' -> t.free_slots <- idx :: t.free_slots
    | '\001' ->
      let sr = Rbuf.of_bytes (Bytes.sub image (off + 1) (slot_size - 1)) in
      let key = decode_slot_payload t sr in
      t.slots <- Slots.add key idx t.slots
    | '\002' -> spilled := idx :: !spilled
    | c -> invalid_arg (Printf.sprintf "Router.restore: bad slot marker %C" c)
  done;
  t.free_slots <- List.sort_uniq Int.compare t.free_slots;
  (* overflow region *)
  let tail_off = header_room + (n_slots * slot_size) in
  let tail = Rbuf.of_bytes (Bytes.sub image tail_off (Bytes.length image - tail_off)) in
  let n_overflow = Rbuf.u32 ~what:"overflow count" tail in
  if n_overflow <> List.length !spilled then
    invalid_arg "Router.restore: overflow count does not match spilled slots";
  (* overflow entries were written in ascending slot order *)
  let spilled =
    List.fold_left
      (fun m idx ->
        let len = Rbuf.u16 ~what:"overflow len" tail in
        let payload = Rbuf.take ~what:"overflow entry" tail len in
        let key = decode_slot_payload t (Rbuf.of_bytes payload) in
        t.slots <- Slots.add key idx t.slots;
        Idx.add idx payload m)
      Idx.empty (List.rev !spilled)
  in
  t.recorded <-
    Some
      (record ~loc:t.loc
         ~peers:
           (Hashtbl.fold (fun addr p acc -> (addr, p.adj_in, p.adj_out) :: acc) t.peers []
           |> List.sort (fun (a, _, _) (b, _, _) -> compare a b))
         { image; header_room; region = tail_off; spilled });
  t

(* ------------------------------------------------------------------ *)
(* In-process cloning                                                  *)
(* ------------------------------------------------------------------ *)

let clone t =
  let peers = Hashtbl.create (Hashtbl.length t.peers) in
  Hashtbl.iter
    (fun addr p ->
      (* fresh mutable cell per peer; the Adj-RIB tries inside are
         persistent and stay physically shared with the live router *)
      Hashtbl.replace peers addr
        { pcfg = p.pcfg; fsm = p.fsm; adj_in = p.adj_in; adj_out = p.adj_out; as4 = p.as4 })
    t.peers;
  {
    cfg = t.cfg;
    peers;
    statics = t.statics;
    loc = t.loc;
    updates = t.updates;
    slots = t.slots;
    next_slot = t.next_slot;
    free_slots = t.free_slots;
    recorded = t.recorded;
  }
