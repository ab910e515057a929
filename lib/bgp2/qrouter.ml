open Dice_inet
open Dice_bgp
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

(* Copy-on-write hash tables. A clone shares its source's table and
   freezes it: from then on nobody writes that table, and every holder
   keeps its own writes in an overlay — the latest write per key, for
   lookups, beside the ordered log of all of them. Iteration replays the
   log onto a copy of the frozen table, so it visits entries in exactly
   the order an eagerly copied table would. A table never cloned is
   written in place: the live path pays one atomic read per write. An
   overlay that outgrows its table is folded back into a private one, so
   a write costs amortized O(1). Reads never write a table (Hashtbl.fold
   would, to mark a traversal), so one table may be read and cloned from
   several domains at once. *)
module Cow : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  val find_opt : ('k, 'v) t -> 'k -> 'v option
  val mem : ('k, 'v) t -> 'k -> bool
  val replace : ('k, 'v) t -> 'k -> 'v -> unit
  val remove : ('k, 'v) t -> 'k -> unit
  val reset : ('k, 'v) t -> unit
  val to_seq : ('k, 'v) t -> ('k * 'v) Seq.t
  val clone : ('k, 'v) t -> ('k, 'v) t
end = struct
  type ('k, 'v) t = {
    size : int;  (* the creation size, which [reset] returns to *)
    mutable base : ('k, 'v) Hashtbl.t;
    mutable frozen : bool Atomic.t;  (* one flag per [base], shared by its holders *)
    over : ('k, 'v option) Hashtbl.t;  (* latest write per key since [base] froze *)
    mutable log : ('k * 'v option) list;  (* every such write, newest first *)
    mutable logged : int;
  }

  let create size =
    { size;
      base = Hashtbl.create size;
      frozen = Atomic.make false;
      over = Hashtbl.create 8;
      log = [];
      logged = 0;
    }

  let private_table t base =
    t.base <- base;
    t.frozen <- Atomic.make false;
    Hashtbl.reset t.over;
    t.log <- [];
    t.logged <- 0

  let materialize t =
    let h = Hashtbl.copy t.base in
    List.iter
      (function k, Some v -> Hashtbl.replace h k v | k, None -> Hashtbl.remove h k)
      (List.rev t.log);
    h

  let log_write t k w =
    Hashtbl.replace t.over k w;
    t.log <- (k, w) :: t.log;
    t.logged <- t.logged + 1;
    if t.logged > Hashtbl.length t.base then private_table t (materialize t)

  let find_opt t k =
    if t.logged = 0 then Hashtbl.find_opt t.base k
    else
      match Hashtbl.find_opt t.over k with
      | Some w -> w
      | None -> Hashtbl.find_opt t.base k

  let mem t k = if t.logged = 0 then Hashtbl.mem t.base k else find_opt t k <> None
  let replace t k v =
    if Atomic.get t.frozen then log_write t k (Some v) else Hashtbl.replace t.base k v

  let remove t k = if Atomic.get t.frozen then log_write t k None else Hashtbl.remove t.base k

  let reset t =
    if Atomic.get t.frozen then private_table t (Hashtbl.create t.size)
    else Hashtbl.reset t.base

  let to_seq t = Hashtbl.to_seq (if t.logged = 0 then t.base else materialize t)

  let clone t =
    Atomic.set t.frozen true;
    { t with over = Hashtbl.copy t.over }
end

(* Zebra-style state: hash tables keyed by prefix, one bucket per table.
   No persistent structures, no slot bookkeeping — snapshots serialize
   eagerly (see the Checkpointing section). *)
type peer_st = {
  pcfg : Config_types.peer_cfg;
  mutable up : bool;
  rin : (Prefix.t, Route.t) Cow.t;
  rout : (Prefix.t, Route.t) Cow.t;
}

type t = {
  cfg : Config_types.t;
  peers : (Ipv4.t, peer_st) Hashtbl.t;
  main : (Prefix.t, Rib.Loc.entry) Cow.t;
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
  let t =
    { cfg; peers = Hashtbl.create 8; main = Cow.create 64; statics; updates = 0 }
  in
  List.iter (fun (p, e) -> Cow.replace t.main p e) statics;
  List.iter
    (fun pcfg ->
      Hashtbl.replace t.peers pcfg.Config_types.neighbor
        { pcfg; up = false; rin = Cow.create 16; rout = Cow.create 16 })
    cfg.Config_types.peers;
  t

let peer_exn t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Qrouter: unknown peer %s" (Ipv4.to_string addr))

let session_up t ~peer =
  match Hashtbl.find_opt t.peers peer with Some p -> p.up | None -> false

(* ------------------------------------------------------------------ *)
(* Decision process — the heterogeneity lives here.                    *)
(*                                                                     *)
(* Order: local-pref, locally-originated, ORIGIN, AS-path length, MED  *)
(* (always comparable, missing = worst), eBGP over iBGP, peer address, *)
(* router id. Relative to Dice_bgp.Decision: ORIGIN and path length    *)
(* are swapped, the final two tie-breaks are swapped, and the MED      *)
(* quirks are the opposite defaults.                                   *)
(* ------------------------------------------------------------------ *)

let missing_med_worst = 0xFFFF_FFFF

let qcompare ((ra, sa) : Route.t * Route.src) ((rb, sb) : Route.t * Route.src) =
  let lp r = Option.value r.Route.local_pref ~default:100 in
  let c = Int.compare (lp rb) (lp ra) in
  if c <> 0 then c
  else begin
    let c = Bool.compare (sb = Route.static_src) (sa = Route.static_src) in
    if c <> 0 then c
    else begin
      let c = Int.compare (Attr.origin_code ra.Route.origin) (Attr.origin_code rb.Route.origin) in
      if c <> 0 then c
      else begin
        let c =
          Int.compare (Asn.Path.length ra.Route.as_path) (Asn.Path.length rb.Route.as_path)
        in
        if c <> 0 then c
        else begin
          let med r = Option.value r.Route.med ~default:missing_med_worst in
          let c = Int.compare (med ra) (med rb) in
          if c <> 0 then c
          else begin
            let c = Bool.compare sb.Route.ebgp sa.Route.ebgp in
            if c <> 0 then c
            else begin
              let c = Int.compare sa.Route.peer_addr sb.Route.peer_addr in
              if c <> 0 then c
              else Int.compare sa.Route.peer_bgp_id sb.Route.peer_bgp_id
            end
          end
        end
      end
    end
  end

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
  Hashtbl.fold
    (fun _ p acc ->
      match Cow.find_opt p.rin prefix with
      | Some r -> (r, src_of_peer t p) :: acc
      | None -> acc)
    t.peers from_static

let decide t prefix =
  match List.sort qcompare (candidates t prefix) with
  | (route, src) :: _ -> Some { Rib.Loc.route; src }
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Export path — same BGP semantics as any conformant speaker: split   *)
(* horizon, NO_EXPORT/NO_ADVERTISE, eBGP prepend + next-hop-self +     *)
(* attribute strip, dedup against the Adj-RIB-Out.                     *)
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

let export_to ?(ctx = Engine.null ()) t (dst : peer_st) prefix best =
  if not dst.up then []
  else begin
    let previously = Cow.find_opt dst.rout prefix in
    let advert =
      match best with
      | None -> None
      | Some { Rib.Loc.route; src } ->
        if export_blocked dst t.cfg.Config_types.local_as route src then None
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
      Cow.replace dst.rout prefix r;
      [ ( dst.pcfg.Config_types.neighbor,
          Msg.Update { withdrawn = []; attrs = Route.to_attrs r; nlri = [ prefix ] } );
      ]
    | Some _, None ->
      Cow.remove dst.rout prefix;
      [ ( dst.pcfg.Config_types.neighbor,
          Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] } );
      ]
  end

let export_all ?ctx t prefix best =
  Hashtbl.fold (fun _ dst acc -> acc @ export_to ?ctx t dst prefix best) t.peers []

let reconsider ?ctx t prefix =
  let old_best = Cow.find_opt t.main prefix in
  let new_best = decide t prefix in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a.Rib.Loc.route b.Rib.Loc.route && a.src = b.src)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    (match new_best with
    | Some e -> Cow.replace t.main prefix e
    | None -> Cow.remove t.main prefix);
    export_all ?ctx t prefix new_best
  end
  else []

(* ------------------------------------------------------------------ *)
(* Sessions: administratively established, no FSM.                     *)
(* ------------------------------------------------------------------ *)

let establish t ~peer =
  let p = peer_exn t peer in
  if not p.up then begin
    p.up <- true;
    (* Prime the Adj-RIB-Out as an initial exchange would; the messages
       themselves are the session-establishment traffic the core never
       forwards, so they are not returned. *)
    Seq.iter
      (fun (prefix, entry) -> ignore (export_to t p prefix (Some entry)))
      (Cow.to_seq t.main)
  end

let session_clear ?ctx t (p : peer_st) =
  let prefixes = Seq.fold_left (fun acc (prefix, _) -> prefix :: acc) [] (Cow.to_seq p.rin) in
  p.up <- false;
  Cow.reset p.rin;
  Cow.reset p.rout;
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
      previous_best = Cow.find_opt t.main (Croute.prefix_of croute);
      outputs = [];
    }
  in
  if Asn.Path.contains croute.Croute.as_path t.cfg.Config_types.local_as then rejected ()
  else begin
    match
      Filter_interp.run_policy ctx
        ~source_as:p.pcfg.Config_types.remote_as
        ~local_as:t.cfg.Config_types.local_as
        p.pcfg.Config_types.import_policy croute
    with
    | Filter_interp.Rejected -> rejected ()
    | Filter_interp.Accepted cr ->
      let cr =
        if cr.Croute.has_local_pref then cr
        else Croute.with_local_pref cr (Cval.concrete ~width:32 100L)
      in
      let prefix, route = Croute.to_route cr in
      (* No concolic pre-decision here: past the shared policy
         interpreter the pipeline runs concretely, as in a federated
         peer DiCE cannot instrument. *)
      let previous_best = Cow.find_opt t.main prefix in
      Cow.replace p.rin prefix route;
      let outputs = reconsider ~ctx t prefix in
      let installed =
        match Cow.find_opt t.main prefix with
        | Some e -> e.Rib.Loc.src.Route.peer_addr = peer && Route.equal e.Rib.Loc.route route
        | None -> false
      in
      { prefix; accepted = true; installed; route = Some route; previous_best; outputs }
  end

let process_update ~ctx t ~peer (u : Msg.update) =
  let p = peer_exn t peer in
  let outs = ref [] in
  let withdraw prefix =
    if Cow.mem p.rin prefix then begin
      Cow.remove p.rin prefix;
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

let table t =
  Seq.fold_left (fun acc (p, e) -> Rib.Loc.set p e acc) Rib.Loc.empty (Cow.to_seq t.main)

let best_route t prefix = Cow.find_opt t.main prefix

let learned_from t ~peer prefix =
  match Hashtbl.find_opt t.peers peer with
  | Some p -> Cow.mem p.rin prefix
  | None -> false

(* ------------------------------------------------------------------ *)
(* Checkpointing: an eager linear image. Layout ("QRTRSNP2" magic):    *)
(*   u32 updates                                                       *)
(*   u16 #peers, each (sorted by address):                             *)
(*     u32 address | u8 up | u32 #rin entries, each: prefix (u8 len,   *)
(*     u32 network) | u16 attr-bytes | encoded path attributes         *)
(*     | u32 #rout entries, same shape                                 *)
(*   u32 #main-table entries, each: prefix | attrs | u32 src address   *)
(*     | u32 src ASN | u32 src router id | u8 ebgp                     *)
(* All entries are sorted by prefix, so equal states give equal bytes. *)
(* ------------------------------------------------------------------ *)

let magic = "QRTRSNP2"

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
  | Error e -> invalid_arg ("Qrouter.restore: bad attributes: " ^ Attr.error_to_string e)
  | Ok attrs -> begin
    match Route.of_attrs attrs with
    | Error e -> invalid_arg ("Qrouter.restore: bad route: " ^ Attr.error_to_string e)
    | Ok route -> route
  end

let sorted_entries seq = List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq seq)

let snapshot t =
  let b = Wbuf.create ~capacity:1024 () in
  Wbuf.string b magic;
  Wbuf.u32 b t.updates;
  let peers = sorted_entries (Hashtbl.to_seq t.peers) in
  Wbuf.u16 b (List.length peers);
  List.iter
    (fun (addr, p) ->
      Wbuf.u32 b addr;
      Wbuf.u8 b (if p.up then 1 else 0);
      let put_adj tbl =
        let entries = sorted_entries (Cow.to_seq tbl) in
        Wbuf.u32 b (List.length entries);
        List.iter
          (fun (prefix, route) ->
            put_prefix b prefix;
            put_route b route)
          entries
      in
      put_adj p.rin;
      put_adj p.rout)
    peers;
  let entries = sorted_entries (Cow.to_seq t.main) in
  Wbuf.u32 b (List.length entries);
  List.iter
    (fun (prefix, (e : Rib.Loc.entry)) ->
      put_prefix b prefix;
      put_route b e.Rib.Loc.route;
      Wbuf.u32 b e.Rib.Loc.src.Route.peer_addr;
      Wbuf.u32 b e.Rib.Loc.src.Route.peer_asn;
      Wbuf.u32 b e.Rib.Loc.src.Route.peer_bgp_id;
      Wbuf.u8 b (if e.Rib.Loc.src.Route.ebgp then 1 else 0))
    entries;
  Wbuf.contents b

let restore cfg image =
  try
    let r = Rbuf.of_bytes image in
    let m = Bytes.to_string (Rbuf.take ~what:"magic" r 8) in
    if m <> magic then invalid_arg "Qrouter.restore: not a Qrouter image";
    let t = create cfg in
    Cow.reset t.main;
    t.updates <- Rbuf.u32 ~what:"updates" r;
    let n_peers = Rbuf.u16 ~what:"peer count" r in
    for _ = 1 to n_peers do
      let addr = Rbuf.u32 ~what:"peer address" r in
      let p =
        match Hashtbl.find_opt t.peers addr with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Qrouter.restore: image peer %s absent from config"
               (Ipv4.to_string addr))
      in
      p.up <- Rbuf.u8 ~what:"session flag" r = 1;
      let get_adj tbl =
        let n = Rbuf.u32 ~what:"adj entry count" r in
        for _ = 1 to n do
          let prefix = get_prefix r in
          Cow.replace tbl prefix (get_route r)
        done
      in
      get_adj p.rin;
      get_adj p.rout
    done;
    let n_main = Rbuf.u32 ~what:"table entry count" r in
    for _ = 1 to n_main do
      let prefix = get_prefix r in
      let route = get_route r in
      let peer_addr = Rbuf.u32 ~what:"src address" r in
      let peer_asn = Rbuf.u32 ~what:"src asn" r in
      let peer_bgp_id = Rbuf.u32 ~what:"src router id" r in
      let ebgp = Rbuf.u8 ~what:"src ebgp flag" r = 1 in
      Cow.replace t.main prefix
        { Rib.Loc.route; src = { Route.peer_addr; peer_asn; peer_bgp_id; ebgp } }
    done;
    t
  with Rbuf.Truncated what -> invalid_arg ("Qrouter.restore: truncated image: " ^ what)

(* An independent in-process copy. Zebra-style state is mutable hash
   tables, so — true to the heterogeneity — nothing is persistent; the
   tables are copy-on-write instead, so a clone costs O(#peers +
   overlay) and its memory is its write set. *)
let clone t =
  let peers = Hashtbl.create (Hashtbl.length t.peers) in
  Seq.iter
    (fun (addr, p) ->
      Hashtbl.replace peers addr
        { pcfg = p.pcfg; up = p.up; rin = Cow.clone p.rin; rout = Cow.clone p.rout })
    (Hashtbl.to_seq t.peers);
  { cfg = t.cfg; peers; main = Cow.clone t.main; statics = t.statics; updates = t.updates }
