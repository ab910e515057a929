(* Workload [live]: the paper's live-path update throughput (§4.1).

   Set-up loads a 319,355-prefix RouteViews-style table into a fresh
   provider of each speaker (bird, quagga, xorp); set-up time is the sum
   of the three loads, each timed in segments with the host calibrated
   between them. The run then feeds a seeded churn tail — announcements,
   path changes and withdrawals — as wire bytes through Msg.decode ->
   Speaker.feed -> Msg.encode of every output, closed loop, one update
   at a time, in chunks the speakers take turns on. No clone or restore
   happens here: codec, filter, decision and RIB do the work. *)

open Dice_bgp
open Dice_core
open Common

let impls = Speakers.names

(* table prefixes, tail updates, chunk size; the tail takes about twice
   [seconds] on a 2-core machine: the more host phases a run spans, the
   steadier its median *)
let sizes o = if o.small then (2_000, 3_000, 500) else (319_355, 30_000 * o.seconds, 2_500)

(* table updates per set-up segment *)
let segment = 16_000

type tally = {
  mutable fed : int;
  mutable outputs : int;
  mutable decode_errors : int;
  mutable notifications : int;
}

let tally () = { fed = 0; outputs = 0; decode_errors = 0; notifications = 0 }

(* One update, closed loop: decode the wire bytes, feed the speaker,
   encode every output. *)
let process sp ~alloc_counter st bytes =
  match Span.time "msg.decode" (fun () -> Msg.decode bytes) with
  | Error _ -> st.decode_errors <- st.decode_errors + 1
  | Ok msg ->
    let w0 = Gc.minor_words () in
    let outs = Speaker.feed sp ~peer:Provider.internet_addr msg in
    if Span.enabled () then Span.add alloc_counter (int_of_float (Gc.minor_words () -. w0));
    st.fed <- st.fed + 1;
    List.iter
      (fun (_, out) ->
        st.outputs <- st.outputs + 1;
        (match out with
        | Msg.Notification _ -> st.notifications <- st.notifications + 1
        | Msg.Open _ | Msg.Update _ | Msg.Keepalive -> ());
        ignore (Span.time "msg.encode" (fun () -> Msg.encode out)))
      outs

(* One speaker's run: its set-up processor time, its wall-clock rate
   over the tail, and each chunk's rate per processor second. *)
type speaker_run = {
  impl : string;
  setup : float;
  rate : float;
  cpu_rates : float list;
  tally : tally;
  digest : int * int;
  layers : (string * float) list;
}

let alloc_counter impl = Printf.sprintf "speaker.%s.alloc_words" impl

(* The expected Loc-RIB after the tail, as (prefix, source peer): every
   table prefix the internet peer still announces, plus the customer's
   own space (local-pref 120 beats any internet route for it). *)
let model_digest (trace : Dice_trace.Gen.t) =
  let rib = Hashtbl.create (2 * Array.length trace.Dice_trace.Gen.dump) in
  Array.iter
    (fun (e : Dice_trace.Gen.entry) -> Hashtbl.replace rib e.prefix Provider.internet_addr)
    trace.dump;
  Array.iter
    (function
      | Dice_trace.Gen.Announce { entry; _ } ->
        Hashtbl.replace rib entry.prefix Provider.internet_addr
      | Dice_trace.Gen.Withdraw { prefix; _ } -> Hashtbl.remove rib prefix)
    trace.events;
  List.iter
    (fun p -> Hashtbl.replace rib p Provider.customer_addr)
    Provider.Threerouter.customer_prefixes;
  let pairs = Hashtbl.fold (fun p peer acc -> (p, peer) :: acc) rib [] in
  (List.length pairs, digest_of_pairs pairs)

(* Component replay of the tail's announcements through BIRD's own
   import path pieces: the internet session's import policy, the
   decision process against the incumbent, and the Loc-RIB insert. *)
let component_replay bird (trace : Dice_trace.Gen.t) =
  let cfg = Speaker.config bird in
  let policy =
    match Config_types.find_peer cfg Provider.internet_addr with
    | Some p -> p.Config_types.import_policy
    | None -> invalid_arg "live: provider has no internet session"
  in
  let local_as = cfg.Config_types.local_as in
  let source_as = Provider.Threerouter.internet_as in
  let src =
    { Route.peer_addr = Provider.internet_addr; peer_asn = source_as;
      peer_bgp_id = Provider.internet_addr; ebgp = true }
  in
  let ctx = Dice_concolic.Engine.null () in
  let loc = ref (Speaker.loc_rib bird) in
  Array.iter
    (function
      | Dice_trace.Gen.Withdraw _ -> ()
      | Dice_trace.Gen.Announce { entry; _ } -> begin
        match Msg.decode (Msg.encode (Provider.event_update (Dice_trace.Gen.Announce { time = 0.0; entry }))) with
        | Ok (Msg.Update { attrs; nlri = [ prefix ]; _ }) -> begin
          match Route.of_attrs attrs with
          | Error _ -> ()
          | Ok route -> begin
            let cr = Croute.of_route prefix route in
            match
              Span.time "filter_interp.import" (fun () ->
                  Filter_interp.run_policy ctx ~source_as ~local_as policy cr)
            with
            | Filter_interp.Rejected -> ()
            | Filter_interp.Accepted cr ->
              let _, route = Croute.to_route cr in
              let incumbent =
                match Rib.Loc.find_opt prefix !loc with
                | Some e when e.Rib.Loc.src <> src -> [ (e.Rib.Loc.route, e.Rib.Loc.src) ]
                | Some _ | None -> []
              in
              let best =
                Span.time "decision.best" (fun () -> Decision.best ((route, src) :: incumbent))
              in
              Option.iter
                (fun (route, src) ->
                  loc := Span.time "rib.loc_set" (fun () -> Rib.Loc.set prefix { Rib.Loc.route; src } !loc))
                best
          end
        end
        | Ok _ | Error _ -> ()
      end)
    trace.events

let run o =
  let n_prefixes, tail, chunk = sizes o in
  let trace = Provider.table ~seed:o.seed ~n_prefixes ~tail in
  let dump = Array.of_list (List.map (fun m -> Msg.encode m) (Provider.dump_updates trace)) in
  let events = Array.map (fun ev -> Msg.encode (Provider.event_update ev)) trace.events in
  let expected = model_digest trace in
  let wrap = if Span.enabled () then Timed.instance else Fun.id in
  let n_events = Array.length events in
  let n_chunks = (n_events + chunk - 1) / chunk in
  let setup_host = Host.create () and run_host = Host.create () in
  let set_up impl =
    Gc.compact ();
    Span.quiet (fun () ->
        let st = tally () in
        Host.calibrate setup_host;
        let sp, c = clocked (fun () -> Provider.create ~wrap impl) in
        let cpu = ref c.cpu in
        for s = 0 to (Array.length dump - 1) / segment do
          Host.calibrate setup_host;
          let (), c =
            clocked (fun () ->
                for i = s * segment to min (Array.length dump) ((s + 1) * segment) - 1 do
                  process sp ~alloc_counter:(alloc_counter impl) st dump.(i)
                done)
          in
          cpu := !cpu +. c.cpu
        done;
        (sp, !cpu))
  in
  let speakers = List.map (fun impl -> (impl, set_up impl)) impls in
  Gc.compact ();
  (* the speakers take turns chunk by chunk, so each one's chunks spread
     over the whole run *)
  let lanes =
    List.map (fun (impl, (sp, setup)) -> (impl, sp, setup, tally (), ref 0.0, ref [])) speakers
  in
  for c = 0 to n_chunks - 1 do
    let lo = c * chunk and hi = min n_events ((c + 1) * chunk) in
    Host.calibrate run_host;
    List.iter
      (fun (impl, sp, _, st, wall, cpu_rates) ->
        let alloc_counter = alloc_counter impl in
        let (), c =
          clocked (fun () ->
              for i = lo to hi - 1 do
                process sp ~alloc_counter st events.(i)
              done)
        in
        wall := !wall +. c.wall;
        cpu_rates := (float_of_int (hi - lo) /. c.cpu) :: !cpu_rates)
      lanes
  done;
  let finish (impl, sp, setup, st, wall, cpu_rates) =
    let layers =
      if not (Span.enabled ()) then []
      else begin
        let s op = Printf.sprintf "speaker.%s.%s" impl op in
        [ (s "feed_ns_p50", Span.percentile_ns (s "feed") 0.5);
          (s "feed_ns_p99", Span.percentile_ns (s "feed") 0.99);
          (s "alloc_words_per_update", fratio (Span.counter (alloc_counter impl)) st.fed);
          (s "outputs_per_update", fratio st.outputs st.fed) ]
        @ (if impl <> "bird" then []
           else begin
             let codec =
               [ ("msg.decode_ns", Span.mean_ns "msg.decode");
                 ("msg.encode_ns", Span.mean_ns "msg.encode") ]
             in
             component_replay sp trace;
             codec
             @ [ ("filter_interp.import_ns", Span.mean_ns "filter_interp.import");
                 ("decision.best_ns", Span.mean_ns "decision.best");
                 ("rib.loc_set_ns", Span.mean_ns "rib.loc_set") ]
           end)
      end
    in
    { impl;
      setup;
      rate = float_of_int n_events /. !wall;
      cpu_rates = !cpu_rates;
      tally = st;
      digest = loc_rib_digest (Speaker.loc_rib sp);
      layers }
  in
  let per = List.map finish lanes in
  let digests = List.map (fun r -> (r.impl, r.digest)) per in
  let agree = List.for_all (fun r -> r.digest = (List.hd per).digest) per in
  let matches_model = List.for_all (fun r -> r.digest = expected) per in
  let st_sum f = List.fold_left (fun acc r -> acc + f r.tally) 0 per in
  let failed = st_sum (fun st -> st.decode_errors + st.notifications) in
  let entries = fst (List.hd per).digest in
  Printf.printf "live: %d-prefix table, %d-update tail in %d chunks, %d Loc-RIB entries\n"
    n_prefixes n_events n_chunks entries;
  {
    checks = [ ("loc_rib_digests_agree", agree); ("loc_rib_matches_model", matches_model) ];
    attempted = List.length impls * n_events;
    failed;
    setup_s = List.fold_left (fun acc r -> acc +. r.setup) 0.0 per /. Host.slowdown setup_host;
    throughput_per_cpu_s =
      geomean (List.map (fun r -> median r.cpu_rates) per) *. Host.slowdown run_host;
    named =
      List.map (fun r -> (Printf.sprintf "live.%s.updates_per_s" r.impl, r.rate, "1/s")) per;
    slowdown = (Host.slowdown setup_host, Host.slowdown run_host);
    work =
      [ ("table_prefixes", n_prefixes); ("updates_fed_per_speaker", n_events);
        ("speakers", List.length impls); ("loc_rib_entries", entries) ];
    layers = List.concat_map (fun r -> r.layers) per;
    fingerprint =
      String.concat ";"
        (List.map (fun (impl, (n, d)) -> Printf.sprintf "%s=%d/%d" impl n d) digests
        @ [ Printf.sprintf "outputs=%d" (st_sum (fun st -> st.outputs));
            Printf.sprintf "failed=%d" failed ]);
  }
