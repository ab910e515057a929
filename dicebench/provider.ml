(* The paper's provider router (Figure 2, §4.1–4.2), as any speaker
   implementation: the Threerouter provider configuration with the
   partially-correct customer filter, both sessions established, the
   customer's own space announced, and a RouteViews-style table loaded
   from the internet peer. *)

open Dice_inet
open Dice_bgp
open Dice_core
module Threerouter = Dice_topology.Threerouter
module Spec = Dice_topology.Topology.Spec

let spec = Threerouter.spec Threerouter.Partially_correct
let customer_addr = Spec.address spec ~of_:"customer" ~toward:"provider"
let internet_addr = Spec.address spec ~of_:"internet" ~toward:"provider"

(* The block whose filter is too loose (198.0.0.0/8{8,28}), and all the
   space the customer filter admits: every leakable range must lie in
   the latter, and some must lie in the former outside the customer's
   own space. *)
let misfiltered_block = Prefix.of_string "198.0.0.0/8"
let filter_space = [ Prefix.of_string "203.0.113.0/24"; misfiltered_block ]

let customer_route =
  Route.make ~origin:Attr.Igp
    ~as_path:[ Asn.Path.Seq [ Threerouter.customer_as ] ]
    ~next_hop:customer_addr ()

let customer_updates =
  List.map
    (fun prefix ->
      Msg.Update { Msg.withdrawn = []; attrs = Route.to_attrs customer_route; nlri = [ prefix ] })
    Threerouter.customer_prefixes

let table ~seed ~n_prefixes ~tail =
  Dice_trace.Gen.generate
    { Dice_trace.Gen.default_params with
      Dice_trace.Gen.seed;
      n_prefixes;
      collector_as = Threerouter.internet_as;
      duration = (if tail > 0 then 900.0 else 0.0);
      update_rate = float_of_int (max 1 tail) /. 900.0;
    }

(* A fresh provider of implementation [impl], sessions up and the
   customer's space announced; [wrap] may repack it (tracing). *)
let create ?(wrap = Fun.id) impl =
  let sp =
    wrap
      (Speakers.create_exn impl
         (Speaker.Config (Threerouter.provider_config Threerouter.Partially_correct)))
  in
  Speaker.establish sp ~peer:customer_addr;
  Speaker.establish sp ~peer:internet_addr;
  List.iter (fun m -> ignore (Speaker.feed sp ~peer:customer_addr m)) customer_updates;
  sp

let dump_updates (trace : Dice_trace.Gen.t) =
  Dice_trace.Gen.to_updates trace ~peer_as:Threerouter.internet_as ~next_hop:internet_addr

let event_update ev = Dice_trace.Gen.event_update ~entry_next_hop:internet_addr ev
