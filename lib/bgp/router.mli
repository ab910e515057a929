(** The BGP routing daemon: sessions, RIBs, import/export policy and the
    decision process, behind an explicit-output interface.

    All side effects (messages to send, timers to arm) are returned as
    {!output} values, which keeps the daemon deterministic, testable, and
    — crucially for DiCE — {e checkpointable}: {!snapshot} serializes all
    dynamic state and {!restore} rebuilds an equivalent router, which is
    how exploration clones are created from the live process image.

    Update processing is written against the concolic value API; with the
    default null context it runs purely concretely ("virtually no
    overhead", paper §3.2), while exploration passes a recording context
    and a symbolized route. *)

open Dice_inet
open Dice_concolic

type t

type output =
  | To_peer of Ipv4.t * Msg.t  (** transmit on an (established) session *)
  | Connect_request of Ipv4.t  (** open the transport towards a neighbor *)
  | Close_connection of Ipv4.t
  | Set_timer of Ipv4.t * Fsm.timer * float  (** (re)arm, seconds from now *)
  | Clear_timer of Ipv4.t * Fsm.timer
  | Session_up of Ipv4.t
  | Session_down of Ipv4.t * string

val create : Config_types.t -> t
(** Build a router: static routes are installed in the Loc-RIB; sessions
    start in Idle. *)

val config : t -> Config_types.t
val local_as : t -> int
val router_id : t -> Ipv4.t

(** {1 Session driving} *)

val start : t -> output list
(** ManualStart every configured peer. *)

val handle_event : t -> peer:Ipv4.t -> Fsm.event -> output list
(** Feed one FSM event (transport up/down, timer expiry, ...). Unknown
    peers are ignored (empty output). *)

val handle_msg : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> output list
(** Feed a received BGP message; UPDATEs delivered by the FSM go through
    import policy, the decision process, and export. [ctx] defaults to a
    null (non-recording) context. *)

val handle_bytes : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> bytes -> output list
(** Decode and [handle_msg]; malformed messages produce the RFC-mandated
    NOTIFICATION and session teardown. *)

val peer_state : t -> Ipv4.t -> Fsm.state option
val established_peers : t -> Ipv4.t list

(** {1 RIB inspection} *)

val loc_rib : t -> Rib.Loc.t
val adj_rib_in : t -> Ipv4.t -> Rib.Adj.t option
val adj_rib_out : t -> Ipv4.t -> Rib.Adj.t option
val best_route : t -> Prefix.t -> Rib.Loc.entry option
val updates_processed : t -> int
(** UPDATE messages fully processed since creation (throughput metric). *)

(** {1 Concolic import (the exploration entry point)} *)

type import_outcome = {
  prefix : Prefix.t;  (** concretized NLRI of the explored announcement *)
  accepted : bool;  (** survived loop check and import policy *)
  installed : bool;  (** won the decision process and entered the Loc-RIB *)
  route : Route.t option;  (** the concretized imported route, if accepted *)
  previous_best : Rib.Loc.entry option;
      (** the Loc-RIB entry for [prefix] before this import *)
  outputs : output list;  (** export traffic this import would generate *)
}

val import_concolic :
  ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> import_outcome
(** Run one (symbolized) announcement through the full import path —
    loop detection, import filter, decision process, Loc-RIB update and
    export generation — recording path constraints via [ctx]. Mutates this
    router; during exploration, call it on a clone, never on the live
    instance. @raise Invalid_argument if [peer] is not configured. *)

(** {1 Checkpointing} *)

type image
(** A frozen, consistent view of the router's dynamic state. Taking one
    is O(#peers) — the RIBs are persistent tries, so holding references
    is the in-process equivalent of fork()'s copy-on-write. *)

val freeze : t -> image
(** Checkpoint instantly; the live router may keep mutating. *)

val serialize : image -> bytes
(** Serialize a frozen image deterministically (typically off the live
    node's critical path). The byte layout is slot-stable: unchanged
    entries occupy the same offsets across snapshots of the same
    router.

    Cost. A router holds a {e recorded image}, [None] until it is
    first serialized or restored (and shared by every {!clone} taken
    since): the tries it last serialized or restored, a base image (a
    private copy of the bytes it serialized to or was restored from),
    the payloads of the slots written since, and those of the overflow
    region. Serializing a router with a recorded image diffs its tries
    against the recorded ones, skipping physically shared subtrees,
    re-encodes only the entries added, removed or changed, and patches
    a copy of the base image (header, slots written since the base,
    overflow tail). That is one copy of the image plus O(writes since
    the base), instead of O(table) encoding. Once the slots written
    since the base are half of all slots, the patched image becomes the
    new base, so a router serialized again and again (the live one,
    once per exploration) keeps its record bounded. The bytes are those
    {!serialize_full} gives, provided a restored image came from
    [serialize]: the bytes of untouched entries are reused as they are.
    The first serialization, and one whose peer set or header room
    changed, takes the full path.

    Memory. A router that was serialized or restored keeps its base
    image for as long as it lives: 6.1 MB at 8,000 prefixes, and about
    [256] bytes per RIB entry in general (Loc-RIB plus every
    Adj-RIB-In/Out), so roughly 245 MB for a single-feed table of
    319,355 prefixes. A router that is never serialized (a probe-only
    agent, a fleet member) pays nothing. *)

val serialize_full : image -> bytes
(** [serialize], re-encoding every entry whether or not an image is
    recorded: O(table). The reference the incremental path is checked
    against; it updates the slot map and any recorded image the same
    way. *)

val snapshot : t -> bytes
(** [serialize (freeze t)]. *)

val restore : Config_types.t -> bytes -> t
(** Rebuild a router from a snapshot taken of a router with the same
    configuration, and record the image for incremental {!serialize}
    (the same record a first {!serialize} makes).
    @raise Invalid_argument on a corrupt image. *)

val clone : t -> t
(** An independent in-process copy sharing all RIB storage with the
    live router: the Loc-RIB, every Adj-RIB-In/Out and the static table
    are persistent tries, the snapshot slot map is a persistent map,
    and the recorded image (if any) is immutable, so the clone holds
    references — O(#peers), no serialization; the argument is only
    read, so clones of one router may be taken from several domains.
    Serializing the clone updates its own slot map and recorded image,
    so its snapshots keep the origin's slot layout and cost only what
    the clone wrote. Mutating either side copies only the touched path
    ({!Dice_inet.Prefix_trie} structural sharing); everything else
    stays physically shared. This is the explorer-clone path: memory
    per clone is the write set, not the table. *)
