(** A compact Quagga-flavored BGP speaker — the deliberately heterogeneous
    second implementation behind the core's SPEAKER interface.

    The paper's evaluation federates BIRD with Cisco- and XORP-style
    peers; DiCE never instruments those, it only probes them through the
    narrow interface. [Qrouter] plays that role in this reproduction. It
    shares the wire vocabulary with [Dice_bgp] ([Msg], [Route], the
    policy interpreter) — as real implementations share the BGP RFCs —
    but is a different program:

    {b Different RIB layout.} Hash tables keyed by prefix for the
    per-peer RIBs and one flat hash table for the main table, in the
    Zebra tradition of per-prefix [bgp_node] buckets — not the
    persistent maps and stable-slot tries of [Dice_bgp.Router]. The
    [loc_rib] view required by SPEAKER is materialized on demand, O(n).
    The tables are copy-on-write (see {!clone}), so explorer and probe
    clones cost their write set, not the table.

    {b Different decision tie-breaking order.} After local preference
    and local origination, Qrouter compares {e ORIGIN before AS-path
    length}, and breaks final ties on {e peer address before router
    id} — both swapped relative to [Dice_bgp.Decision]. Its MED quirks
    also differ: MED is always comparable across neighbor ASes and a
    missing MED ranks {e worst}, where BIRD defaults to same-AS-only
    comparison with missing-as-best. Identical inputs can therefore
    yield different best routes — exactly the cross-implementation
    divergence class the differential checker exists to surface.

    {b Own config quirks.} Sessions are administratively established
    ([establish] flips them up and primes the initial advertisement;
    there is no FSM) — OPEN and KEEPALIVE are accepted and ignored, a
    NOTIFICATION administratively clears the session. The import
    pipeline is not concolically instrumented beyond the shared policy
    interpreter: the decision process runs concretely, as it would in a
    closed-source federated peer. *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type t

val create : Config_types.t -> t
(** Static routes enter the main table immediately, as locally
    originated (they win every tie-break against learned routes). *)

val config : t -> Config_types.t
val local_as : t -> int

(* ------------------------------------------------------------------ *)
(* Sessions *)

val establish : t -> peer:Ipv4.t -> unit
(** Administratively bring the session with [peer] up and advertise the
    current table to it (priming the Adj-RIB-Out; the advertisement
    itself is not returned — the session is assumed synchronized, as
    after a real initial exchange). Idempotent.
    @raise Invalid_argument if [peer] is not configured. *)

val session_up : t -> peer:Ipv4.t -> bool

val feed : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list
(** Process one received message; returns the UPDATEs Qrouter would send
    in response. UPDATE on a down session is ignored; OPEN and KEEPALIVE
    are ignored; NOTIFICATION clears the session (withdrawing its routes
    from other peers). *)

(* ------------------------------------------------------------------ *)
(* Import path *)

type import_outcome = {
  prefix : Prefix.t;
  accepted : bool;
  installed : bool;
  route : Route.t option;
  previous_best : Rib.Loc.entry option;
  outputs : (Ipv4.t * Msg.t) list;
}
(** Structurally the same record as [Dice_core.Speaker.import_outcome];
    spelled out here because this library sits {e below} the core (the
    adapter in the core's speaker registry converts field by field). *)

val import_concolic : ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> import_outcome
(** One announcement through loop check, import policy (the shared,
    recording interpreter) and the concrete Quagga decision process. *)

(* ------------------------------------------------------------------ *)
(* State views *)

val table : t -> Rib.Loc.t
(** The main table as the shared view type, materialized on demand. *)

val best_route : t -> Prefix.t -> Rib.Loc.entry option
val learned_from : t -> peer:Ipv4.t -> Prefix.t -> bool
val updates_processed : t -> int

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

val snapshot : t -> bytes
(** Serialize sessions, per-peer RIBs and the main table. Qrouter's own
    linear format ([QRTRSNP2]: 32-bit entry counts) — not
    interchangeable with [Dice_bgp.Router] images. *)

val restore : Config_types.t -> bytes -> t
(** @raise Invalid_argument on a corrupt or alien image, or one
    mentioning peers absent from [cfg]. *)

val clone : t -> t
(** An independent in-process copy of the live router — no
    serialization, unlike {!snapshot} + {!restore}. Quagga-style state
    is mutable hash tables, and they are copy-on-write: the clone shares
    each table with its source and marks it frozen (an [Atomic] flag, so
    several domains may clone one router at once); nobody writes a
    frozen table again. Each holder keeps its later writes in its own
    overlay — the latest write per prefix, beside the ordered log of all
    of them — which a clone copies, so cloning costs O(#peers + overlay).
    A router never cloned writes its tables in place. An overlay that
    outgrows its table is folded into a private copy, so writes cost
    amortized O(1). Iteration replays the log onto a copy of the frozen
    table: it visits entries in the order an eagerly copied table would,
    so a clone emits exactly the messages its source would, in the same
    order. Reads never write a shared table. *)
