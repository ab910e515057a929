(** The SPEAKER abstraction: what the DiCE core requires of a BGP
    implementation — and nothing more.

    The paper's evaluation federates BIRD with Cisco- and XORP-style
    peers that DiCE never instruments; it only probes them through the
    narrow interface (§2.4). For the core to support that heterogeneity,
    no checker, orchestrator, or transport may depend on one
    implementation's internals — the same discipline as MODIST-style
    transparent interposition, where the testing layer sees an interface,
    never a daemon. {!S} is that interface:

    - {b realize a configuration}: every implementation interprets {e its
      own} dialect. A {!source} is what the operator supplied — a
      dialect-neutral {!Dice_bgp.Intent.t}, or an already-concrete
      {!Dice_bgp.Config_types.t} — and a {!realization} is that source
      pushed through the implementation's {!Dice_bgp.Dialect.S}
      translator: the rendered dialect text plus the configuration the
      implementation actually runs, quirks included. {!S.create} and
      {!S.restore} take the realization, so cloning and shadow-building
      never re-render on the hot path;
    - {b feed an update}: {!S.feed} processes one BGP message on a
      session and returns the messages the speaker would transmit —
      outputs are [(peer, message)] pairs, because messages are all the
      core ever forwards, intercepts, or counts; timers, socket
      operations and session transitions are implementation business;
    - {b snapshot / clone live state}: {!S.freeze} checkpoints the
      speaker instantly and returns a serialization thunk (run off the
      live node's critical path), {!S.snapshot} is the eager form, and
      {!S.restore} rebuilds an equivalent speaker — how checkpointed
      probing clones a cooperating node without touching it. The byte
      format is the implementation's own; the core treats it as opaque;
    - {b report per-prefix verdicts}: {!S.loc_rib}, {!S.best_route} and
      {!S.learned_from} expose exactly the read-only views the probe
      path needs to compute origin/best-route {!Verdict.t}s;
    - {b an update-version counter}: {!S.updates_processed} stamps
      verdict-cache entries ({!Dice_exec.Vcache}); when the live speaker
      processes an update, cached verdicts self-evict.

    An {!instance} packs a speaker module with its realization and a
    value of its state type (a first-class existential), so agents,
    orchestrators and fleets can mix implementations freely —
    [Distributed.Local] holds an instance, not a [Router.t]. The only
    module allowed to name a concrete implementation is the {!Speakers}
    registry. *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type import_outcome = {
  prefix : Prefix.t;  (** concretized NLRI of the explored announcement *)
  accepted : bool;  (** survived loop check and import policy *)
  installed : bool;  (** won the decision process and entered the table *)
  route : Route.t option;  (** the concretized imported route, if accepted *)
  previous_best : Rib.Loc.entry option;
      (** the best-route entry for [prefix] before this import *)
  outputs : (Ipv4.t * Msg.t) list;
      (** export traffic this import would generate, per destination
          session — the implementation-neutral projection of whatever
          effect type the speaker uses internally *)
}
(** What one explored import did — the value every fault checker is
    written against ({!Checker.t}). *)

(** What the operator supplied. *)
type source =
  | Config of Config_types.t
      (** already concrete — bypasses translation (the pre-intent
          construction path, and what replayed artifacts from config
          text use) *)
  | Intent of Intent.t
      (** dialect-neutral intent — each implementation realizes it
          through its own translator *)

type realization = {
  source : source;
  dialect : string;  (** the translator's {!Dialect.S.name} *)
  rendered : string option;
      (** the dialect text, when the source was an intent; [None] when
          the source was already concrete *)
  config : Config_types.t;
      (** what the implementation actually runs — for an intent source
          this went through render {e and} parse, so the dialect's
          documented quirks are baked in *)
}
(** A source pushed through one implementation's dialect. Computed once
    at creation; {!restore_like} and the probe path reuse it verbatim,
    so the render/parse cost never lands on the exploration hot path. *)

val realize : (module Dialect.S) -> source -> realization
(** @raise Config_parser.Parse_error if the dialect mis-parses its own
    rendering — a translator bug worth failing loudly on. *)

(** The SPEAKER signature. *)
module type S = sig
  type t

  val id : string
  (** Implementation name ([bird], [quagga], ...) — what
      [detect-leaks --speaker] selects and fault reports cite. *)

  val dialect : (module Dialect.S)
  (** The implementation's configuration dialect — how this speaker
      family spells (and misreads) operator intent. *)

  val create : realization -> t
  (** Build a speaker from a realized configuration. An implementation
      is free to interpret knobs its own way (its "config quirks") but
      must honor the peer set and policies of [realization.config]. *)

  val establish : t -> peer:Ipv4.t -> unit
  (** Drive the session with [peer] to Established, including the
      initial table advertisement — by whatever mechanism the
      implementation uses (a full FSM handshake, an administrative
      flip). @raise Invalid_argument if [peer] is not configured. *)

  val feed : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list
  (** Process one received message on the session with [peer]; returns
      the messages the speaker would send in response. [ctx] defaults to
      a null (non-recording) context. *)

  val import_concolic : ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> import_outcome
  (** Run one (symbolized) announcement through the full import path,
      recording path constraints via [ctx]. Mutates this speaker; during
      exploration, call it on a clone, never on the live instance.
      Implementations differ in how deeply their pipeline is
      instrumented — the shared policy interpreter always records; a
      foreign decision process may run concretely, exactly as DiCE
      cannot instrument a closed-source peer. @raise Invalid_argument if
      [peer] is not configured. *)

  val loc_rib : t -> Rib.Loc.t
  (** The selected best routes, as the shared view type — a {e view}:
      implementations with other internal layouts materialize it on
      demand, in O(table). The probe path builds it once per
      {!updates_processed} version, not once per probe. *)

  val best_route : t -> Prefix.t -> Rib.Loc.entry option

  val learned_from : t -> peer:Ipv4.t -> Prefix.t -> bool
  (** Whether [prefix] currently sits in the Adj-RIB-In (or equivalent)
      of the session with [peer] — the probe path's acceptance test. *)

  val updates_processed : t -> int
  (** Monotone update-version counter: must advance whenever processing
      a message may have changed answerable state. Verdict caches key
      their entries on it. *)

  val freeze : t -> unit -> bytes
  (** Checkpoint now, serialize later: the returned thunk produces the
      state as of the [freeze] call, whatever the live speaker does in
      between. Implementations with persistent structures freeze in
      O(#peers); others may serialize eagerly and return a constant
      thunk. *)

  val snapshot : t -> bytes
  (** [freeze t ()] — checkpoint and serialize in one step. *)

  val restore : realization -> bytes -> t
  (** Rebuild a speaker from a snapshot taken of a speaker {e of the
      same implementation} with the same peer set. The realization is
      reused as-is — no re-translation. @raise Invalid_argument on a
      corrupt or alien image. *)

  val clone : t -> t
  (** An independent in-process copy of the live speaker, sharing as
      much storage as the implementation's data structures allow —
      implementations backed by persistent structures (tries, balanced
      maps) share all route storage and copy only mutable cells
      (O(#peers)); mutable-table implementations share their tables
      copy-on-write (O(#peers) plus the writes not yet folded back).
      Either way there is no serialization: this is the explorer-clone
      path, where per-clone memory should be the write set, not the
      table. Feeding the clone must never affect the original, and
      cloning never changes what its argument observably does — its
      outputs, views and snapshots stay what they would have been.
      Cloning may mark storage it now shares, so that the argument's
      later writes go elsewhere, but only in a domain-safe way: the
      explorer and the probe path clone one speaker from several
      domains at once. *)
end

type instance = Inst : (module S with type t = 'a) * realization * 'a -> instance
(** A speaker module packed with its realization and state: the value
    the core passes around. Two instances of different implementations
    are the same type — which is the whole point. *)

val pack : (module S with type t = 'a) -> realization -> 'a -> instance

val create : (module S with type t = 'a) -> source -> instance
(** Realize [source] through the implementation's dialect and build the
    speaker — the one-step construction path. *)

(** {1 Instance operations}

    Each simply unpacks and delegates; they exist so call sites read as
    method calls instead of existential matches. *)

val id : instance -> string
val dialect : instance -> (module Dialect.S)
val realization : instance -> realization
val source : instance -> source

val config : instance -> Config_types.t
(** [(realization inst).config] — the configuration the implementation
    actually runs. *)

val intent : instance -> Intent.t option
(** The operator intent this speaker was realized from, if it was built
    from one ([None] for the concrete-config path). *)

val rendered : instance -> string option
(** The dialect text the intent rendered to, if any. *)

val establish : instance -> peer:Ipv4.t -> unit
val feed : ?ctx:Engine.ctx -> instance -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list

val import_concolic :
  ctx:Engine.ctx -> instance -> peer:Ipv4.t -> Croute.t -> import_outcome

val loc_rib : instance -> Rib.Loc.t
val best_route : instance -> Prefix.t -> Rib.Loc.entry option
val learned_from : instance -> peer:Ipv4.t -> Prefix.t -> bool
val updates_processed : instance -> int
val freeze : instance -> unit -> bytes
val snapshot : instance -> bytes

val clone : instance -> instance
(** {!S.clone} under the same module and realization — how a probe or an
    explorer run takes a disposable copy of a speaker without paying for
    a snapshot round-trip. *)

val restore_like : instance -> realization -> bytes -> instance
(** [restore_like inst real image] rebuilds from [image] with the {e
    same implementation} as [inst] — how recovery rebuilds a crashed
    agent (pass [realization inst] unchanged; nothing is re-rendered),
    and how validation builds a shadow speaker under a proposed
    realization, without either naming an implementation. The explorer
    does not restore: its one base per exploration is a {!clone} of the
    live speaker taken right after the checkpoint is serialized. *)

val rerealize : instance -> source -> realization
(** Push a {e new} source through this instance's dialect — what
    validation uses to realize a proposed configuration exactly as the
    live speaker's implementation would read it. *)
