(** Cross-network exploration (the paper's §2.4 extension), over a wire.

    Local exploration covers a single node's actions; their "far reaching
    consequences ... need to be observed from a system-wide perspective"
    (§2.1). The paper envisions letting exploration messages flow to
    other administrative domains "in a way that doesn't affect the live
    system", while confidentiality demands that "nodes only communicate
    state information through a narrow interface yet capable to allow us
    to detect faults" (§2.4).

    Here the narrow interface is a {e protocol}, not a convention:

    - {!Probe_wire} defines the only data that ever crosses a domain
      boundary — length-framed probe requests (claimed arrival session +
      encoded message) and responses (per-prefix {!verdict}s, declines,
      errors);
    - an {!agent} represents a cooperating remote node behind a
      {!transport}: [Local] (the remote's live router in this process —
      tests, benches, co-located domains) or [Remote] (a
      {!Probe_rpc.endpoint} reaching a node on a {!Dice_sim.Network}).
      {!probe}, {!probe_all} and {!checker} are transport-agnostic: the
      same exploration drives either;
    - in [Remote] mode, probes ride simulated links and inherit their
      latency and failures. Each request gets a virtual-time timeout,
      bounded retries with exponential backoff, and a bounded in-flight
      window ({!Probe_rpc.config}); a cut or slow link degrades the
      probe to a {!Timeout} {!outcome} instead of hanging or aborting
      exploration;
    - whatever the transport, the agent answering a probe checkpoints its
      own live router, processes the message on an isolated clone, and
      reveals only the verdict — no RIB contents, no filters, no origin
      data. Repeated probes of the same canonical request (the
      {!Probe_wire.canonical_request} bytes — the cache and the wire
      share one canonicalization) answer from a version-stamped
      {!Dice_exec.Vcache} beside the live router, evicted the moment the
      router processes an update;
    - {!checker} packages remote probing as a fault checker: every
      message an exploration run would send to a neighbor with an agent
      is forwarded (from the interception sandbox, never the live
      network), and remote origin conflicts become system-wide fault
      reports. *)

open Dice_inet
open Dice_bgp

type verdict = Probe_wire.verdict = {
  accepted : bool;
  installed : bool;
  origin_conflict : bool;
  covers_foreign : int;
  would_propagate : int;
}
(** {!Verdict.t}, re-exported (via {!Probe_wire.verdict}) so existing
    call sites keep compiling — see {!Verdict} for field semantics, the
    pretty-printer and the comparator. *)

type outcome = Probe_rpc.result =
  | Verdicts of (Prefix.t * verdict) list
      (** one verdict per announced prefix, in NLRI order — the pairing
          is what lets a multi-prefix exploratory UPDATE attribute each
          verdict to the remote prefix it concerns *)
  | Declined of string
      (** the agent answered but refused: non-announcement messages, or
          a remote error frame *)
  | Timeout
      (** all attempts expired — only [Remote] transports produce this *)

val verdicts : outcome -> (Prefix.t * verdict) list
(** The verdict list, empty for {!Declined}/{!Timeout}. *)

type transport =
  | Local of Speaker.instance
      (** the cooperating node's live speaker, probed in-process — the
          original path, kept for tests, benches and co-located domains.
          Any {!Speaker.S} implementation can sit here; mixed fleets put
          a different implementation behind each agent *)
  | Remote of Probe_rpc.endpoint
      (** a node on a simulated network, probed with wire frames; the
          only cross-domain data is what {!Probe_wire} can express *)

type agent

val agent : name:string -> addr:Ipv4.t -> explorer_addr:Ipv4.t -> transport -> agent
(** [agent ~name ~addr ~explorer_addr transport]: a remote node that the
    exploring node reaches at [addr] and that knows the exploring node
    as its neighbor [explorer_addr]. With a [Local] transport each probe
    runs over a disposable {!Speaker.clone} of the live speaker — an
    O(#peers) copy sharing the live speaker's route storage (structural
    sharing or copy-on-write tables), so probing never serializes the
    table — and compares against the live {!Speaker.loc_rib} view, which
    the agent builds once per live [updates_processed] version and
    shares across probes. Agents are domain-safe (cloning is mutexed,
    counters are atomic). With a [Remote] transport the agent holds no
    speaker at all — the serving side does (see {!serve}). *)

val agent_name : agent -> string
val agent_addr : agent -> Ipv4.t

val agent_explorer_addr : agent -> Ipv4.t
(** The exploring node's address on the peering — what probes built from
    exploration outputs claim as their arrival session. *)

val agent_transport : agent -> transport
(** Current transport. Mutable under the hood: {!Recovery.crash_restart}
    swaps a rebuilt speaker into a [Local] agent in place, so the
    agent's identity, caches and counters survive the restart. *)

val agent_health : agent -> Health.t
(** The agent's liveness monitor. For a [Remote] agent this {e is} the
    endpoint's monitor ({!Probe_rpc.endpoint_health}) — heartbeats and
    probe outcomes feed it in the RPC layer, never double-counted here.
    A [Local] agent gets its own monitor, which stays [Alive] (an
    in-process speaker has no wire to lose). *)

val serve : Dice_sim.Network.t -> agent -> Probe_rpc.server
(** Put a [Local] agent on the network: registers a node whose handler
    decodes probe request frames, probes the agent's live speaker, and
    answers with response/decline/error frames. The server is
    implementation-agnostic: it hosts whatever speaker the agent holds,
    answering the same unmodified {!Probe_wire} frames. The returned server's
    node id is what a {!Probe_rpc.endpoint} on the exploring side
    connects to.
    @raise Invalid_argument on a [Remote] agent (forwarding probes
    through a relay is not a thing the narrow interface allows). *)

val probe : agent -> from:Ipv4.t -> Msg.t -> outcome
(** Submit one exploration message as if it arrived on the session with
    [from] (the exploring node's address on that peering). The agent's
    live speaker is never mutated. Non-announcements decline without
    touching the wire. Over a [Remote] transport this drives the
    simulated network until the response or the final timeout fires —
    it never raises and never hangs. *)

val probe_all : ?jobs:int -> (agent * Ipv4.t * Msg.t) list -> outcome list
(** [probe_all ~jobs reqs] answers every [(agent, from, msg)] request,
    in request order regardless of schedule. [Local] requests shard
    across [jobs] worker domains ([1], the default, stays on the calling
    domain); [Remote] requests pipeline over each endpoint's in-flight
    window on the calling domain — the simulated network is
    single-threaded, so wire parallelism comes from overlapping
    requests on the link, not from worker domains. *)

type stats = {
  probes : int;  (** announcements submitted ({!probe} / {!probe_all}) *)
  checkpoints : int;
      (** distinct live-speaker versions probes cloned against — one
          burst of probes over an unchanged speaker is one logical
          checkpoint, however many clones it took *)
  clones : int;  (** explorer clones taken of the live speaker *)
  vcache_hits : int;  (** probes answered from the verdict cache *)
  vcache_hit_rate : float;  (** [0.] before any probe *)
  timeouts : int;  (** probes that exhausted all attempts *)
  declines : int;  (** probes answered with a decline *)
  retries : int;
      (** re-send attempts after a per-request timeout. {e Remote-only}:
          retries happen inside the RPC layer, below the probe/outcome
          level these counters live at, and a [Local] transport has no
          equivalent event — it stays [0] there by definition, not by
          omission. *)
}

val stats : agent -> stats
(** One snapshot of every per-agent counter. Every field except
    [retries] means the same thing on both transports: [probes],
    [declines] and [timeouts] are counted on the probing side from the
    {!outcome} of each submitted probe (a [Local] probe can simply never
    produce the [Timeout] outcome, so its count stays zero).
    [checkpoints], [vcache_hits] and [vcache_hit_rate] are properties of
    the agent that holds the live speaker: for a [Local] transport
    that is this agent; for a [Remote] transport they are zero {e here}
    and reported by the serving side, where the speaker is. *)

(** Agent crash recovery: surviving a node restart with bounded state.

    The crash model ({!Dice_sim.Network.pause_node} or a seeded
    {!Dice_sim.Faults.node} schedule) kills a serving node mid-hunt.
    A {!harness} attached to a [Local] agent keeps what recovery needs:
    the last {!Speaker.snapshot} of the live speaker plus a bounded
    journal of the updates fed since. When the journal reaches its cap
    it is folded into a fresh snapshot, so recovery always replays at
    most [journal_cap] updates and is always {e exact} — snapshot +
    journal is byte-equivalent state to the speaker that crashed.

    {!crash_restart} (typically wired as the node's
    {!Dice_sim.Network.set_restart_hook}) rebuilds the speaker from
    snapshot + journal, swaps it into the agent in place, drops the
    agent's cached Loc-RIB view, epoch-invalidates its verdict cache
    (a rebuilt speaker's [updates_processed] can collide with a
    pre-crash version), and bumps the incarnation that the server's
    next heartbeat announces. *)
module Recovery : sig
  type harness

  val attach : ?journal_cap:int -> agent -> harness
  (** Snapshot the agent's live speaker and start journaling.
      [journal_cap] (default 64) bounds the replay.
      @raise Invalid_argument on a [Remote] agent or [journal_cap < 1]. *)

  val feed : harness -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list
  (** Feed the live speaker {e through the harness}: the update is
      journaled (or folded into a fresh snapshot at the cap) so recovery
      stays exact. Returns the speaker's outputs, like
      {!Speaker.feed}. *)

  val crash_restart : harness -> unit
  (** The restart: rebuild from snapshot + journal, swap the speaker
      into the agent, invalidate caches, bump the incarnation. *)

  val incarnation : harness -> int
  (** Restarts survived (0 before the first crash) — what heartbeats
      announce as the agent's life number. *)

  val restarts : harness -> int
  val snapshots : harness -> int
  (** Snapshots taken (the initial one plus each journal fold). *)

  val journal_length : harness -> int
  (** Updates currently in the journal (< [journal_cap]). *)

  val state_version : harness -> int
  (** The live speaker's [updates_processed] (0 on a [Remote] agent) —
      what heartbeats announce as the state version. *)
end

val checker : jobs:int -> agents:agent list -> Checker.t
(** A {!Checker.t} that extends every exploration outcome across the
    network: each message the outcome would send to an agent's address
    is probed remotely — at every agent registered for that
    address, through whatever transport each agent has. Unreachable
    agents degrade silently: a {!Timeout} or {!Declined} probe
    contributes no findings (and is visible in {!stats}); no exception
    escapes the checker. Findings carry the {e remote} prefix the
    verdict concerns (also under a [remote-prefix] detail, with the
    locally explored prefix under [local-prefix]):
    - [remote-origin-conflict] (critical): the explored announcement
      would override origins at the remote node — the local node could
      not have detected this, the conflicting route exists only in the
      remote RIB;
    - [remote-coverage-leak] (critical): the explored announcement claims
      a super-block of space the remote node routes to other origins;
    - [remote-propagation] (warning): the remote node would accept and
      re-advertise the exploratory route further ([would_propagate]
      sessions) — the leak crosses a second domain boundary. *)
