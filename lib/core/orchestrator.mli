(** The DiCE orchestrator: the checkpoint–symbolize–explore–check loop
    (paper §2.3).

    Against a {e live} speaker (any {!Speaker.S} implementation) it:
    + takes a page-granular checkpoint of the live process image,
    + clones the checkpoint for exploration (copy-on-write),
    + feeds each clone a previously observed input with selected fields
      symbolized,
    + lets the concolic engine negate recorded branch predicates to
      systematically exercise the node's actions,
    + intercepts all messages the clones generate (isolation: the
      deployed system never sees exploration traffic), and
    + runs fault checkers against every explored outcome.

    The live speaker is never mutated: {!explore} takes one
    {!Speaker.clone} of it, right after serializing the checkpoint, as
    the exploration base, and every exploration run executes on a
    {!Speaker.clone} of that base. Nothing is restored from bytes. *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type seed = {
  tag : string;
  peer : Ipv4.t;  (** session the input was observed on *)
  prefix : Prefix.t;
  route : Route.t;
}

(** {1 Configuration}

    Grouped by concern into nested records — what to explore and how
    hard ({!exploration}), which remote domains cooperate
    ({!federation}), and what chaos to inject on their wires
    ({!faults}) — following the constructor convention documented in
    {!Checker}: validating smart constructors with required labelled
    arguments, and defaults exported as values ({!default_exploration}
    and friends), so a call site writes
    [{ default_exploration with max_seeds = 8 }] or builds a validated
    record from scratch. *)

type exploration = {
  explorer : Explorer.config;
  page_size : int;
  mode : Symbolize.mode;
  max_seeds : int;  (** most recent seeds explored per {!explore} call *)
  clone_samples : int;  (** CoW-cost samples collected per seed *)
  jobs : int;
      (** worker domains for seed-level parallelism: each pending seed
          explores on clones of the one base cloned from the live
          speaker at the checkpoint, [jobs] at a time. [1] (the default) keeps
          everything on the calling domain. Report order always equals
          seed order. *)
}

type federation = {
  agents : Distributed.agent list;
      (** cooperating remote domains: when non-empty, a
          {!Distributed.checker} over these agents is appended to the
          checker list, so every exploration outcome is probed across
          the domain boundary. Mixed fleets are one list: each agent
          carries its own transport and, behind it, its own speaker
          implementation. *)
  probe_jobs : int;
      (** probes in flight at a time over the worker pool ([Local]
          agents) or the wire ([Remote] agents) *)
}

type faults = {
  probe : Dice_sim.Faults.t option;
      (** when set, this fault model is installed on every [Remote]
          agent's probe link at {!create} time — loss, duplication,
          reordering and corruption on the federated wire, with the RPC
          layer expected to stay correct under it. [None] (the default)
          leaves links as the caller wired them. Local agents are
          unaffected: they have no wire. *)
  seed : int64;
      (** seed for the probe networks' fault RNG streams (applied with
          [probe]); equal seeds replay identical fault schedules *)
  node : Dice_sim.Faults.node option;
      (** when set, this crash model is installed on every [Remote]
          agent's {e serving node} at {!create} time: frame arrivals at
          the node may crash it (buffering, not losing, in-flight
          frames) for [downtime] virtual seconds before the automatic
          restart fires the node's restart hook (typically a
          {!Distributed.Recovery.crash_restart}). [None] (the default)
          crashes nobody. *)
  crash_seed : int64;
      (** seed for the crash RNG stream (applied with [node], distinct
          from the link-fault stream so adding crashes does not reshuffle
          link faults); equal seeds replay identical crash schedules *)
}

type cfg = {
  exploration : exploration;
  checkers : Checker.t list;
  federation : federation;
  faults : faults;
}

val exploration :
  explorer:Explorer.config ->
  page_size:int ->
  mode:Symbolize.mode ->
  max_seeds:int ->
  clone_samples:int ->
  jobs:int ->
  exploration
(** Validating constructor. @raise Invalid_argument on a non-positive
    [page_size] or [jobs], or a negative [max_seeds]/[clone_samples]. *)

val federation : agents:Distributed.agent list -> probe_jobs:int -> federation
(** @raise Invalid_argument if [probe_jobs < 1]. *)

val faults :
  ?node:Dice_sim.Faults.node ->
  ?crash_seed:int64 ->
  probe:Dice_sim.Faults.t option ->
  seed:int64 ->
  unit ->
  faults
(** @raise Invalid_argument on an invalid fault model
    ({!Dice_sim.Faults.validate} / {!Dice_sim.Faults.validate_node}).
    [crash_seed] defaults to {!Dice_sim.Network.default_crash_seed}. *)

val default_exploration : exploration
(** DFS explorer (96 runs, depth 64), 4 KiB pages, selective
    symbolization, 4 seeds, 4 clone samples, 1 job. *)

val default_federation : federation
(** No agents, 1 probe job. *)

val default_faults : faults
(** No probe faults (seed 42), no node crashes (default crash seed). *)

val default_cfg : cfg
(** {!default_exploration} + the {!Hijack.checker} +
    {!default_federation} + {!default_faults}. *)

type t

val create : ?cfg:cfg -> Speaker.instance -> t
(** Attach DiCE to a live speaker. *)

val speaker : t -> Speaker.instance

val observe : t -> peer:Ipv4.t -> prefix:Prefix.t -> route:Route.t -> unit
(** Record an observed input as an exploration seed. *)

val observe_update : t -> peer:Ipv4.t -> Msg.update -> unit
(** Convenience: observe every announcement of an UPDATE. *)

val pending_seeds : t -> int

type seed_report = {
  seed : seed;
  explorer : Explorer.report;
  faults : Checker.fault list;
  intercepted : int;  (** exploration messages captured by the sandbox *)
  runs_accepted : int;  (** runs whose input survived import policy *)
  runs_rejected : int;
  observed_accepted : bool;
      (** whether the {e observed} (unmutated) input was accepted — run 0
          replays it; config-change validation uses this to detect
          regressions on legitimate traffic *)
  clone_stats : Dice_checkpoint.Fork.clone_stats list;
  depth_counts : (string * int) list;
      (** whole-message mode: how deep each run got into the parser *)
}

type report = {
  seed_reports : seed_report list;
  faults : Checker.fault list;  (** deduplicated across seeds *)
  checkpoint_pages : int;
  live_image_bytes : int;
  wall_seconds : float;
  checkpoint_seconds : float;
      (** the live node's critical-path share of [wall_seconds]: taking
          the checkpoint. Exploration itself runs off the critical path
          (on the paper's testbed, on other cores). *)
}

val explore : t -> report
(** Checkpoint the live speaker and explore the pending seeds (most
    recent [max_seeds]; the queue is drained). The live speaker must not
    be fed from another domain during the call.
    @raise Invalid_argument if it processed an update between the
    freeze and the clone of the exploration base. *)

val pp_report : Format.formatter -> report -> unit
