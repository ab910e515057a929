(** The concolic execution runtime.

    Instrumented code receives a {!ctx} and routes its symbolic inputs
    through {!input} and its conditionals through {!branch}. A non-recording
    context (see {!null}) makes both operations near-free, which is how the
    live system runs with "virtually no overhead" while the instrumented
    behaviour is only engaged during exploration, off the critical path
    (paper §3.2). *)

module Space : sig
  (** The input space of one exploration: a stable mapping from input names
      to symbolic variables, shared by every run so that constraints from
      different runs talk about the same variables. *)

  type t

  val create : unit -> t

  val var : t -> name:string -> width:int -> Sym.var
  (** Memoized: the same name always yields the same variable.
      @raise Invalid_argument if re-used with a different width. *)

  val find : t -> string -> Sym.var option
  val names : t -> string list
  (** Registered names in first-registration order. *)
end

type ctx

val create : ?coverage:Coverage.t -> space:Space.t -> overrides:Sym.env -> unit -> ctx
(** A recording context for one exploration run. [overrides] gives solver-
    chosen concrete values by variable id; inputs not overridden use their
    program-supplied defaults. *)

val null : unit -> ctx
(** A non-recording context: inputs stay concrete, branches just evaluate.
    This is what the deployed system runs with. *)

val recording : ctx -> bool

val input : ctx -> name:string -> width:int -> default:int64 -> Cval.t
(** Declare/read a symbolic input. In a recording context the result
    carries a symbolic shadow and its concrete value is the override if one
    exists, else [default]. In a null context it is just [default]. *)

val constrain : ctx -> Sym.t -> nonzero:bool -> unit
(** Record a seed constraint that is not a program branch (e.g. a message
    well-formedness invariant the symbolizer guarantees, such as
    [masklen <= 32]). Seed constraints prefix the path condition so the
    solver always respects them, but they are not negation candidates. *)

val branch : ctx -> Path.Site.t -> Cval.t -> bool
(** [branch ctx site cond] returns the concrete truth of [cond], recording
    a path constraint if [cond] carries a symbolic shadow and coverage for
    the site either way (when recording). *)

val branchf : ctx -> string -> Cval.t -> bool
(** [branch] with the site interned from a name — convenient at use
    sites. A non-recording context interns nothing: it only evaluates
    [cond]. *)

val env : ctx -> Sym.env
(** Concrete values the run's inputs actually had (by variable id) — the
    solver hint for negations of this run's path. *)

val path : ctx -> Path.t
(** Negatable path condition, in execution order (seed constraints
    excluded). *)

val seed_constraints : ctx -> Path.constr list
(** Seed constraints, in registration order. *)

val assignment : ctx -> space:Space.t -> (string * int64) list
(** The run's input values by name (reporting). *)
