(** The routing-policy (filter) language — a BIRD-style little language.

    This is the "interpreted configuration" dimension of the paper's
    exploration: because the filter interpreter runs over concolic values,
    recorded constraints span both the router's code and the operator's
    configured policy (paper §3.2), including the "if" statements inside
    configured filters.

    Concrete syntax (parsed by {!Config_parser}):
    {v
    filter customer_in {
      if net ~ [ 203.0.113.0/24+, 198.51.100.0/24{24,28} ] then accept;
      if bgp_path.len > 10 then reject;
      bgp_local_pref = 120;
      accept;
    }
    v} *)

open Dice_inet

type prefix_pattern = { base : Prefix.t; low : int; high : int }
(** Matches prefix [P] iff [low <= len P <= high] and [P]'s first
    [min (len base) (len P)] bits agree with [base]. Written
    [a.b.c.d/l] (exact), [.../l+] (l..32), [.../l-] (0..l) or
    [.../l{lo,hi}]. *)

val pattern_matches : prefix_pattern -> Prefix.t -> bool
(** Concrete-side semantics (the interpreter mirrors it concolically). *)

val pp_pattern : Format.formatter -> prefix_pattern -> unit

type cmpop =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

(** Integer-valued route terms. *)
type term =
  | Int_lit of int
  | Net_len  (** [net.len] *)
  | Local_pref_t  (** [bgp_local_pref] *)
  | Med_t  (** [bgp_med] *)
  | Origin_t  (** [bgp_origin]: 0 IGP, 1 EGP, 2 INCOMPLETE *)
  | Path_len  (** [bgp_path.len] *)
  | Neighbor_as  (** [bgp_path.first] *)
  | Origin_as  (** [bgp_path.last] *)
  | Source_as  (** ASN of the session the route arrived on *)

type cond =
  | True
  | False
  | Cmp of cmpop * term * term
  | Match_net of prefix_pattern list  (** [net ~ \[ ... \]] *)
  | Path_has of int  (** [bgp_path ~ asn] *)
  | Has_community of Community.t  (** [bgp_community ~ a:b] *)
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type stmt =
  | If of { site : string; cond : cond; then_ : stmt list; else_ : stmt list }
      (** [site] names the static branch location for concolic coverage. *)
  | Accept
  | Reject
  | Set_local_pref of term
  | Set_med of term
  | Add_community of Community.t
  | Delete_community of Community.t
  | Prepend of int  (** prepend the local AS [n] extra times on export *)

type t = { name : string; body : stmt list }

type sites
(** The site numbering of one filter while it is being built. *)

val sites : string -> sites
(** A numbering for the named filter, starting at 0. Each parse of a
    filter takes a fresh one, so a filter's site names depend only on
    its text, not on what the process parsed before. *)

val mk_if : sites -> cond -> stmt list -> stmt list -> stmt
(** Build an [If] named ["filter:<name>:if<k>"], [k] counting the
    [If]s built with [sites] so far: a parser that builds a filter's
    statements in a fixed order numbers them by position. *)

val accept_all : string -> t
val reject_all : string -> t

val pp : Format.formatter -> t -> unit
