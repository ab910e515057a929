(** Routing information bases (RFC 4271 §3.2).

    A router keeps one Adj-RIB-In per peer (routes as learned), a Loc-RIB
    (the selected best routes) and one Adj-RIB-Out per peer (routes as
    advertised). All three are prefix tries so that checkpoint clones share
    structure and the hijack checker can run covering-prefix queries. *)

open Dice_inet

module Adj : sig
  (** One peer's in or out table. *)

  type t

  val empty : t
  val add : Prefix.t -> Route.t -> t -> t
  val remove : Prefix.t -> t -> t
  val find_opt : Prefix.t -> t -> Route.t option
  val cardinal : t -> int
  val to_list : t -> (Prefix.t * Route.t) list
  val fold : (Prefix.t -> Route.t -> 'a -> 'a) -> t -> 'a -> 'a

  val fold_diff :
    (Prefix.t -> Route.t option -> Route.t option -> 'a -> 'a) -> t -> t -> 'a -> 'a
  (** Bindings that differ between two tables, skipping physically
      shared subtrees ({!Dice_inet.Prefix_trie.fold_diff}). *)
end

module Loc : sig
  (** The Loc-RIB: best route and its provenance per prefix. *)

  type entry = { route : Route.t; src : Route.src }
  type t

  val empty : t
  val set : Prefix.t -> entry -> t -> t
  val remove : Prefix.t -> t -> t
  val find_opt : Prefix.t -> t -> entry option
  val longest_match : Ipv4.t -> t -> (Prefix.t * entry) option

  (** Trie nodes an LPM walk visits (see {!Dice_inet.Prefix_trie.descent});
      the comparisons the concolic import path records. *)
  val descent : Ipv4.t -> t -> (Prefix.t * bool) list
  val covering : Prefix.t -> t -> (Prefix.t * entry) list
  val covered : Prefix.t -> t -> (Prefix.t * entry) list
  val cardinal : t -> int
  val to_list : t -> (Prefix.t * entry) list
  val fold : (Prefix.t -> entry -> 'a -> 'a) -> t -> 'a -> 'a

  val fold_diff :
    (Prefix.t -> entry option -> entry option -> 'a -> 'a) -> t -> t -> 'a -> 'a
  (** As {!Adj.fold_diff}. *)

  val trie_nodes : t -> int
  (** Physical trie nodes backing this table
      ({!Dice_inet.Prefix_trie.node_count}). *)

  val shared_nodes : t -> t -> int
  (** Physically shared nodes between two tables
      ({!Dice_inet.Prefix_trie.shared_nodes}) — how a fleet measures
      that an explorer clone's Loc-RIB still {e is} the live
      speaker's, bar the subtrees the clone wrote. *)
end
