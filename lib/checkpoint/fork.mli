(** Process-style checkpoint/clone lifecycle over the CoW {!Store}.

    Mirrors how the DiCE prototype checkpoints BIRD: [checkpoint] is the
    [fork()] that freezes the live process image; each exploration then
    [spawn]s a clone of that checkpoint, runs, and [finish]es with its
    final (mutated) image, at which point the clone's copy-on-write cost —
    unique pages relative to the checkpoint — is assessed and the clone's
    memory is reclaimed. *)

type manager

val create : ?page_size:int -> ?store:Store.t -> unit -> manager
(** [store] backs this manager with an existing (possibly shared)
    {!Store.t} instead of a private one — a fleet hands every domain's
    manager the same store, so checkpoint pages dedup {e across}
    domains and their explorer clones, not just within one manager.
    @raise Invalid_argument if [page_size] is also given and disagrees
    with the shared store's. *)

val store : manager -> Store.t

type checkpoint

val checkpoint : manager -> live_image:bytes -> checkpoint
(** Freeze the live process image. *)

val checkpoint_stats : checkpoint -> live_image:bytes -> int * float
(** [(unique, fraction)]: pages of the checkpoint not shared with the
    given (current) live image — the paper's "checkpoint process has 3.45%
    unique memory pages" metric. *)

val drop_checkpoint : checkpoint -> unit

val checkpoint_image : checkpoint -> bytes
(** The frozen image. *)

type clone

val spawn : checkpoint -> clone
(** Fork an exploration process from the checkpoint (cheap: all pages
    shared). *)

val image : clone -> bytes
(** The clone's initial image (equal to the checkpoint's). *)

type clone_stats = {
  pages : int;  (** size of the clone's final image, in pages *)
  unique : int;  (** final-image pages not shared with the checkpoint *)
  unique_fraction : float;
  extra_fraction : float;
      (** extra footprint relative to the checkpoint's page count — the
          paper's "36.93% more pages" metric *)
}

val finish : clone -> final_parts:bytes list -> clone_stats
(** Assess CoW cost and reclaim the clone. A clone can be finished once.

    The final image is the concatenation of [final_parts] (the
    explorer passes the clone's snapshot, then its engine metadata),
    and it is never built: the parts are compared with the
    checkpoint's pages in place ({!Store.unique_pages_of_image}), a
    machine word at a time, and only the pages that differ are hashed.
    So a finish costs one pass over the image plus O(dirty pages) of
    hashing, stores nothing, and leaves the store's {!Store.captures},
    {!Store.page_hits} and {!Store.page_inserts} alone: those count
    checkpoints, not clone finishes. Clones of one checkpoint may be
    finished from several domains at once. *)

val live_clones : manager -> int
