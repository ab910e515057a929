(* Outside-in instrumentation of the DiCE stack.

   [Timed (S)] is a speaker that behaves exactly like [S] and records a
   span around each call into it, named [speaker.<id>.<operation>].
   [instance] repacks an existing speaker instance over the timed module
   with the instance's own realization and state, so every consumer of
   the instance — the orchestrator's restores and imports, a probe
   agent's clones and feeds — goes through the spans without any change
   to the library. [checker] does the same for a fault checker. *)

open Dice_core

module Timed (S : Speaker.S) : Speaker.S with type t = S.t = struct
  type t = S.t

  let id = S.id
  let dialect = S.dialect
  let name op = Printf.sprintf "speaker.%s.%s" S.id op
  let n_create = name "create"
  let n_establish = name "establish"
  let n_feed = name "feed"
  let n_import = name "import_concolic"
  let n_loc_rib = name "loc_rib"
  let n_best = name "best_route"
  let n_learned = name "learned_from"
  let n_freeze = name "freeze"
  let n_serialize = name "serialize"
  let n_snapshot = name "snapshot"
  let n_restore = name "restore"
  let n_clone = name "clone"
  let create r = Span.time n_create (fun () -> S.create r)
  let establish t ~peer = Span.time n_establish (fun () -> S.establish t ~peer)
  let feed ?ctx t ~peer m = Span.time n_feed (fun () -> S.feed ?ctx t ~peer m)

  let import_concolic ~ctx t ~peer cr =
    Span.time n_import (fun () -> S.import_concolic ~ctx t ~peer cr)

  let loc_rib t = Span.time n_loc_rib (fun () -> S.loc_rib t)
  let best_route t p = Span.time n_best (fun () -> S.best_route t p)
  let learned_from t ~peer p = Span.time n_learned (fun () -> S.learned_from t ~peer p)
  let updates_processed = S.updates_processed

  let freeze t =
    let thunk = Span.time n_freeze (fun () -> S.freeze t) in
    fun () -> Span.time n_serialize thunk

  let snapshot t = Span.time n_snapshot (fun () -> S.snapshot t)
  let restore r b = Span.time n_restore (fun () -> S.restore r b)
  let clone t = Span.time n_clone (fun () -> S.clone t)
end

let instance (Speaker.Inst (m, real, st)) =
  let module M = (val m) in
  let module T = Timed (M) in
  Speaker.pack (module T) real st

(* The span of checker [c] is [checker.<label>.check]; [observe] sees
   every checked outcome with the faults it produced. *)
let checker ~label ?(observe = fun _ _ -> ()) (c : Checker.t) =
  let span = Printf.sprintf "checker.%s.check" label in
  { c with
    Checker.check =
      (fun ctx outcome ->
        let faults = Span.time span (fun () -> c.Checker.check ctx outcome) in
        observe outcome faults;
        faults);
  }
