open Dice_inet
open Dice_concolic

type verdict =
  | Accepted of Croute.t
  | Rejected

let c32 v = Cval.concrete ~width:32 (Int64.of_int v)
let c8 v = Cval.concrete ~width:8 (Int64.of_int v)

let eval_term ~source_as (cr : Croute.t) = function
  | Filter.Int_lit n -> c32 n
  | Filter.Net_len -> cr.net_len
  | Filter.Local_pref_t -> cr.local_pref
  | Filter.Med_t -> cr.med
  | Filter.Origin_t -> cr.origin
  | Filter.Path_len -> c32 (Asn.Path.length cr.as_path)
  | Filter.Neighbor_as -> c32 (Option.value (Asn.Path.first_as cr.as_path) ~default:0)
  | Filter.Origin_as -> cr.origin_as
  | Filter.Source_as -> c32 source_as

let eval_cmp op a b =
  match op with
  | Filter.Ceq -> Cval.eq a b
  | Filter.Cne -> Cval.ne a b
  | Filter.Clt -> Cval.ult a b
  | Filter.Cle -> Cval.ule a b
  | Filter.Cgt -> Cval.ugt a b
  | Filter.Cge -> Cval.uge a b

(* Concolic prefix-pattern match; mirrors [Filter.pattern_matches].
   match <=> low <= len <= high
          /\ (addr xor base) >> (32 - min(base_len, len)) == 0.
   The min is expanded as a disjunction to stay branch-free. *)
let eval_pattern (pat : Filter.prefix_pattern) (cr : Croute.t) =
  let base_len = Prefix.len pat.base in
  let base_addr = c32 (Prefix.network pat.base) in
  let len_ok =
    Cval.and_ (Cval.uge cr.net_len (c8 pat.low)) (Cval.ule cr.net_len (c8 pat.high))
  in
  let diff = Cval.logxor cr.net_addr base_addr in
  let agree_base =
    (* len >= base_len: compare the base's bits *)
    if base_len = 0 then Cval.of_bool true
    else Cval.eq (Cval.shift_right diff (32 - base_len)) (c32 0)
  in
  let long_enough = Cval.uge cr.net_len (c8 base_len) in
  let shift_amount = Cval.sub (Cval.concrete ~width:8 32L) cr.net_len in
  let agree_len =
    (* len < base_len: compare only len bits (symbolic shift) *)
    Cval.eq (Cval.binop Sym.Lshr diff shift_amount) (c32 0)
  in
  let short = Cval.not_ long_enough in
  Cval.and_ len_ok
    (Cval.or_ (Cval.and_ long_enough agree_base) (Cval.and_ short agree_len))

let rec eval_cond ctx ~source_as cond (cr : Croute.t) =
  match cond with
  | Filter.True -> Cval.of_bool true
  | Filter.False -> Cval.of_bool false
  | Filter.Cmp (op, a, b) -> eval_cmp op (eval_term ~source_as cr a) (eval_term ~source_as cr b)
  | Filter.Match_net pats ->
    List.fold_left
      (fun acc pat -> Cval.or_ acc (eval_pattern pat cr))
      (Cval.of_bool false) pats
  | Filter.Path_has asn -> Cval.of_bool (Asn.Path.contains cr.as_path asn)
  | Filter.Has_community c -> Cval.of_bool (List.mem c cr.communities)
  | Filter.And (a, b) ->
    Cval.and_ (eval_cond ctx ~source_as a cr) (eval_cond ctx ~source_as b cr)
  | Filter.Or (a, b) ->
    Cval.or_ (eval_cond ctx ~source_as a cr) (eval_cond ctx ~source_as b cr)
  | Filter.Not c -> Cval.not_ (eval_cond ctx ~source_as c cr)

(* Decide a condition with short-circuit *branches*, the way interpreted
   configuration actually executes: each comparison atom — and each
   pattern of a prefix set — is its own branch site, so exploration can
   steer execution through every configured rule individually (the
   mechanism behind the paper's "comprehensive of both code and
   configuration"). Site names derive from the [If]'s site and the atom's
   position in the condition tree, so they are stable across runs. *)
let decide_cond ctx ~source_as ~site cond cr =
  (* branch sites are named (and interned) only when the context
     records: the live path evaluates the same conditions nameless *)
  let recording = Engine.recording ctx in
  let rec go path cond =
    let here suffix v =
      if recording then Engine.branchf ctx (site ^ ":" ^ path ^ suffix ()) v
      else Cval.bool_of v
    in
    let sub step = if recording then path ^ step else path in
    match cond with
    | Filter.True -> true
    | Filter.False -> false
    | Filter.Cmp (_, _, _) as atom -> here (fun () -> "c") (eval_cond ctx ~source_as atom cr)
    | (Filter.Path_has _ | Filter.Has_community _) as atom ->
      Cval.bool_of (eval_cond ctx ~source_as atom cr)
    | Filter.Match_net pats ->
      let rec try_pats i = function
        | [] -> false
        | pat :: rest ->
          if here (fun () -> Printf.sprintf "p%d" i) (eval_pattern pat cr) then true
          else try_pats (i + 1) rest
      in
      try_pats 0 pats
    | Filter.And (a, b) -> if go (sub "l") a then go (sub "r") b else false
    | Filter.Or (a, b) -> if go (sub "l") a then true else go (sub "r") b
    | Filter.Not c -> not (go (sub "n") c)
  in
  go "" cond

(* Statement execution: threads the (possibly modified) route; a verdict
   stops execution. *)
let rec exec_stmts ctx ~source_as ~local_as stmts cr =
  match stmts with
  | [] -> (cr, None)
  | stmt :: rest -> begin
    match stmt with
    | Filter.Accept -> (cr, Some (Accepted cr))
    | Filter.Reject -> (cr, Some Rejected)
    | Filter.Set_local_pref tm -> begin
      let cr = Croute.with_local_pref cr (eval_term ~source_as cr tm) in
      exec_stmts ctx ~source_as ~local_as rest cr
    end
    | Filter.Set_med tm ->
      exec_stmts ctx ~source_as ~local_as rest
        (Croute.with_med cr (eval_term ~source_as cr tm))
    | Filter.Add_community c ->
      exec_stmts ctx ~source_as ~local_as rest (Croute.add_community cr c)
    | Filter.Delete_community c ->
      exec_stmts ctx ~source_as ~local_as rest (Croute.remove_community cr c)
    | Filter.Prepend n ->
      let cr = ref cr in
      for _ = 1 to n do
        cr := Croute.prepend_as !cr local_as
      done;
      exec_stmts ctx ~source_as ~local_as rest !cr
    | Filter.If { site; cond; then_; else_ } -> begin
      let branch_taken = decide_cond ctx ~source_as ~site cond cr in
      let arm = if branch_taken then then_ else else_ in
      match exec_stmts ctx ~source_as ~local_as arm cr with
      | cr', None -> exec_stmts ctx ~source_as ~local_as rest cr'
      | (_, Some _) as stop -> stop
    end
  end

let run ctx ~source_as ~local_as (f : Filter.t) cr =
  match exec_stmts ctx ~source_as ~local_as f.Filter.body cr with
  | _, Some verdict -> verdict
  | _, None -> Rejected

let run_policy ctx ~source_as ~local_as (p : Config_types.policy) cr =
  match p with
  | Config_types.All -> Accepted cr
  | Config_types.Nothing -> Rejected
  | Config_types.Use_filter f -> run ctx ~source_as ~local_as f cr
