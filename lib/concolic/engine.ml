module Space = struct
  type t = {
    lock : Mutex.t;  (* one space is shared by every run of an exploration,
                        including parallel runs on separate domains *)
    by_name : (string, Sym.var) Hashtbl.t;
    mutable rev_names : string list;
  }

  let create () =
    { lock = Mutex.create (); by_name = Hashtbl.create 32; rev_names = [] }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let var t ~name ~width =
    locked t (fun () ->
        match Hashtbl.find_opt t.by_name name with
        | Some v ->
          if v.Sym.width <> width then
            invalid_arg
              (Printf.sprintf "Engine.Space.var: %s re-used with width %d (was %d)" name
                 width v.Sym.width);
          v
        | None ->
          let v = Sym.var ~name ~width in
          Hashtbl.add t.by_name name v;
          t.rev_names <- name :: t.rev_names;
          v)

  let find t name = locked t (fun () -> Hashtbl.find_opt t.by_name name)

  let names t = locked t (fun () -> List.rev t.rev_names)
end

type ctx = {
  recording : bool;
  space : Space.t option;
  overrides : Sym.env;
  concrete_env : Sym.env;
  mutable rev_path : Path.entry list;
  mutable rev_seeds : Path.constr list;
  coverage : Coverage.t option;
}

let create ?coverage ~space ~overrides () =
  {
    recording = true;
    space = Some space;
    overrides;
    concrete_env = Hashtbl.create 16;
    rev_path = [];
    rev_seeds = [];
    coverage;
  }

let null () =
  {
    recording = false;
    space = None;
    overrides = Hashtbl.create 0;
    concrete_env = Hashtbl.create 0;
    rev_path = [];
    rev_seeds = [];
    coverage = None;
  }

let recording t = t.recording

let input t ~name ~width ~default =
  if not t.recording then Cval.concrete ~width default
  else begin
    let space =
      match t.space with
      | Some s -> s
      | None -> assert false
    in
    let v = Space.var space ~name ~width in
    let conc =
      match Hashtbl.find_opt t.overrides v.Sym.id with
      | Some x -> Sym.wrap width x
      | None -> Sym.wrap width default
    in
    Hashtbl.replace t.concrete_env v.Sym.id conc;
    Cval.symbolic v conc
  end

let constrain t expr ~nonzero =
  if t.recording then
    t.rev_seeds <- { Path.expr; expected_nonzero = nonzero } :: t.rev_seeds

let branch t site cond =
  let taken = Cval.bool_of cond in
  if t.recording then begin
    (match t.coverage with
    | Some cov -> ignore (Coverage.record cov site taken)
    | None -> ());
    match Cval.sym cond with
    | Some expr ->
      t.rev_path <-
        { Path.site; constr = { Path.expr; expected_nonzero = taken } } :: t.rev_path
    | None -> ()
  end;
  taken

(* a null context records nothing, so it leaves the site registry alone *)
let branchf t name cond =
  if t.recording then branch t (Path.Site.intern name) cond else Cval.bool_of cond

let env t = t.concrete_env

let path t = List.rev t.rev_path

let seed_constraints t = List.rev t.rev_seeds

let assignment t ~space =
  List.filter_map
    (fun name ->
      match Space.find space name with
      | Some v -> begin
        match Hashtbl.find_opt t.concrete_env v.Sym.id with
        | Some x -> Some (name, x)
        | None -> None
      end
      | None -> None)
    (Space.names space)
