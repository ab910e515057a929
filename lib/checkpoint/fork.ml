type manager = { st : Store.t; clones : int Atomic.t }

let create ?page_size ?store () =
  let st =
    match store with
    | Some st ->
      (match page_size with
      | Some ps when ps <> Store.page_size st ->
        invalid_arg "Fork.create: page_size conflicts with the shared store's"
      | Some _ | None -> ());
      st
    | None -> Store.create ?page_size ()
  in
  { st; clones = Atomic.make 0 }

let store m = m.st

type checkpoint = { mgr : manager; snap : Store.snapshot }

let checkpoint m ~live_image = { mgr = m; snap = Store.capture m.st live_image }

let checkpoint_stats cp ~live_image =
  let live = Store.capture cp.mgr.st live_image in
  let unique = Store.unique_pages cp.snap ~relative_to:live in
  let frac = Store.unique_fraction cp.snap ~relative_to:live in
  Store.release live;
  (unique, frac)

let drop_checkpoint cp = Store.release cp.snap

let checkpoint_image cp = Store.restore cp.snap

type clone = {
  cp : checkpoint;
  mutable snap : Store.snapshot option;  (* None once finished *)
}

let spawn cp =
  Atomic.incr cp.mgr.clones;
  { cp; snap = Some (Store.clone cp.snap) }

let image c =
  match c.snap with
  | Some s -> Store.restore s
  | None -> invalid_arg "Fork.image: clone finished"

type clone_stats = {
  pages : int;
  unique : int;
  unique_fraction : float;
  extra_fraction : float;
}

let finish c ~final_parts =
  match c.snap with
  | None -> invalid_arg "Fork.finish: clone already finished"
  | Some s ->
    let len = List.fold_left (fun acc b -> acc + Bytes.length b) 0 final_parts in
    let pages = Page.count ~page_size:(Store.page_size c.cp.mgr.st) len in
    let unique = Store.unique_pages_of_image final_parts ~relative_to:s in
    let unique_fraction = if pages = 0 then 0.0 else float_of_int unique /. float_of_int pages in
    let base = Store.snapshot_pages s in
    let extra_fraction =
      if base = 0 then 0.0 else float_of_int unique /. float_of_int base
    in
    Store.release s;
    c.snap <- None;
    Atomic.decr c.cp.mgr.clones;
    { pages; unique; unique_fraction; extra_fraction }

let live_clones m = Atomic.get m.clones
