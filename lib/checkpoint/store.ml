type key = int64 * int

type entry = { data : bytes; mutable refs : int }

type t = {
  page_size : int;
  lock : Mutex.t;
      (* one store backs every clone of a checkpoint; parallel seed
         explorations capture/clone/release from separate domains *)
  pages : (key, entry) Hashtbl.t;
  mutable live : int;
  (* dedup accounting across every capture this store ever served — how
     the fleet measures that checkpoint pages are shared across explorer
     clones (and across domains) instead of duplicated *)
  mutable captures : int;
  mutable page_hits : int;  (* captured pages found already resident *)
  mutable page_inserts : int;  (* captured pages stored fresh *)
}

type snapshot = {
  store : t;
  table : Page.id array;  (* page ids in address order *)
  total_len : int;
  mutable released : bool;
}

let create ?(page_size = Page.default_size) () =
  if page_size <= 0 then invalid_arg "Store.create: page_size must be positive";
  {
    page_size;
    lock = Mutex.create ();
    pages = Hashtbl.create 1024;
    live = 0;
    captures = 0;
    page_hits = 0;
    page_inserts = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let page_size t = t.page_size

let key_of (id : Page.id) : key = (id.hash, id.len)

let capture t state =
  (* hashed in place: only a page the store has never seen is copied *)
  let table = Array.of_list (Page.split ~page_size:t.page_size state) in
  locked t (fun () ->
      Array.iteri
        (fun i (id : Page.id) ->
          match Hashtbl.find_opt t.pages (key_of id) with
          | Some e ->
            e.refs <- e.refs + 1;
            t.page_hits <- t.page_hits + 1
          | None ->
            let data = Bytes.sub state (i * t.page_size) id.len in
            Hashtbl.add t.pages (key_of id) { data; refs = 1 };
            t.page_inserts <- t.page_inserts + 1)
        table;
      t.captures <- t.captures + 1;
      t.live <- t.live + 1;
      { store = t; table; total_len = Bytes.length state; released = false })

let restore s =
  locked s.store (fun () ->
      if s.released then invalid_arg "Store.restore: snapshot released";
      let out = Bytes.create s.total_len in
      let off = ref 0 in
      Array.iter
        (fun (id : Page.id) ->
          let e = Hashtbl.find s.store.pages (key_of id) in
          Bytes.blit e.data 0 out !off id.len;
          off := !off + id.len)
        s.table;
      out)

let clone s =
  locked s.store (fun () ->
      if s.released then invalid_arg "Store.clone: snapshot released";
      Array.iter
        (fun id ->
          let e = Hashtbl.find s.store.pages (key_of id) in
          e.refs <- e.refs + 1)
        s.table;
      s.store.live <- s.store.live + 1;
      { s with released = false })

let release s =
  locked s.store (fun () ->
      if s.released then invalid_arg "Store.release: already released";
      s.released <- true;
      s.store.live <- s.store.live - 1;
      Array.iter
        (fun id ->
          let k = key_of id in
          let e = Hashtbl.find s.store.pages k in
          e.refs <- e.refs - 1;
          if e.refs = 0 then Hashtbl.remove s.store.pages k)
        s.table)

let snapshot_pages s = Array.length s.table

(* Multiset of page keys. *)
let key_counts s =
  let h = Hashtbl.create (Array.length s.table) in
  Array.iter
    (fun id ->
      let k = key_of id in
      let c = match Hashtbl.find_opt h k with Some c -> c | None -> 0 in
      Hashtbl.replace h k (c + 1))
    s.table;
  h

let shared_pages a b =
  let ca = key_counts a and cb = key_counts b in
  Hashtbl.fold
    (fun k n acc ->
      match Hashtbl.find_opt cb k with
      | Some m -> acc + min n m
      | None -> acc)
    ca 0

let unique_pages s ~relative_to = snapshot_pages s - shared_pages s relative_to

let unique_fraction s ~relative_to =
  let n = snapshot_pages s in
  if n = 0 then 0.0 else float_of_int (unique_pages s ~relative_to) /. float_of_int n

(* Page by page over the concatenation of [parts], in ascending order:
   [locate off len] gives a buffer and offset holding bytes [off, off +
   len) of it. A page inside one part is read in place; one that
   straddles parts is gathered into a scratch page. *)
let page_cursor ~page_size parts =
  let scratch = Bytes.create page_size in
  let rest = ref parts and start = ref 0 in
  let rec skip off =
    match !rest with
    | b :: tl when !start + Bytes.length b <= off ->
      start := !start + Bytes.length b;
      rest := tl;
      skip off
    | _ -> ()
  in
  fun off len ->
    skip off;
    match !rest with
    | b :: _ when off + len <= !start + Bytes.length b -> (b, off - !start)
    | _ ->
      let rec gather parts from copied =
        match parts with
        | [] -> ()
        | b :: tl ->
          let n = min (Bytes.length b - from) (len - copied) in
          Bytes.blit b from scratch copied n;
          if copied + n < len then gather tl 0 (copied + n)
      in
      gather !rest (off - !start) 0;
      (scratch, 0)

(* With δ(k) the change in page key k's count from [s] to the image:
   shared = Σ min(count_s k, count_s k + δ(k)) = |s| + Σ_{δ(k)<0} δ(k),
   so unique = |image| − |s| − Σ_{δ(k)<0} δ(k). δ is non-zero only at
   positions where the pages differ, and only those are hashed. *)
let unique_pages_of_image parts ~relative_to:s =
  let t = s.store in
  let ps = t.page_size in
  let total = List.fold_left (fun acc b -> acc + Bytes.length b) 0 parts in
  let n = Page.count ~page_size:ps total and m = Array.length s.table in
  (* stored pages are never mutated, so they can be compared unlocked *)
  let data =
    locked t (fun () ->
        if s.released then invalid_arg "Store.unique_pages_of_image: snapshot released";
        Array.map (fun id -> (Hashtbl.find t.pages (key_of id)).data) s.table)
  in
  let locate = page_cursor ~page_size:ps parts in
  let delta = Hashtbl.create 16 in
  let bump k d =
    Hashtbl.replace delta k (d + Option.value (Hashtbl.find_opt delta k) ~default:0)
  in
  for i = 0 to max n m - 1 do
    let off = i * ps in
    let len = if i < n then min ps (total - off) else 0 in
    let buf, boff = if i < n then locate off len else (Bytes.empty, 0) in
    let same = i < n && i < m && s.table.(i).len = len && Page.matches data.(i) buf boff in
    if not same then begin
      if i < n then bump (key_of (Page.id_of buf boff len)) 1;
      if i < m then bump (key_of s.table.(i)) (-1)
    end
  done;
  n - m - Hashtbl.fold (fun _ d acc -> if d < 0 then acc + d else acc) delta 0

let stored_pages t = locked t (fun () -> Hashtbl.length t.pages)

let resident_bytes t =
  locked t (fun () -> Hashtbl.fold (fun (_, len) _ acc -> acc + len) t.pages 0)

let live_snapshots t = locked t (fun () -> t.live)

let captures t = locked t (fun () -> t.captures)
let page_hits t = locked t (fun () -> t.page_hits)
let page_inserts t = locked t (fun () -> t.page_inserts)

let dedup_ratio t =
  locked t (fun () ->
      let total = t.page_hits + t.page_inserts in
      if total = 0 then 0.0 else float_of_int t.page_hits /. float_of_int total)
