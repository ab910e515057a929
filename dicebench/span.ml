(* The benchmark's in-memory span and counter store.

   Spans are recorded from outside the library, around calls into each
   layer's public functions (see [Timed]). Each named series keeps every
   duration (nanoseconds, monotonic clock) so medians and tails can be
   read at the end; counters are plain named integers. Recording is off
   unless [enable] was called: the untraced run pays one branch per
   wrapped call and nothing else. The store is shared by all domains and
   guarded by one mutex, so spans recorded by worker domains (explorer
   seeds, pool waves) land in the same series. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type series = {
  mutable n : int;
  mutable total_ns : int;
  mutable samples : int array;
}

let on = ref false
let lock = Mutex.create ()
let series : (string, series) Hashtbl.t = Hashtbl.create 64
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32

let enable () = on := true
let disable () = on := false
let enabled () = !on

(* Run [f] with recording off: set-up work stays out of the spans. *)
let quiet f =
  if not !on then f ()
  else begin
    on := false;
    Fun.protect ~finally:(fun () -> on := true) f
  end

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset series;
      Hashtbl.reset counters)

let record name ns =
  Mutex.protect lock (fun () ->
      let s =
        match Hashtbl.find_opt series name with
        | Some s -> s
        | None ->
          let s = { n = 0; total_ns = 0; samples = Array.make 256 0 } in
          Hashtbl.add series name s;
          s
      in
      if s.n = Array.length s.samples then begin
        let bigger = Array.make (2 * s.n) 0 in
        Array.blit s.samples 0 bigger 0 s.n;
        s.samples <- bigger
      end;
      s.samples.(s.n) <- ns;
      s.n <- s.n + 1;
      s.total_ns <- s.total_ns + ns)

(* [time name f] runs [f], recording its duration under [name] when
   tracing is on. An exception still closes the span. *)
let time name f =
  if not !on then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | v ->
      record name (now_ns () - t0);
      v
    | exception e ->
      record name (now_ns () - t0);
      raise e
  end

let add name k =
  if !on then
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt counters name with
        | Some r -> r := !r + k
        | None -> Hashtbl.add counters name (ref k))

(* {1 Reading} *)

let find name = Mutex.protect lock (fun () -> Hashtbl.find_opt series name)
let count name = match find name with Some s -> s.n | None -> 0
let total_ns name = match find name with Some s -> s.total_ns | None -> 0

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt counters name with Some r -> !r | None -> 0)

(* Mean duration in nanoseconds; 0 for a series with no spans. *)
let mean_ns name =
  match find name with
  | Some s when s.n > 0 -> float_of_int s.total_ns /. float_of_int s.n
  | Some _ | None -> 0.0

(* Nearest-rank percentile in nanoseconds; 0 for an empty series. *)
let percentile_ns name q =
  match find name with
  | Some s -> Common.percentile (Array.init s.n (fun i -> float_of_int s.samples.(i))) q
  | None -> 0.0

(* Sum of the totals of every series whose name satisfies [keep]. *)
let total_matching keep =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name s acc -> if keep name then acc + s.total_ns else acc) series 0)

(* Write every series (count, total, median, p99) and counter as JSON. *)
let dump path =
  let module J = Dice_util.Json in
  let names =
    Mutex.protect lock (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) series [])
    |> List.sort compare
  in
  let cnames =
    Mutex.protect lock (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) counters [])
    |> List.sort compare
  in
  let json =
    J.obj
      [ ( "spans",
          J.obj
            (List.map
               (fun name ->
                 ( name,
                   J.obj
                     [ ("count", J.int (count name));
                       ("total_ns", J.int (total_ns name));
                       ("p50_ns", J.float (percentile_ns name 0.5));
                       ("p99_ns", J.float (percentile_ns name 0.99)) ] ))
               names) );
        ("counters", J.obj (List.map (fun c -> (c, J.int (counter c))) cnames)) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string ~indent:true json);
  output_char oc '\n';
  close_out oc
