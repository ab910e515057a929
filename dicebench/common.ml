(* Shared pieces of the workloads: run options, the result record every
   workload returns, and small statistics helpers. *)

type opts = {
  seed : int64;
  seconds : int;  (** sizes the fixed work of a run (see each workload) *)
  small : bool;  (** self-test sizes: same code paths, tiny tables *)
}

type result = {
  checks : (string * bool) list;  (** named correctness checks *)
  attempted : int;
  failed : int;
  setup_s : float;  (** processor seconds at reference host speed *)
  throughput_per_cpu_s : float;
      (** work units per processor second at reference host speed *)
  named : (string * float * string) list;
      (** the workload's own end-to-end metrics, by name, with unit *)
  slowdown : float * float;
      (** the host's slowdown while setting up and while measuring, which
          [setup_s] and [throughput_per_cpu_s] are scaled by *)
  work : (string * int) list;  (** fixed work counts of the run *)
  layers : (string * float) list;  (** per-layer metrics (traced run only) *)
  fingerprint : string;
      (** the run's observable outputs, compared between traced and
          untraced runs by the self-test *)
}

let now () = Unix.gettimeofday ()

(* Processor time of the whole process, every domain, user plus system.
   On a shared virtual machine the wall clock also counts the stretches
   in which the host runs someone else on our processors; processor time
   does not, so the gated metrics are measured on it. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type clock = { wall : float; cpu : float }

let clocked f =
  let w0 = now () and c0 = cpu () in
  let v = f () in
  (v, { wall = now () -. w0; cpu = cpu () -. c0 })

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a float array (sorted in place). *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))
  end

(* Host speed. Processor time still moves with the host: neighbours on
   the same cores and memory slow every instruction, by up to 2x for
   minutes at a time on a small shared machine. So a fixed calibration
   kernel runs between the timed units of a phase, set-up or
   measurement: a random walk over a 16 MiB array outside the OCaml
   heap (cache and memory latency) and a sequential sum over it
   (memory bandwidth), allocating nothing, so neither the program's heap
   nor its collector changes the kernel's time. The median of its
   processor times over [reference_s] is the host's slowdown in that
   phase, and the gated metrics are the phase's processor times divided
   by it. A change to the program moves a scaled metric exactly as much
   as the raw one. [reference_s] is the kernel's time on a 2-core Xeon
   virtual machine in a quiet stretch. *)
module Host = struct
  let reference_s = 0.009
  let size = 1 lsl 21

  let walk =
    lazy
      (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout size in
       for i = 0 to size - 1 do
         a.{i} <- ((i * 0x9E3779B1) + 12345) land (size - 1)
       done;
       a)

  type t = { mutable samples : float list }

  let create () = { samples = [] }

  let kernel (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
    let at = ref 1 and acc = ref 0 in
    for _ = 1 to 30_000 do
      at := a.{!at};
      acc := !acc + !at
    done;
    for i = 0 to size - 1 do
      acc := !acc + a.{i}
    done;
    !acc

  let calibrate t =
    let a = Lazy.force walk in
    let acc, c = clocked (fun () -> kernel a) in
    ignore (Sys.opaque_identity acc);
    t.samples <- c.cpu :: t.samples

  (* how many times slower than the reference the phase ran *)
  let slowdown t = match t.samples with [] -> 1.0 | l -> median l /. reference_s
end

let geomean l =
  match l with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Order-independent digest of a Loc-RIB: (prefix, source peer) pairs. *)
let digest_of_pairs pairs =
  List.fold_left
    (fun acc (prefix, peer) ->
      (acc + Hashtbl.hash (Dice_inet.Prefix.to_string prefix, Dice_inet.Ipv4.to_string peer))
      land max_int)
    0 pairs

let loc_rib_digest loc =
  let pairs =
    Dice_bgp.Rib.Loc.fold
      (fun p (e : Dice_bgp.Rib.Loc.entry) acc -> (p, e.Dice_bgp.Rib.Loc.src.Dice_bgp.Route.peer_addr) :: acc)
      loc []
  in
  (List.length pairs, digest_of_pairs pairs)
