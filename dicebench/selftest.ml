(* The benchmark's own test, run by [dune runtest]: at self-test sizes,
   every workload passes its correctness checks and gives identical
   results traced and untraced (live: the Loc-RIB digests; explore: the
   fault list and execution count; panel: the divergences; fleet: the
   work counts); every per-layer metric a workload reports is in the
   catalogue; and the catalogue is the one BENCHMARK.json declares. *)

let opts = { Common.seed = 3L; seconds = 1; small = true }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (name, run) ->
      Span.disable ();
      Span.reset ();
      let plain = run opts in
      Span.enable ();
      let traced = run opts in
      Span.disable ();
      List.iter
        (fun (r : Common.result) ->
          List.iter (fun (c, ok) -> if not ok then fail "%s: check %s failed" name c) r.checks)
        [ plain; traced ];
      if plain.fingerprint <> traced.fingerprint then
        fail "%s: traced run differs: %s vs %s" name plain.fingerprint traced.fingerprint;
      if traced.layers = [] then fail "%s: traced run reported no per-layer metric" name;
      List.iter
        (fun (m, _) ->
          if not (List.mem_assoc m Metrics.per_layer) then fail "%s: %s is not in the catalogue" name m)
        traced.layers;
      Printf.printf "%-8s traced = untraced: %s\n%!" name plain.fingerprint)
    Registry.workloads;
  let declared = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun (m, unit) ->
      if not (contains declared (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" m unit)) then
        fail "BENCHMARK.json does not declare %s in %s" m unit)
    (Metrics.end_to_end @ Metrics.per_layer);
  match !failures with
  | [] -> print_endline "dicebench self-test: ok"
  | fs ->
    List.iter prerr_endline (List.rev fs);
    exit 1
