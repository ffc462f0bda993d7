(* The repository's benchmark (see README.md): one workload per run.

     main.exe --workload serve_warm|cold_analytic|update_mix --seed N
              --seconds S --trace 0|1 [--nproc N] [--spans FILE]

   setup_s is the median of 5 set-ups at the start of a serve_warm or
   cold_analytic run, and of the fresh store set up for each of
   update_mix's passes (at least 5).

   Prints the run's context, every end-to-end metric by name with its
   unit (and, with --trace 1, every per-layer metric), then a last line
   "RESULT <json>" that run.py turns into the benchmark's result line.
   Exits 1 when an answer was wrong, an operation raised, or a check
   failed. *)

let workloads =
  [
    ("serve_warm", Serve_warm.run);
    ("cold_analytic", Cold_analytic.run);
    ("update_mix", Update_mix.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and nproc = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve_warm | cold_analytic | update_mix");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per loop");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " online CPUs, as nproc reports them");
      ("--spans", Arg.Set_string spans, " traced run: write spans here as JSON lines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  if traced then
    Obs.Metrics.set_clock (fun () -> float_of_int (Probe.now_ns ()) *. 1e-9);
  let gc = Gc.get () in
  let r =
    run ~seed:!seed ~seconds:!seconds ~trace:traced
      ~spans:(if !spans = "" then None else Some !spans)
  in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let error_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  let e2e =
    r.e2e
    @ Outcome.
        [ m "heap_peak_mb" "MB" heap_peak_mb; m "error_frac" "ratio" error_frac ]
  in
  let say k v = Printf.printf "  %-28s %s\n" k v in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" !workload !seed
    !seconds !trace;
  print_endline "host:";
  say "nproc" (if !nproc > 0 then string_of_int !nproc else "unknown");
  say "recommended_domain_count" (string_of_int (Domain.recommended_domain_count ()));
  say "ocaml" Sys.ocaml_version;
  say "gc.minor_heap_size_words" (string_of_int gc.Gc.minor_heap_size);
  say "gc.space_overhead" (string_of_int gc.Gc.space_overhead);
  say "OCAMLRUNPARAM" (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
  print_endline "workload:";
  say "seed" (string_of_int !seed);
  List.iter (fun (k, v) -> say k v) r.context;
  let show title ms =
    print_endline title;
    List.iter
      (fun { Outcome.name; value; unit } ->
        Printf.printf "  %-32s %.6g %s\n" name value unit)
      ms
  in
  show "end-to-end:" e2e;
  if traced then show "per-layer (traced run):" r.layers;
  print_endline "checks:";
  say "answers" (Printf.sprintf "%d wrong or raised of %d" r.failed r.attempted);
  List.iter (fun (k, ok) -> say k (if ok then "ok" else "FAILED")) r.checks;
  let correct = r.failed = 0 && List.for_all snd r.checks in
  let json_metric { Outcome.name; value; unit } =
    Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name value unit
  in
  Printf.printf
    "RESULT {\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s},\"layers\":{%s}}\n"
    correct r.attempted r.failed
    (String.concat "," (List.map json_metric e2e))
    (String.concat "," (List.map json_metric r.layers));
  if not correct then exit 1
