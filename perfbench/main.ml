(* The pipeline benchmark of record:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up, then runs whole passes of closed-loop ops, one
   after another from a single client, until [S] seconds have passed,
   checking every op; then sets it up again a few times, for the median
   set-up time. With
   --trace 0 the last stdout line is a JSON object with the end-to-end
   metrics; with --trace 1 the workload runs S/2 seconds untraced and S/2
   traced, on the same seed, and the line carries the per-layer metrics
   (the spans are also written to .perfbench/). Simulated quantities are
   taken over the first pass, whose work the seed alone fixes, and
   printed apart from host time. *)

(* set-up is timed at least [setup_min] times, and more while the
   repeats fit in [setup_budget_s]; the run uses the first set-up *)
let setup_min = 5
let setup_max = 50
let setup_budget_s = 1.0

type loop = {
  sorted_ns : float array;
      (** every op's host time, ascending; [infinity] if it failed *)
  busy_ns : int;  (** host time inside the timed ops, failed ones too *)
  attempted : int;
  failed : int;
  errors : string list;  (** first few failure messages *)
  trace_error : string option;  (** the traced spans are not whole *)
  first_pass : Meter.snapshot;
  minor_words : float;  (** allocated inside the timed ops *)
  major_collections : int;  (** finished inside the timed ops *)
}

(* Percentiles run over every op of the run, so a cost the program pays
   on only some repetitions (a GC slice, growth of a long-lived machine)
   reaches the tail, and a failed op enters as [infinity], so a failure
   never reads as fast. Pooling the whole run also suits a host that
   switches between a fast and a 1.5x slower regime every few seconds,
   as a shared 2-vCPU VM did: the pooled figure moves with the share of
   time spent in each, where a median of shorter windows flips between
   them. *)
let pct l p = Meter.percentile l.sorted_ns p

(* one client in a closed loop: completed ops per second spent in the
   timed ops (the untimed upkeep between ops is not the program's) *)
let ops_per_s l = float (l.attempted - l.failed) /. (float l.busy_ns *. 1e-9)

(* process-wide counters the program keeps itself; their deltas are
   taken around the timed ops only, so the benchmark's own upkeep (the
   fleet-rollout reference machine, machine replacement) never enters *)
let global_counts () =
  let k = Kbuild.cache_stats () and s = Kernel.Machine.kallsyms_index_stats () in
  [ ("kbuild.hits", k.hits); ("kbuild.misses", k.misses);
    ("kallsyms.lookups", s.lookups); ("kallsyms.hits", s.hits);
    ("runpre.trials", Ksplice.Runpre.match_attempts ()) ]

let run_loop (w : Workloads.t) ~seconds ~traced =
  Meter.reset_tallies ();
  Gc.full_major ();
  let minor_words = ref 0. and majors = ref 0 in
  let lat = ref [] and busy = ref 0 in
  if traced then Meter.start_tracing ();
  let t_end = Meter.now_ns () + int_of_float (seconds *. 1e9) in
  let failed = ref 0 and errors = ref [] in
  let first_pass = ref [] and i = ref 0 in
  let trace_err = ref None and after_failure = ref false in
  while !i mod w.pass <> 0 || !i = 0 || Meter.now_ns () < t_end do
    if traced then Trace.set_enabled false;
    w.upkeep !i ~after_failure:!after_failure;
    if traced then Trace.set_enabled true;
    let op () =
      match w.op !i with r -> r | exception e -> Error (Printexc.to_string e)
    in
    let c0 = if !i < w.pass then global_counts () else [] in
    let g0 = Gc.quick_stat () in
    let t0 = Meter.now_ns () in
    let r =
      if traced then
        Trace.with_span "op" ~fields:[ ("op", Trace.Int !i) ] op
      else op ()
    in
    let dt = Meter.now_ns () - t0 in
    let g1 = Gc.quick_stat () in
    if c0 <> [] then
      List.iter2 (fun (k, a) (_, b) -> Meter.addi k (b - a)) c0 (global_counts ());
    busy := !busy + dt;
    minor_words := !minor_words +. (g1.minor_words -. g0.minor_words);
    majors := !majors + (g1.major_collections - g0.major_collections);
    after_failure := Result.is_error r;
    (match r with
     | Ok () -> lat := float dt :: !lat
     | Error m ->
       incr failed;
       lat := infinity :: !lat;
       if List.length !errors < 5 then
         errors := Printf.sprintf "op %d: %s" !i m :: !errors);
    incr i;
    if !i mod w.pass = 0 then begin
      if traced then
        (match Meter.harvest () with
         | Ok () -> ()
         | Error m -> if !trace_err = None then trace_err := Some m);
      if !i = w.pass then first_pass := Meter.snapshot ()
    end
  done;
  if traced then Meter.stop_tracing ();
  {
    sorted_ns = Meter.sorted !lat;
    busy_ns = !busy;
    attempted = !i;
    failed = !failed;
    errors = List.rev !errors;
    trace_error = !trace_err;
    first_pass = !first_pass;
    minor_words = !minor_words;
    major_collections = !majors;
  }

(* each set-up starts cold (Gc settled, compile cache dropped by the
   workload itself) *)
let timed_setup name ~seed =
  Gc.full_major ();
  let t0 = Meter.now_ns () in
  let w = Workloads.setup name ~seed in
  (w, float (Meter.now_ns () - t0) *. 1e-9)

(* set-up times after the first: at least [setup_min] - 1 more, and more
   while they fit in [setup_budget_s] *)
let more_setups name ~seed =
  let t0 = Meter.now_ns () in
  let rec go k times =
    let spent = float (Meter.now_ns () - t0) *. 1e-9 in
    if k >= setup_max || (k >= setup_min && spent >= setup_budget_s) then times
    else go (k + 1) (snd (timed_setup name ~seed) :: times)
  in
  go 1 []

let controls (w : Workloads.t) =
  List.map
    (fun (what, caught) ->
      let ok = match caught () with b -> b | exception _ -> false in
      (what, ok))
    w.controls

(* ---------- output ---------- *)

let num v =
  if Float.is_nan v then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if v = infinity then "1e308"
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let show_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %16s %s\n" name (num v) unit)
    ms

(* the op latency under the name each workload gives its op *)
let op_latency name l =
  let ms p = pct l p *. 1e-6 in
  match name with
  | "cve-lifecycle" -> [ ("lifecycle_ms.p50", ms 0.5, "ms"); ("lifecycle_ms.p90", ms 0.9, "ms") ]
  | "apply-churn" ->
    let us p = pct l p *. 1e-3 in
    [ ("cycle_us.p50", us 0.5, "us"); ("cycle_us.p99", us 0.99, "us") ]
  | "release-matrix" -> [ ("release_ms.p50", ms 0.5, "ms"); ("release_ms.p90", ms 0.9, "ms") ]
  | _ -> [ ("rollout_ms.p50", ms 0.5, "ms"); ("rollout_ms.p90", ms 0.9, "ms") ]

let ratio a b = if b = 0. then 0. else a /. b

(* simulated quantities over the first pass: a function of the seed and
   the program only, identical on every run *)
let simulated (w : Workloads.t) s =
  let g = Meter.get s in
  [ ("kernel.insns_per_op", ratio (g "sim.insns") (float w.pass), "count");
    ("sim_pause_ns.max", g "sim.pause_ns_max", "sim_ns");
    ("apply.module_bytes", ratio (g "sim.module_bytes") (g "apply.calls"), "B");
    ("runpre.trials_per_apply", ratio (g "runpre.trials") (g "apply.calls"), "count");
    ("transition.migrations", ratio (g "sim.migrations") (float w.pass), "count");
    ("transition.rounds", ratio (g "sim.rounds") (float w.pass), "count");
    ("transition.sched_steps", ratio (g "sim.sched_steps") (float w.pass), "count");
    ("transition.fallbacks", ratio (g "sim.fallbacks") (float w.pass), "count");
    ("update_bytes", ratio (g "update.bytes") (g "update.encodes"), "B");
    ("wire_bytes", ratio (g "fleet.wire_bytes") (g "fleet.syncs"), "B");
    ("fleet.blobs_fetched", ratio (g "fleet.blobs_fetched") (g "fleet.syncs"), "count");
    ("fleet.redundant_receives", g "fleet.redundant_receives", "count") ]

(* counts over the first pass that are host-independent too *)
let counted s =
  let g = Meter.get s in
  [ ("kbuild.cache_hit_ratio", ratio (g "kbuild.hits") (g "kbuild.hits" +. g "kbuild.misses"), "ratio");
    ("create.skipped_units", ratio (g "create.skipped_units") (g "create.calls"), "count");
    ("create.shipped_symbols", ratio (g "create.shipped_symbols") (g "create.calls"), "count");
    ("store.hit_ratio", ratio (g "store.hits") (g "store.hits" +. g "store.misses"), "ratio");
    ("store.dedup_ratio", ratio (g "store.dedup_hits") (g "store.puts"), "ratio");
    ("kernel.kallsyms_hit_ratio", ratio (g "kallsyms.hits") (g "kallsyms.lookups"), "ratio") ]

let apply_steps =
  [ "allocate"; "link"; "relocate"; "hook-pre"; "capture"; "transition";
    "quiesce"; "trampoline"; "commit" ]

let layers =
  [ "patchfmt"; "kbuild"; "create"; "update"; "repository"; "fleet"; "boot";
    "runpre"; "apply"; "kernel"; "op" ]

(* per-layer times from the traced loop's spans *)
let span_times (traced : loop) =
  let us n = Meter.mean_incl n ~scale:1e3 and ms n = Meter.mean_incl n ~scale:1e6 in
  let self = Meter.self_by_layer () in
  [ ("patchfmt.hot_patch_us", us "patchfmt.hot_patch", "us");
    ("kbuild.build_tree_ms", ms "kbuild.build_tree", "ms");
    ("create.create_ms", ms "create.create", "ms");
    ("update.encode_us", us "update.encode", "us");
    ("update.decode_us", us "update.decode", "us");
    ("repository.pending_us", us "repository.pending", "us");
    ("fleet.sync_us", us "fleet.sync", "us");
    ("boot.boot_ms", ms "boot.boot", "ms");
    ("apply.apply_us", us "apply.apply", "us");
    ("apply.verify_us", us "apply.verify", "us");
    ("apply.undo_us", us "apply.undo", "us");
    ("kernel.stress_ms", ms "kernel.stress", "ms");
    ("kernel.exploit_ms", ms "kernel.exploit", "ms") ]
  @ List.map
      (fun s -> (Printf.sprintf "apply.step.%s_us" s, us ("apply.step." ^ s), "us"))
      apply_steps
  @ List.map
      (fun l ->
        let ns = Option.value ~default:0 (List.assoc_opt l self) in
        ( Printf.sprintf "self.%s_ms_per_op" l,
          float ns *. 1e-6 /. float traced.attempted, "ms" ))
      layers

let write_trace ~name ~seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let totals =
    Hashtbl.fold
      (fun n (t : Meter.span_total) acc ->
        ( n,
          Report.Json.Obj
            [ ("calls", Num (float t.calls)); ("incl_ns", Num (float t.incl_ns));
              ("self_ns", Num (float t.self_ns)) ] )
        :: acc)
      Meter.totals []
    |> List.sort compare
  in
  let doc =
    Report.Json.Obj
      [ ("schema", Str "perfbench-trace/1"); ("workload", Str name);
        ("seed", Num (float seed)); ("span_totals", Obj totals);
        ("first_pass_records", Arr (List.map Trace.record_json !Meter.sample)) ]
  in
  let path = Printf.sprintf "%s/trace-%s-%d.json" dir name seed in
  match Report.Json.to_file path doc with
  | Ok () -> Printf.printf "trace written to %s\n" path
  | Error m -> Printf.printf "trace not written: %s\n" m

let header name ~seed ~seconds ~trace (w : Workloads.t) =
  Printf.printf "perfbench %s  seed=%d  seconds=%g  trace=%d  domains=%d  pass=%d ops\n"
    name seed seconds trace Workloads.domains w.pass;
  List.iter
    (fun (k, l) -> Printf.printf "picks %s: %s\n" k (String.concat " " l))
    w.picks

let report_loop name (l : loop) =
  Printf.printf "ops: %d attempted, %d failed (failed_ratio %s)\n" l.attempted
    l.failed (num (ratio (float l.failed) (float l.attempted)));
  List.iter (Printf.printf "  failure %s\n") l.errors;
  Option.iter (Printf.printf "  trace incomplete: %s\n") l.trace_error;
  show_metrics "end-to-end, host time:"
    (("ops_per_s", ops_per_s l, "1/s") :: op_latency name l)

let report_controls cs =
  List.iter
    (fun (what, ok) ->
      Printf.printf "negative control %-30s %s\n" what
        (if ok then "counted as failed" else "NOT CAUGHT"))
    cs

let untraced_run name ~seed ~seconds =
  let w, first = timed_setup name ~seed in
  header name ~seed ~seconds ~trace:0 w;
  let l = run_loop w ~seconds ~traced:false in
  (* read before the set-up repeats below, whose garbage would raise the
     high-water mark (4x, to 56 MB, on release-matrix) *)
  let rss = Meter.peak_rss_mb () in
  let cs = controls w in
  let times = first :: more_setups name ~seed in
  let setup_s = Meter.median times in
  Printf.printf "set-up: median %.4g s of %d (min %.4g, max %.4g)\n" setup_s
    (List.length times) (List.fold_left Float.min infinity times)
    (List.fold_left Float.max 0. times);
  report_loop name l;
  show_metrics "simulated, first pass:" (simulated w l.first_pass);
  report_controls cs;
  let correct = l.failed = 0 && List.for_all snd cs in
  result_line ~correct ~attempted:l.attempted ~failed:l.failed
    [ ("setup_s", setup_s, "s"); ("ops_per_s", ops_per_s l, "1/s");
      ("op_ms.p50", pct l 0.5 *. 1e-6, "ms"); ("op_ms.p90", pct l 0.9 *. 1e-6, "ms");
      ("peak_rss_mb", rss, "MB") ]

let traced_run name ~seed ~seconds =
  let w, _ = timed_setup name ~seed in
  header name ~seed ~seconds ~trace:1 w;
  let plain = run_loop w ~seconds:(seconds /. 2.) ~traced:false in
  let w, _ = timed_setup name ~seed in
  let traced = run_loop w ~seconds:(seconds /. 2.) ~traced:true in
  let cs = controls w in
  write_trace ~name ~seed;
  report_loop name traced;
  let sim = simulated w traced.first_pass in
  (* tracing must not move a single simulated count *)
  let sim_repeats = sim = simulated w plain.first_pass in
  let oom =
    if name = "apply-churn" then Workloads.cycles_to_module_oom ~seed
    else Ok 0
  in
  let per_op v = v /. float plain.attempted in
  let times =
    span_times traced
    @ [ ("trace_overhead", ratio (ops_per_s traced) (ops_per_s plain), "ratio") ]
  in
  let counts =
    counted traced.first_pass
    @ [ ( "apply.quiescence_retries",
          ratio
            (Meter.get traced.first_pass "trace.apply.quiescence_retries")
            (Meter.get traced.first_pass "apply.calls"),
          "count" );
        ("apply.cycles_to_module_oom", float (Result.value oom ~default:0), "count");
        ("ocaml.minor_words_per_op", per_op plain.minor_words, "words");
        ("ocaml.major_collections_per_op", per_op (float plain.major_collections), "count") ]
  in
  Printf.printf "untraced: %s ops/s; traced: %s ops/s\n" (num (ops_per_s plain))
    (num (ops_per_s traced));
  show_metrics "per layer, host time (traced spans; self = minus child spans):" times;
  show_metrics "per layer, counts (first pass; GC from the untraced ops):" counts;
  show_metrics "simulated, first pass:" sim;
  Printf.printf "simulated counts identical untraced vs traced: %b\n" sim_repeats;
  (match oom with Ok _ -> () | Error m -> Printf.printf "oom probe failed: %s\n" m);
  report_controls cs;
  let correct =
    plain.failed = 0 && traced.failed = 0 && traced.trace_error = None
    && sim_repeats && Result.is_ok oom
    && List.for_all snd cs
  in
  result_line ~correct ~attempted:(plain.attempted + traced.attempted)
    ~failed:(plain.failed + traced.failed) (times @ counts @ sim)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, String.concat "|" Workloads.names);
      ("--seed", Arg.Set_int seed, "N  seeds every order and pick");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  Logs.set_level (Some Logs.Error);
  match !trace with
  | 0 -> untraced_run !workload ~seed:!seed ~seconds:!seconds
  | 1 -> traced_run !workload ~seed:!seed ~seconds:!seconds
  | _ ->
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
