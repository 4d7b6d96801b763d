(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) against the synthetic corpus, plus the simulated cost
   of a trampoline (§2/§5.2). `--quick` runs the cheap tables only.

   Per-CVE corpus work (each CVE boots its own machine) fans out across
   the {!Parallel} domain pool; results keep corpus order, so the output
   does not depend on the domain count. Host-time costs (create, run-pre,
   apply, undo) are measured by perfbench/, the benchmark of record.

   Experiments (see DESIGN.md's index):
     F3 — Figure 3, patches by patch length
     T1 — Table 1, patches requiring custom code
     H  — headline: 56/64 with no new code, 64/64 with custom code
     S1 — §6.3 ambiguous-symbol statistics
     S2 — §6.3 inlining statistics
     X  — §6.3 exploit verification
     R  — §4.3 robustness across build modes
     P  — trampoline cost in VM instructions per call *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Update = Ksplice.Update

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* domain budget for the per-CVE fan-outs: at least 2 so the pool
   machinery is exercised even on a single-core host *)
let par_domains () = max 2 (Parallel.default_domains ())

let base = Corpus.Base_kernel.tree ()

let create_cve_exn (cve : Corpus.Cve.t) =
  match
    Create.create
      { source = base; patch = Corpus.Cve.hot_patch cve base;
        update_id = cve.id; description = cve.desc }
  with
  | Ok c -> c
  | Error e ->
    Format.kasprintf failwith "%s: create failed: %a" cve.id Create.pp_error e

(* ---------- F3: Figure 3 ---------- *)

let figure3 () =
  section "Figure 3: number of patches by patch length (lines in patch)";
  let sizes =
    List.map
      (fun (c : Corpus.Cve.t) ->
        (Diff.stats (Corpus.Cve.mainline_patch c base)).changed)
      Corpus.Cve.all
  in
  let bucket_count lo hi =
    List.length (List.filter (fun s -> s > lo && s <= hi) sizes)
  in
  Printf.printf "%-12s %s\n" "lines" "patches";
  for b = 0 to 15 do
    let lo = b * 5 and hi = (b + 1) * 5 in
    let n = bucket_count lo hi in
    Printf.printf "%3d-%-3d      %2d %s\n" lo hi n (String.make n '#')
  done;
  let inf = List.length (List.filter (fun s -> s > 80) sizes) in
  Printf.printf "%-12s %2d %s\n" "  >80 (inf)" inf (String.make inf '#');
  let le n = List.length (List.filter (fun s -> s <= n) sizes) in
  Printf.printf
    "\nShape check vs paper: <=5 lines: %d (paper: 35); <=15 lines: %d \
     (paper: 53); total %d (paper: 64)\n"
    (le 5) (le 15) (List.length sizes)

(* ---------- T1: Table 1 ---------- *)

let paper_table1 =
  [ ("CVE-2008-0007", 34); ("CVE-2007-4571", 10); ("CVE-2007-3851", 1);
    ("CVE-2006-5753", 1); ("CVE-2006-2071", 14); ("CVE-2006-1056", 4);
    ("CVE-2005-3179", 20); ("CVE-2005-2709", 48) ]

let table1 () =
  section "Table 1: patches that cannot be applied without new code";
  Printf.printf "%-16s %-22s %10s %10s\n" "CVE ID" "reason" "new code"
    "(paper)";
  let total = ref 0 in
  List.iter
    (fun (c : Corpus.Cve.t) ->
      match c.custom with
      | None -> ()
      | Some (reason, _) ->
        let lines = Corpus.Cve.custom_code_lines c in
        total := !total + lines;
        let paper =
          match List.assoc_opt c.id paper_table1 with
          | Some n -> Printf.sprintf "%d lines" n
          | None -> "-"
        in
        Printf.printf "%-16s %-22s %6d lines %10s\n" c.id
          (Corpus.Cve.reason_to_string reason)
          lines paper)
    Corpus.Cve.all;
  let n =
    List.length
      (List.filter (fun (c : Corpus.Cve.t) -> c.custom <> None) Corpus.Cve.all)
  in
  Printf.printf "\naverage custom code: %.1f lines per patch (paper: ~17)\n"
    (float_of_int !total /. float_of_int n)

(* ---------- H: headline result ---------- *)

let headline () =
  section "Headline: applying all 64 security patches as hot updates";
  (* each CVE boots its own machine, so the per-CVE work is independent
     and fans out across the domain pool; the fold below is sequential *)
  let results =
    Parallel.map ~domains:(par_domains ())
      (fun (cve : Corpus.Cve.t) ->
        let c = create_cve_exn cve in
        let b = Corpus.Boot.boot () in
        let mgr = Apply.init b.machine in
        match Apply.apply mgr c.update with
        | Error e -> Error (Format.asprintf "%s: %a" cve.id Apply.pp_error e)
        | Ok a ->
          let stress = Corpus.Stress.run b ~threads:2 ~iterations:10 in
          if not stress.ok then
            Error (Printf.sprintf "%s: stress failed after apply" cve.id)
          else
            Ok
              ( cve.custom = None,
                a.pause_ns,
                List.fold_left
                  (fun acc (lo, hi) -> acc + hi - lo)
                  0 a.module_ranges ))
      Corpus.Cve.all
  in
  let no_code_ok = ref 0 in
  let custom_ok = ref 0 in
  let failures = ref [] in
  let pauses = ref [] in
  let module_bytes = ref [] in
  List.iter
    (function
      | Error f -> failures := f :: !failures
      | Ok (no_custom, pause, bytes) ->
        pauses := pause :: !pauses;
        module_bytes := bytes :: !module_bytes;
        if no_custom then incr no_code_ok else incr custom_ok)
    results;
  Printf.printf "applied without writing new code: %2d / 64  (paper: 56)\n"
    !no_code_ok;
  Printf.printf "applied with custom update code:  %2d      (paper:  8)\n"
    !custom_ok;
  Printf.printf "total applied:                    %2d / 64  (paper: 64)\n"
    (!no_code_ok + !custom_ok);
  (match !failures with
   | [] -> ()
   | l ->
     Printf.printf "FAILURES:\n";
     List.iter (fun f -> Printf.printf "  %s\n" f) l);
  (match !pauses with
   | [] -> ()
   | l ->
     let n = List.length l in
     let avg = List.fold_left ( + ) 0 l / n in
     Printf.printf
       "simulated stop_machine pause: avg %.3f ms (paper: ~0.7 ms)\n"
       (float_of_int avg /. 1e6));
  match !module_bytes with
  | [] -> ()
  | l ->
    let n = List.length l in
    Printf.printf
      "replacement-code memory: avg %d bytes, max %d bytes per update\n"
      (List.fold_left ( + ) 0 l / n)
      (List.fold_left max 0 l)

(* ---------- S1: ambiguous symbols ---------- *)

let symbol_stats () =
  section
    "Symbol statistics (paper 6.3: 6,164 ambiguous = 7.9%; 21.1% of units)";
  let b = Corpus.Boot.boot () in
  let total, ambiguous = Image.symbol_census b.image in
  Printf.printf "kallsyms symbols: %d; sharing a name: %d (%.1f%%)\n" total
    ambiguous
    (100.0 *. float_of_int ambiguous /. float_of_int total);
  let units =
    List.length
      (List.sort_uniq compare
         (List.map (fun (s : Image.syminfo) -> s.unit_name) b.image.kallsyms))
  in
  let amb_units = List.length (Image.units_with_ambiguous_symbol b.image) in
  Printf.printf
    "compilation units with an ambiguous symbol: %d / %d (%.1f%%)\n" amb_units
    units
    (100.0 *. float_of_int amb_units /. float_of_int units);
  (* patches whose replaced code references an ambiguous symbol *)
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (s : Image.syminfo) ->
      if not (String.length s.name >= 2 && s.name.[0] = '.') then
        Hashtbl.replace counts s.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name)))
    b.image.kallsyms;
  let is_ambiguous n =
    match Hashtbl.find_opt counts n with Some k -> k > 1 | None -> false
  in
  let cves_with_ambiguous =
    List.filter
      (fun (cve : Corpus.Cve.t) ->
        let c = create_cve_exn cve in
        List.exists
          (fun (s : Objfile.Section.t) ->
            s.kind = Objfile.Section.Text
            && List.exists
                 (fun (r : Objfile.Reloc.t) ->
                   let raw, _ = Update.split_canonical r.sym in
                   is_ambiguous raw)
                 s.relocs)
          c.update.primary.sections)
      Corpus.Cve.all
  in
  Printf.printf
    "patches touching a function that references an ambiguous symbol: %d \
     (paper: 5)\n"
    (List.length cves_with_ambiguous);
  List.iter
    (fun (c : Corpus.Cve.t) -> Printf.printf "  %s (%s)\n" c.id c.file)
    cves_with_ambiguous

(* ---------- S2: inlining ---------- *)

let inline_stats () =
  section "Inlining statistics (paper 6.3: 20/64 inlined, 4/64 explicit)";
  let run_build =
    Result.get_ok (Kbuild.build_tree ~options:Minic.Driver.run_build base)
  in
  let inlined = Kbuild.inlined_callees run_build in
  let inlined_in unit f =
    List.exists (fun (u, _, callee) -> u = unit && callee = f) inlined
  in
  let explicitly_inline unit f =
    match Tree.find base unit with
    | None -> false
    | Some src ->
      let probe = "inline int " ^ f ^ "(" in
      let rec search i =
        i + String.length probe <= String.length src
        && (String.sub src i (String.length probe) = probe || search (i + 1))
      in
      search 0
  in
  let count_pred pred =
    List.filter
      (fun (cve : Corpus.Cve.t) ->
        let c = create_cve_exn cve in
        List.exists
          (fun (d : Ksplice.Diffobj.unit_diff) ->
            List.exists (pred d.unit_name)
              (d.changed_functions @ d.new_functions))
          c.diffs)
      Corpus.Cve.all
  in
  let with_inlined = count_pred inlined_in in
  let with_explicit = count_pred explicitly_inline in
  Printf.printf
    "patches replacing a function inlined somewhere in the run kernel: %d \
     (paper: 20)\n"
    (List.length with_inlined);
  Printf.printf
    "patches replacing an explicitly-'inline' function: %d (paper: 4)\n"
    (List.length with_explicit);
  Printf.printf "inlining decisions in the run kernel build: %d\n"
    (List.length inlined)

(* ---------- X: exploits ---------- *)

let exploits () =
  section "Exploit verification (paper 6.3: works before, fails after)";
  Printf.printf "%-16s %-34s %-8s %-8s\n" "CVE ID" "exploit" "before" "after";
  let rows =
    Parallel.map ~domains:(par_domains ())
      (fun (e : Corpus.Exploits.t) ->
        let cve = Option.get (Corpus.Cve.find e.cve_id) in
        let b1 = Corpus.Boot.boot () in
        let before = (e.run b1).succeeded in
        let b2 = Corpus.Boot.boot () in
        let c = create_cve_exn cve in
        let mgr = Apply.init b2.machine in
        (match Apply.apply mgr c.update with
         | Ok _ -> ()
         | Error err ->
           Format.kasprintf failwith "%s: apply: %a" cve.id Apply.pp_error err);
        let after = (e.run b2).succeeded in
        (e.cve_id, e.name, before, after))
      Corpus.Exploits.all
  in
  List.iter
    (fun (cve_id, name, before, after) ->
      Printf.printf "%-16s %-34s %-8s %-8s\n" cve_id name
        (if before then "works" else "FAILS")
        (if after then "WORKS" else "blocked"))
    rows

(* ---------- R: run-pre robustness across build modes ---------- *)

let runpre_robustness () =
  section "Run-pre matching across build modes (paper 4.3)";
  (* the run kernel is built without function sections (aligned loops,
     resolved intra-unit calls); every pre object is built with them; all
     64 updates must still match *)
  let results =
    Parallel.map ~domains:(par_domains ())
      (fun (cve : Corpus.Cve.t) ->
        let c = create_cve_exn cve in
        let b = Corpus.Boot.boot () in
        let mgr = Apply.init b.machine in
        match Apply.apply mgr c.update with
        | Ok _ ->
          Some
            (List.fold_left
               (fun acc (h : Objfile.t) ->
                 acc
                 + List.length
                     (List.filter
                        (fun (s : Objfile.Section.t) ->
                          s.kind = Objfile.Section.Text)
                        h.sections))
               0 c.update.helpers)
        | Error _ -> None)
      Corpus.Cve.all
  in
  let matched = List.length (List.filter Option.is_some results) in
  let total_sections =
    List.fold_left
      (fun acc -> function Some n -> acc + n | None -> acc)
      0 results
  in
  Printf.printf
    "updates whose pre code (function-sections build) matched the running \
     kernel (distro-style build): %d / 64\n"
    matched;
  Printf.printf
    "pre text sections byte-matched against run memory in total: %d\n"
    total_sections

(* ---------- consequences (§6.1) ---------- *)

let consequences () =
  section
    "Vulnerability consequences (paper 6.1: ~2/3 escalation, ~1/3 disclosure)";
  let priv, info =
    List.partition
      (fun (c : Corpus.Cve.t) -> c.consequence = Corpus.Cve.Priv_escalation)
      Corpus.Cve.all
  in
  Printf.printf "privilege escalation:   %2d / 64 (%.0f%%)
"
    (List.length priv)
    (100.0 *. float_of_int (List.length priv) /. 64.0);
  Printf.printf "information disclosure: %2d / 64 (%.0f%%)
"
    (List.length info)
    (100.0 *. float_of_int (List.length info) /. 64.0)

(* ---------- appendix: per-patch detail ---------- *)

let appendix () =
  section "Appendix: per-patch detail";
  Printf.printf "%-16s %-6s %6s %9s %7s %s
" "CVE ID" "kind" "lines"
    "replaced" "custom" "unit";
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      let c = create_cve_exn cve in
      let lines =
        (Diff.stats (Corpus.Cve.mainline_patch cve base)).changed
      in
      Printf.printf "%-16s %-6s %6d %9d %7d %s
" cve.id
        (match cve.consequence with
         | Corpus.Cve.Priv_escalation -> "priv"
         | Corpus.Cve.Info_disclosure -> "info")
        lines
        (List.length c.update.replaced_functions)
        (Corpus.Cve.custom_code_lines cve)
        cve.file)
    Corpus.Cve.all

(* ---------- B: source-level baseline comparison (§6.3/§7.1) ---------- *)

let baseline () =
  section
    "Source-level baseline (OPUS/LUCOS/DynAMOS-style) vs Ksplice (6.3)";
  let b = Corpus.Boot.boot () in
  let per_cve =
    Parallel.map ~domains:(par_domains ())
      (fun (cve : Corpus.Cve.t) ->
        let patch = Corpus.Cve.hot_patch cve base in
        match
          Ksplice.Source_level.evaluate ~source:base ~patch ~image:b.image
        with
        | Error m -> failwith (cve.id ^ ": baseline evaluation failed: " ^ m)
        | Ok v -> (cve.id, v.failures))
      Corpus.Cve.all
  in
  let missed = ref 0 and inl = ref 0 and amb = ref 0 in
  let statics = ref 0 and asm = ref 0 in
  let unsafe = ref [] in
  List.iter
    (fun (id, failures) ->
      if failures <> [] then unsafe := id :: !unsafe;
      List.iter
        (function
          | Ksplice.Source_level.Missed_object_changes _ -> incr missed
          | Ksplice.Source_level.Inline_sites_missed _ -> incr inl
          | Ksplice.Source_level.Ambiguous_symbol _ -> incr amb
          | Ksplice.Source_level.Static_local_lost _ -> incr statics
          | Ksplice.Source_level.Assembly_file _ -> incr asm)
        failures)
    per_cve;
  let n_unsafe = List.length !unsafe in
  Printf.printf "patches a source-level system handles safely: %2d / 64\n"
    (64 - n_unsafe);
  Printf.printf "patches Ksplice handles safely:               64 / 64\n\n";
  Printf.printf "source-level failure reasons (a patch may have several):\n";
  Printf.printf "  object code changed without source change:  %2d\n" !missed;
  Printf.printf "  stale inlined copies left running:          %2d  (paper: 20 patches touch inlined fns)\n" !inl;
  Printf.printf "  unresolvable/ambiguous symbols:             %2d  (paper: 5)\n" !amb;
  Printf.printf "  static-local state lost:                    %2d\n" !statics;
  Printf.printf "  pure assembly files:                        %2d  (paper: CVE-2007-4573)\n" !asm

(* ---------- V: kernel release matrix (§6.2 methodology) ---------- *)

let kernel_matrix () =
  section "Kernel release matrix (paper 6.2: 14 kernels, no one needs all 64)";
  Printf.printf "%-22s %12s %12s %12s\n" "release" "incorporated"
    "applicable" "applied";
  List.iter
    (fun (v : Corpus.Versions.t) ->
      let apps = Corpus.Versions.applicable v in
      let applied_flags =
        Parallel.map ~domains:(par_domains ())
          (fun (cve : Corpus.Cve.t) ->
            match Corpus.Versions.hot_patch cve v with
            | None -> false
            | Some patch -> (
              match
                Create.create
                  { source = v.tree; patch; update_id = cve.id;
                    description = cve.desc }
              with
              | Error _ -> false
              | Ok { update; _ } -> (
                let b = Corpus.Boot.boot ~tree:v.tree () in
                let mgr = Apply.init b.machine in
                match Apply.apply mgr update with
                | Ok _ -> true
                | Error _ -> false)))
          apps
      in
      let applied = List.length (List.filter Fun.id applied_flags) in
      Printf.printf "%-22s %12d %12d %12d\n" v.name
        (List.length v.incorporated)
        (List.length apps) applied)
    (Corpus.Versions.all ());
  Printf.printf
    "\n(Each release already ships the previous eras' fixes, so later \
     releases need fewer of the 64 patches — every applicable patch hot-\
     applies on its release.)\n"

(* ---------- A: ablation of matcher capabilities (§4.3) ---------- *)

let ablation () =
  section "Ablation: why run-pre matching needs architecture knowledge";
  let attempt tolerance (cve : Corpus.Cve.t) =
    let c = create_cve_exn cve in
    let b = Corpus.Boot.boot () in
    let mgr = Apply.init b.machine in
    match Apply.apply ~tolerance mgr c.update with
    | Ok _ -> true
    | Error _ -> false
  in
  let count tolerance =
    List.length
      (List.filter Fun.id
         (Parallel.map ~domains:(par_domains ()) (attempt tolerance)
            Corpus.Cve.all))
  in
  let full = Ksplice.Runpre.full_tolerance in
  Printf.printf "%-52s %2d / 64\n" "full matcher (nop skip + jump equivalence):"
    (count full);
  Printf.printf "%-52s %2d / 64\n" "without no-op recognition:"
    (count { full with skip_nops = false });
  Printf.printf "%-52s %2d / 64\n" "without short/long jump equivalence:"
    (count { full with jump_equivalence = false });
  Printf.printf
    "\n(The paper's §4.3: the matcher \"needs some architecture-specific \
     pieces of information\" — no-op sequences and relative-jump \
     equivalence. A byte-exact matcher rejects safe updates whenever the \
     distro build aligned a loop head that the pre build did not.)\n"


(* ---------- P: trampoline cost (§2/§5.2) ---------- *)

(* The cost of a replaced function is the jump its trampoline adds to
   every call, counted in retired VM instructions: a simulated quantity,
   independent of the host. *)
let trampoline_cost () =
  section "Trampoline cost (simulated, VM instructions per call)";
  let cve = Option.get (Corpus.Cve.find "CVE-2006-2451") in
  let c = create_cve_exn cve in
  let insns_per_call patched =
    let b = Corpus.Boot.boot () in
    (if patched then
       match Apply.apply (Apply.init b.machine) c.update with
       | Ok _ -> ()
       | Error e ->
         Format.kasprintf failwith "%s: apply: %a" cve.id Apply.pp_error e);
    let addr = (Option.get (Image.lookup_global b.image "sys_prctl")).addr in
    let before = Machine.instructions_retired b.machine in
    match Machine.call_function b.machine ~addr ~args:[ 3l; 0l ] with
    | Ok _ -> Machine.instructions_retired b.machine - before
    | Error _ -> failwith "sys_prctl faulted"
  in
  let plain = insns_per_call false and patched = insns_per_call true in
  Printf.printf
    "sys_prctl: %d instructions unpatched, %d patched: %+d per call \
     through the trampoline\n"
    plain patched (patched - plain)

let () =
  let quick = ref false in
  Arg.parse
    (Arg.align [ ("--quick", Arg.Set quick, " the cheap tables only (for CI)") ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--quick]";
  print_endline "Ksplice reproduction - evaluation benchmarks";
  print_endline "(paper: Arnold & Kaashoek, EuroSys 2009)";
  figure3 ();
  table1 ();
  consequences ();
  if not !quick then begin
    headline ();
    symbol_stats ();
    inline_stats ();
    exploits ();
    runpre_robustness ();
    baseline ();
    kernel_matrix ();
    ablation ();
    appendix ()
  end;
  trampoline_cost ();
  print_endline "\nAll experiments complete."
