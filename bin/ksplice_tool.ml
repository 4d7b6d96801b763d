(* ksplice-tool: command-line front end mirroring the paper's §5 workflow:

     ksplice-tool create --source DIR --patch FILE -o UPDATE
     ksplice-tool inspect UPDATE
     ksplice-tool list-cves
     ksplice-tool demo --cve ID

   create/inspect operate on real files (source directories, unified
   diffs, binary update files); demo boots the evaluation kernel in-process
   and walks one corpus CVE end to end, since a live kernel cannot
   meaningfully live in a file. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Update = Ksplice.Update
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* load a source tree from a directory: every .c/.s file, with paths
   relative to the root *)
let read_tree root =
  let rec walk acc dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk acc path
        else if
          Filename.check_suffix entry ".c" || Filename.check_suffix entry ".s"
        then begin
          let rel =
            String.sub path
              (String.length root + 1)
              (String.length path - String.length root - 1)
          in
          (rel, read_file path) :: acc
        end
        else acc)
      acc (Sys.readdir dir)
  in
  Tree.of_list (walk [] root)

(* --explain: every shipped symbol of the primary, with the reason the
   differencing engine included it, grouped per patched unit and tied
   back to the unit's slice of the source patch *)
let print_explanation (c : Create.created) =
  print_string "why each symbol ships:\n";
  List.iter
    (fun (p : Create.provenance) ->
      Printf.printf "  %s: %d hunk%s, +%d/-%d lines\n" p.p_unit p.p_hunks
        (if p.p_hunks = 1 then "" else "s")
        p.p_patch.added p.p_patch.removed;
      if p.p_shipped = [] then
        print_string "    (no object code shipped from this unit)\n"
      else
        List.iter
          (fun (sym, reason) ->
            Printf.printf "    %-32s %s\n" sym
              (Ksplice.Prepost.reason_to_string reason))
          p.p_shipped)
    c.provenance

let cmd_create source patch_file output id desc explain =
  let tree = read_tree source in
  let patch_text = read_file patch_file in
  match Diff.parse patch_text with
  | Error e ->
    Printf.eprintf "error: cannot parse patch: %s\n" e;
    exit 1
  | Ok patch -> (
    match
      Create.create { source = tree; patch; update_id = id; description = desc }
    with
    | Error e ->
      Format.eprintf "error: %a@." Create.pp_error e;
      exit 1
    | Ok ({ update; diffs; _ } as created) ->
      Update.write_file output update;
      Printf.printf "Ksplice update written to %s\n" output;
      List.iter
        (fun (d : Ksplice.Prepost.unit_diff) ->
          Format.printf "%a@." Ksplice.Prepost.pp_unit_diff d)
        diffs;
      if explain then print_explanation created)

let cmd_inspect path =
  let u = Update.read_file path in
  Printf.printf "update:      %s\n" u.update_id;
  Printf.printf "description: %s\n" u.description;
  Printf.printf "patched units (%d):\n" (List.length u.patched_units);
  List.iter (fun f -> Printf.printf "  %s\n" f) u.patched_units;
  Printf.printf "replaced functions (%d):\n"
    (List.length u.replaced_functions);
  List.iter
    (fun (unit_name, f) -> Printf.printf "  %-28s (%s)\n" f unit_name)
    u.replaced_functions;
  let section_bytes (o : Objfile.t) =
    List.fold_left
      (fun a (s : Objfile.Section.t) -> a + s.size)
      0 o.sections
  in
  Printf.printf "primary module: %d sections, %d bytes\n"
    (List.length u.primary.sections)
    (section_bytes u.primary);
  Printf.printf "helper modules: %d (%d bytes total)\n"
    (List.length u.helpers)
    (List.fold_left (fun a h -> a + section_bytes h) 0 u.helpers)

let cmd_objdump path =
  let data = read_file path in
  if String.length data >= 5 && String.sub data 0 5 = "KSPL1" then begin
    match Update.of_bytes (Bytes.of_string data) with
    | Error e ->
      Printf.eprintf "error: corrupt update file: %s\n"
        (Update.decode_error_to_string e);
      exit 1
    | Ok u ->
      Printf.printf "update %s\n\n=== primary module ===\n" u.update_id;
      Format.printf "%a@." Objfile.Objdump.pp u.primary;
      List.iter
        (fun h ->
          Printf.printf "\n=== helper (pre) module: %s ===\n"
            h.Objfile.unit_name;
          Format.printf "%a@." Objfile.Objdump.pp h)
        u.helpers
  end
  else
    match Objfile.of_bytes (Bytes.of_string data) with
    | Ok o -> Format.printf "%a@." Objfile.Objdump.pp o
    | Error e ->
      Printf.eprintf "error: not an update or object file: %s\n"
        (Objfile.decode_error_to_string e);
      exit 1

let cmd_export dir =
  (* write the evaluation kernel's source tree plus every CVE patch, so
     the file-based create workflow can be driven by hand:
       ksplice-tool export --dir /tmp/ws
       ksplice-tool create --source /tmp/ws/src \
         --patch /tmp/ws/patches/CVE-2006-2451.patch -o u.ksplice *)
  let base = Corpus.Base_kernel.tree () in
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  mkdir dir;
  let src_dir = Filename.concat dir "src" in
  mkdir src_dir;
  mkdir (Filename.concat src_dir "kernel");
  List.iter
    (fun (path, contents) ->
      let oc = open_out (Filename.concat src_dir path) in
      output_string oc contents;
      close_out oc)
    (Tree.bindings base);
  let patch_dir = Filename.concat dir "patches" in
  mkdir patch_dir;
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      let oc =
        open_out (Filename.concat patch_dir (cve.id ^ ".patch"))
      in
      output_string oc (Diff.to_string (Corpus.Cve.hot_patch cve base));
      close_out oc)
    Corpus.Cve.all;
  Printf.printf "exported kernel source to %s and %d patches to %s\n"
    src_dir (List.length Corpus.Cve.all) patch_dir

let cmd_list_cves () =
  Printf.printf "%-16s %-6s %-20s %s\n" "CVE ID" "custom" "file" "description";
  List.iter
    (fun (c : Corpus.Cve.t) ->
      Printf.printf "%-16s %-6s %-20s %s\n" c.id
        (match c.custom with
         | Some _ -> "yes"
         | None -> "no")
        c.file
        (if String.length c.desc > 60 then String.sub c.desc 0 57 ^ "..."
         else c.desc))
    Corpus.Cve.all

let cmd_demo cve_id =
  match Corpus.Cve.find cve_id with
  | None ->
    Printf.eprintf "error: unknown CVE %s (try list-cves)\n" cve_id;
    exit 1
  | Some cve ->
    Printf.printf "== %s: %s\n\n" cve.id cve.desc;
    Printf.printf "[1] booting the kernel (distro-style build)...\n";
    let b = Corpus.Boot.boot () in
    let exploit = Corpus.Exploits.find cve.id in
    (match exploit with
     | Some e ->
       (* prove the vulnerability on a throwaway kernel: exploiting the
          real one first would leave corrupted state behind — a patch
          cannot un-compromise a kernel (§7.2) *)
       let sacrificial = Corpus.Boot.boot () in
       let r = e.run sacrificial in
       Printf.printf
         "[2] exploit '%s' on a sacrificial kernel: %s (%s)\n" e.name
         (if r.succeeded then "SUCCEEDS" else "fails")
         r.detail
     | None -> Printf.printf "[2] no exploit recorded for this CVE\n");
    Printf.printf "[3] ksplice-create: building pre and post, diffing...\n";
    let base = Corpus.Base_kernel.tree () in
    let patch = Corpus.Cve.hot_patch cve base in
    (match
       Create.create
         { source = base; patch; update_id = cve.id; description = cve.desc }
     with
     | Error e ->
       Format.eprintf "create failed: %a@." Create.pp_error e;
       exit 1
     | Ok { update; diffs; _ } ->
       List.iter
         (fun (d : Ksplice.Prepost.unit_diff) ->
           Printf.printf "    %s: replacing %s\n" d.unit_name
             (String.concat ", " d.changed_functions))
         diffs;
       Printf.printf "[4] ksplice-apply: run-pre matching, stop_machine, \
                      trampolines...\n";
       let mgr = Apply.init b.machine in
       (match Apply.apply mgr update with
        | Error e ->
          Format.eprintf "apply failed: %a@." Apply.pp_error e;
          exit 1
        | Ok a ->
          Printf.printf "    applied; simulated pause %.3f ms; %d \
                         trampoline(s)\n"
            (float_of_int a.pause_ns /. 1e6)
            (List.length a.saved));
       (match exploit with
        | Some e ->
          let r = e.run b in
          Printf.printf "[5] exploit against the patched kernel: %s (%s)\n"
            (if r.succeeded then "STILL WORKS - BUG" else "blocked")
            r.detail
        | None -> ());
       let stress = Corpus.Stress.run b ~threads:2 ~iterations:10 in
       Printf.printf "[6] stress test: %s\n"
         (if stress.ok then "passed" else "FAILED");
       (match Apply.undo mgr cve.id with
        | Ok () -> Printf.printf "[7] ksplice-undo: original code restored\n"
        | Error e -> Format.printf "[7] undo failed: %a@." Apply.pp_error e);
       (match exploit with
        | Some e ->
          let r = e.run b in
          Printf.printf "[8] exploit after undo: %s (the hole is back)\n"
            (if r.succeeded then "succeeds" else "fails")
        | None -> ());
       Printf.printf "\nDone.\n")

(* --- the corpus sweeps: sweep / sweep-report ---

   Both exit 1 when a report holds violations and 2 on bad input: an
   unknown sweep or row, an unreadable or malformed report. *)

let sweep_input_error fmt =
  Format.kasprintf (fun m -> prerr_endline ("error: " ^ m); exit 2) fmt

let cmd_sweep name keys seed jobs out =
  (* faulted cells abort applies on purpose; the per-abort warnings are
     noise here (use -v to see them) *)
  if Logs.level () = Some Logs.Warning then Logs.set_level (Some Logs.Error);
  match
    Result.bind (Corpus.Sweep.find name) (fun (sw : Corpus.Sweep.t) ->
        Printf.printf "sweep %s, seed %d: %s\n%!" sw.name seed sw.doc;
        Corpus.Sweep.run ~seed ~keys ?domains:jobs
          ~progress:(fun line -> Printf.printf "  %s\n%!" line)
          sw)
  with
  | Error e -> sweep_input_error "%a" Corpus.Sweep.pp_error e
  | Ok report ->
    Format.printf "@.%a%!" Corpus.Sweep.pp report;
    Option.iter
      (fun path ->
        match Report.Json.to_file path (Corpus.Sweep.to_json report) with
        | Ok () -> Printf.printf "report written to %s\n" path
        | Error m -> sweep_input_error "cannot write %s: %s" path m)
      out;
    if not (Corpus.Sweep.ok report) then exit 1

let cmd_sweep_report path =
  match Report.Json.of_file path with
  | Error m -> sweep_input_error "%s" m
  | Ok doc -> (
    match Corpus.Sweep.of_json doc with
    | Error m ->
      sweep_input_error "%s: not a sweep report: %s (regenerate with \
                         ksplice-tool sweep NAME --out %s)" path m path
    | Ok report ->
      Format.printf "%a%!" Corpus.Sweep.pp report;
      if not (Corpus.Sweep.ok report) then exit 1)

(* --- structured tracing: trace / metrics --- *)

(* Boot a kernel, create the update for one CVE, and apply it with
   tracing live (the caller has enabled the collector). With [sabotage],
   one byte of a replaced function's running code is corrupted first, so
   run-pre matching must reject the candidate — the exported trace then
   demonstrates the §4 diagnostic: which candidate was rejected and the
   byte offset of first divergence. *)
let traced_cve_run ~sabotage cve_id =
  match Corpus.Cve.find cve_id with
  | None ->
    Printf.eprintf "error: unknown CVE %s (try list-cves)\n" cve_id;
    exit 1
  | Some cve -> (
    let b = Corpus.Boot.boot () in
    Trace.set_clock (fun () ->
        Kernel.Machine.instructions_retired b.machine);
    let base = Corpus.Base_kernel.tree () in
    let patch = Corpus.Cve.hot_patch cve base in
    match
      Create.create
        { source = base; patch; update_id = cve.id; description = cve.desc }
    with
    | Error e ->
      Format.eprintf "error: create failed: %a@." Create.pp_error e;
      exit 1
    | Ok { update; _ } ->
      if sabotage then begin
        match update.Update.replaced_functions with
        | [] ->
          Printf.eprintf "error: %s replaces no functions\n" cve.id;
          exit 1
        | (_, cfn) :: _ -> (
          let raw, _ = Update.split_canonical cfn in
          match
            Kernel.Machine.lookup_name b.machine raw
            |> List.find_opt (fun (s : Klink.Image.syminfo) ->
                 s.kind = `Func)
          with
          | None ->
            Printf.eprintf "error: %s not in kallsyms\n" raw;
            exit 1
          | Some s ->
            let byte = Kernel.Machine.read_u8 b.machine s.addr in
            Kernel.Machine.write_bytes b.machine s.addr
              (Bytes.make 1 (Char.chr (byte lxor 0x01))))
      end;
      let ap = Apply.init b.machine in
      (match (Apply.apply ap update, sabotage) with
       | Ok a, false ->
         Printf.printf "applied %s: %d trampoline(s), pause %.3f ms\n"
           cve.id
           (List.length a.saved)
           (float_of_int a.pause_ns /. 1e6)
       | Error (Apply.Code_mismatch m), true ->
         Printf.printf
           "run-pre rejected %s %s at pre+%#x / run %#x: %s\n" m.unit_name
           m.section m.pre_off m.run_addr m.reason
       | Ok _, true ->
         Printf.eprintf
           "error: sabotage did not provoke a run-pre mismatch\n";
         exit 1
       | Error e, _ ->
         Format.eprintf "error: apply failed: %a@." Apply.pp_error e;
         exit 1))

let validate_roundtrip ~what doc =
  let module J = Report.Json in
  let text = J.to_string doc in
  (match J.parse text with
   | Error m ->
     Printf.eprintf "error: exported %s does not parse: %s\n" what m;
     exit 1
   | Ok v ->
     if not (String.equal (J.to_string v) text) then begin
       Printf.eprintf "error: exported %s does not round-trip\n" what;
       exit 1
     end);
  Printf.printf "%s: %d bytes, parses and round-trips\n" what
    (String.length text)

let write_json_or_die ~what out doc =
  match out with
  | None -> print_string (Report.Json.to_string doc)
  | Some path -> (
    match Report.Json.to_file path doc with
    | Ok () -> Printf.printf "%s written to %s\n" what path
    | Error m ->
      Printf.eprintf "error: cannot write %s: %s\n" path m;
      exit 1)

let cmd_trace cve_id sabotage capacity out check =
  Trace.reset ();
  Trace.set_capacity capacity;
  Trace.set_enabled true;
  traced_cve_run ~sabotage cve_id;
  Trace.set_enabled false;
  let doc = Trace.export () in
  Printf.printf "trace: %d record(s), %d dropped\n"
    (List.length (Trace.records ()))
    (Trace.dropped ());
  write_json_or_die ~what:"trace" out doc;
  if check then begin
    validate_roundtrip ~what:"trace export" doc;
    validate_roundtrip ~what:"metrics export" (Trace.metrics ())
  end

let cmd_metrics cve_id sabotage out =
  Trace.reset ();
  Trace.set_enabled true;
  traced_cve_run ~sabotage cve_id;
  Trace.set_enabled false;
  let module J = Report.Json in
  let num n = J.Num (float_of_int n) in
  (* fold the pre-existing process-wide counters into the document so
     one place answers "what did this run cost" *)
  let cs : Kbuild.cache_stats = Kbuild.cache_stats () in
  let is : Kernel.Machine.index_stats =
    Kernel.Machine.kallsyms_index_stats ()
  in
  let extra =
    [
      ( "kbuild_cache",
        J.Obj
          [
            ("hits", num cs.hits);
            ("misses", num cs.misses);
            ("evictions", num cs.evictions);
            ("entries", num cs.entries);
            ("capacity", num cs.capacity);
          ] );
      ( "kallsyms_index",
        J.Obj [ ("lookups", num is.lookups); ("hits", num is.hits) ] );
    ]
  in
  let doc =
    match Trace.metrics () with
    | J.Obj fields -> J.Obj (fields @ extra)
    | other -> other
  in
  write_json_or_die ~what:"metrics" out doc

let cmd_store_stats cve_id out =
  match Corpus.Cve.find cve_id with
  | None ->
    Printf.eprintf "error: unknown CVE %s (try list-cves)\n" cve_id;
    exit 1
  | Some cve ->
    let base = Corpus.Base_kernel.tree () in
    let store = Store.create ~name:"cli" ~capacity:8192 () in
    let req =
      { Ksplice.Create.source = base; patch = Corpus.Cve.hot_patch cve base;
        update_id = cve.id; description = cve.desc }
    in
    Kbuild.reset_cache ();
    Ksplice.Create.reset_creation_stats ();
    let create () =
      match Ksplice.Create.create ~store req with
      | Ok c -> c
      | Error e ->
        Format.eprintf "error: create %s: %a@." cve.id
          Ksplice.Create.pp_error e;
        exit 1
    in
    (* cold then warm, so the export shows both sides of the cache *)
    ignore (create ());
    ignore (create ());
    let module J = Report.Json in
    let num n = J.Num (float_of_int n) in
    let store_obj name (s : Store.stats) =
      ( name,
        J.Obj
          [
            ("hits", num s.hits);
            ("misses", num s.misses);
            ("evictions", num s.evictions);
            ("entries", num s.entries);
            ("capacity", num s.capacity);
            ("puts", num s.puts);
            ("dedup_hits", num s.dedup_hits);
            ("bytes_put", num s.bytes_put);
            ("bytes_deduped", num s.bytes_deduped);
            ("disk_reads", num s.disk_reads);
            ("disk_writes", num s.disk_writes);
            ("corrupt", num s.corrupt);
            ("gc_runs", num s.gc_runs);
            ("gc_collected", num s.gc_collected);
            ("gc_reclaimed_bytes", num s.gc_reclaimed_bytes);
          ] )
    in
    let doc =
      J.Obj
        [
          ("schema", J.Str "ksplice-store/1");
          ("cve", J.Str cve.id);
          store_obj "create_store" (Store.stats store);
          store_obj "kbuild_store" (Store.stats (Kbuild.store ()));
          ("skipped_units", num (Ksplice.Create.skipped_units ()));
          ("fingerprint", J.Str (Store.fingerprint store));
        ]
    in
    write_json_or_die ~what:"store-stats" out doc

(* --- fsck / gc: on-disk repository maintenance --- *)

module Repo = Ksplice.Repository

let cmd_fsck dir =
  (* read-only: open without recovery so damage is reported, not repaired *)
  match Repo.open_dir ~recover:false dir with
  | Error e ->
    Format.eprintf "error: cannot open %s: %a@." dir Repo.pp_error e;
    exit 2
  | Ok repo -> (
    match Repo.fsck repo with
    | Ok r ->
      Printf.printf
        "%s: clean — %d blob(s), %d ref(s), %d chain entr%s\n" dir
        r.store_report.f_blobs r.store_report.f_refs r.entries_checked
        (if r.entries_checked = 1 then "y" else "ies")
    | Error r ->
      Printf.printf "%s: DAMAGED — %d blob(s), %d ref(s) scanned\n" dir
        r.store_report.f_blobs r.store_report.f_refs;
      List.iter
        (fun issue -> Format.printf "  %a@." Store.pp_fsck_issue issue)
        r.store_report.f_issues;
      List.iter
        (fun (name, reason) ->
          Printf.printf "  corrupt chain entry %s: %s\n" name reason)
        r.corrupt_entries;
      exit 1)

let cmd_gc dir =
  match Repo.open_dir dir with
  | Error e ->
    Format.eprintf "error: cannot open %s: %a@." dir Repo.pp_error e;
    exit 2
  | Ok repo ->
    (match Repo.recovery repo with
     | None | Some { Store.rolled_forward = 0; rolled_back = 0;
                     torn_discarded = 0; tmp_removed = 0 } -> ()
     | Some r ->
       Printf.printf
         "recovery: %d rolled forward, %d rolled back, %d torn record(s) \
          discarded, %d temp file(s) removed\n"
         r.rolled_forward r.rolled_back r.torn_discarded r.tmp_removed);
    (match Repo.gc repo with
     | Error e ->
       Format.eprintf "error: %a@." Repo.pp_error e;
       exit 1
     | Ok g ->
       Printf.printf
         "%s: %d live blob(s) kept (%d pinned), %d swept, %d byte(s) \
          reclaimed\n"
         dir g.gc_live g.gc_pinned g.gc_swept g.gc_bytes)

(* --- fleet: serve / sync / fleet-sweep --- *)

let cmd_serve dir socket max_sessions =
  match Repo.open_dir dir with
  | Error e ->
    Format.eprintf "error: cannot open %s: %a@." dir Repo.pp_error e;
    exit 2
  | Ok repo -> (
    Printf.printf "serving %s on %s%s\n%!" dir socket
      (match max_sessions with
      | None -> ""
      | Some n -> Printf.sprintf " (up to %d session(s))" n);
    match Fleet.Server.listen ~socket_path:socket ?max_sessions repo with
    | Ok n -> Printf.printf "served %d session(s)\n" n
    | Error m ->
      Printf.eprintf "error: %s\n" m;
      exit 1)

let cmd_sync socket dir base =
  let store = Store.create ~name:"mirror" ~dir () in
  let connect _attempt =
    match Fleet.Transport.connect_unix socket with
    | tr -> Some tr
    | exception Unix.Unix_error _ -> None
  in
  let r =
    Fleet.Subscriber.sync
      ~sleep:(fun ticks -> Unix.sleepf (float_of_int ticks /. 1000.0))
      ~id:(Filename.basename dir) ~store ~base ~connect ()
  in
  List.iter (fun line -> Printf.printf "  %s\n" line) r.Fleet.Subscriber.r_log;
  Printf.printf
    "%s: %d entr%s committed, %d blob(s) / %d byte(s) fetched, %d byte(s) \
     already local\n"
    dir r.r_committed
    (if r.r_committed = 1 then "y" else "ies")
    r.r_blobs_fetched r.r_bytes_fetched r.r_bytes_saved;
  if r.r_synced then
    Printf.printf "synced to chain head %s in %d attempt(s)\n" r.r_head
      r.r_attempts
  else begin
    Printf.printf
      "server unreachable after %d attempt(s); still serving head %s\n"
      r.r_attempts r.r_head;
    exit 1
  end

(* --- cumulative updates: collapse --- *)

let cmd_collapse dir source id desc =
  match Repo.open_dir dir with
  | Error e ->
    Format.eprintf "error: cannot open %s: %a@." dir Repo.pp_error e;
    exit 2
  | Ok repo -> (
    let tree = read_tree source in
    match
      Repo.publish_cumulative repo ~source:tree ~update_id:id
        ~description:(if desc = "" then "cumulative replacement" else desc)
    with
    | Error e ->
      Format.eprintf "error: %a@." Repo.pp_error e;
      exit 1
    | Ok entry ->
      let u = entry.Repo.update in
      Printf.printf
        "published cumulative update %s: %s -> %s\n" u.Update.update_id
        (String.sub entry.base_digest 0 12)
        (String.sub entry.next_digest 0 12);
      Printf.printf "supersedes (%d, oldest first):\n"
        (List.length u.supersedes);
      List.iter (fun s -> Printf.printf "  %s\n" s) u.supersedes;
      Printf.printf
        "the per-update chain stays published for mid-chain subscribers\n")

(* --- cmdliner wiring --- *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let sweep_exits =
  Cmd.Exit.info 1 ~doc:"the report holds violations."
  :: Cmd.Exit.info 2 ~doc:"an unknown sweep or row, or an unreadable report."
  :: Cmd.Exit.defaults

let create_cmd =
  let source =
    Arg.(
      required
      & opt (some dir) None
      & info [ "source" ] ~docv:"DIR" ~doc:"Source of the running kernel.")
  in
  let patch =
    Arg.(
      required
      & opt (some file) None
      & info [ "patch" ] ~docv:"FILE" ~doc:"Unified diff to convert.")
  in
  let output =
    Arg.(
      value & opt string "update.ksplice"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output update file.")
  in
  let id =
    Arg.(
      value & opt string "update"
      & info [ "id" ] ~docv:"ID" ~doc:"Update identifier.")
  in
  let desc =
    Arg.(
      value & opt string "" & info [ "m" ] ~docv:"TEXT" ~doc:"Description.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print, per patched unit, why every shipped symbol is in the \
             update (changed, new, dependency closure, or referenced \
             changed data).")
  in
  Cmd.v
    (Cmd.info "create" ~doc:"Construct a hot update from source and a patch")
    Term.(
      const (fun v a b c d e f -> setup_logs v; cmd_create a b c d e f)
      $ verbose_t $ source $ patch $ output $ id $ desc $ explain)

let inspect_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"UPDATE" ~doc:"Update file.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show the contents of an update file")
    Term.(const cmd_inspect $ path)

let objdump_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"SELF object file or Ksplice update file.")
  in
  Cmd.v
    (Cmd.info "objdump" ~doc:"Disassemble an object file or update")
    Term.(const cmd_objdump $ path)

let export_cmd =
  let dir =
    Arg.(
      value & opt string "ksplice-workspace"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Destination directory.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the evaluation kernel source and all CVE patches to disk")
    Term.(const cmd_export $ dir)

let list_cves_cmd =
  Cmd.v
    (Cmd.info "list-cves" ~doc:"List the evaluation CVE corpus")
    Term.(const cmd_list_cves $ const ())

let demo_cmd =
  let cve =
    Arg.(
      value & opt string "CVE-2006-2451"
      & info [ "cve" ] ~docv:"ID" ~doc:"Corpus CVE to demonstrate.")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Boot the evaluation kernel and hot-patch one CVE end to end")
    Term.(
      const (fun v c -> setup_logs v; cmd_demo c) $ verbose_t $ cve)

let trace_cve_t =
  Arg.(
    value & opt string "CVE-2006-2451"
    & info [ "cve" ] ~docv:"ID"
        ~doc:"CVE to create and apply under tracing (default: the prctl \
              patch).")

let trace_sabotage_t =
  Arg.(
    value & flag
    & info [ "sabotage" ]
        ~doc:
          "Corrupt one byte of the replaced function's running code \
           first, so the trace records a run-pre rejection with the byte \
           offset of first divergence (the \u{00a7}4 diagnostic).")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the JSON document to $(docv) (default: stdout).")

let trace_cmd =
  let capacity =
    Arg.(
      value & opt int 16384
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Trace ring-buffer capacity in records (drop-oldest).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate that the exported trace and metrics JSON parse and \
             round-trip byte-identically; exit nonzero otherwise.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Apply one corpus CVE with structured tracing enabled and export \
          the span/event trace (ksplice-trace/1 JSON), clocked by retired \
          instructions for bit-identical replay")
    Term.(
      const (fun v c s cap o ck -> setup_logs v; cmd_trace c s cap o ck)
      $ verbose_t $ trace_cve_t $ trace_sabotage_t $ capacity $ trace_out_t
      $ check)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Apply one corpus CVE with tracing enabled and export counters \
          and histograms (ksplice-metrics/1 JSON), including compile-cache \
          and kallsyms-index hit rates")
    Term.(
      const (fun v c s o -> setup_logs v; cmd_metrics c s o)
      $ verbose_t $ trace_cve_t $ trace_sabotage_t $ trace_out_t)

let store_stats_cmd =
  Cmd.v
    (Cmd.info "store-stats"
       ~doc:
         "Create one corpus CVE twice (cold, then warm) through a fresh \
          artifact store and export the store's hit/dedup counters and \
          the incremental-creation skip count (ksplice-store/1 JSON)")
    Term.(
      const (fun v c o -> setup_logs v; cmd_store_stats c o)
      $ verbose_t $ trace_cve_t $ trace_out_t)

let repo_dir_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"On-disk repository directory.")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check an on-disk repository read-only (blob digests, ref \
          targets, chain entries, pending journal); nonzero exit on \
          damage")
    Term.(const cmd_fsck $ repo_dir_t)

let gc_cmd =
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Recover an on-disk repository if needed, then sweep every blob \
          unreachable from its refs and chain entries")
    Term.(const cmd_gc $ repo_dir_t)

let serve_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Repository directory to serve.")
  in
  let socket =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path to listen on.")
  in
  let sessions =
    Arg.(
      value
      & opt (some int) None
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Serve $(docv) subscriber session(s), then exit (default: \
                run forever).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a repository's update chains to subscribers over a \
          Unix-domain socket (the uptrack-style distribution daemon)")
    Term.(
      const (fun v d s n -> setup_logs v; cmd_serve d s n)
      $ verbose_t $ dir $ socket $ sessions)

let sync_cmd =
  let socket =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Server's Unix-domain socket path.")
  in
  let dir =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Local mirror directory (created if absent).")
  in
  let base =
    Arg.(
      required
      & opt (some string) None
      & info [ "base" ] ~docv:"DIGEST"
          ~doc:"Source-tree digest this subscriber's kernel runs.")
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "Mirror a served update chain into a local store: delta sync \
          (only missing blobs cross the wire), resumable after any \
          interruption, degrading to the old chain head when the server \
          is unreachable")
    Term.(
      const (fun v s d b -> setup_logs v; cmd_sync s d b)
      $ verbose_t $ socket $ dir $ base)

let collapse_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"On-disk repository directory.")
  in
  let source =
    Arg.(
      required
      & opt (some Arg.dir) None
      & info [ "source" ] ~docv:"SRCDIR"
          ~doc:
            "Source of the oldest kernel still in the fleet — the tree the \
             pending chain starts from.")
  in
  let id =
    Arg.(
      value & opt string "cumulative"
      & info [ "id" ] ~docv:"ID" ~doc:"Update identifier for the collapse.")
  in
  let desc =
    Arg.(
      value & opt string "" & info [ "m" ] ~docv:"TEXT" ~doc:"Description.")
  in
  Cmd.v
    (Cmd.info "collapse"
       ~doc:
         "Collapse a repository's pending chain into one cumulative update \
          (atomic replace): subscribers land the whole backlog in a single \
          transaction that supersedes their applied stack, while the \
          per-update chain stays published for mid-chain mirrors")
    Term.(
      const (fun v d s i m -> setup_logs v; cmd_collapse d s i m)
      $ verbose_t $ dir $ source $ id $ desc)

let sweep_cmd =
  let sweep_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            ("The sweep to run: "
            ^ String.concat ", "
                (List.map (fun (sw : Corpus.Sweep.t) -> sw.name)
                   Corpus.Sweep.all)
            ^ "."))
  in
  let rows =
    Arg.(
      value & opt_all string []
      & info [ "row"; "cve"; "depth" ] ~docv:"KEY"
          ~doc:
            "Run only this row (repeatable): a corpus CVE id, or for \
             $(b,cumulative) a chain depth or a shadow-extra id. Default: \
             the sweep's own sample. $(b,--cve) and $(b,--depth) are \
             older spellings.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Sweep seed (fault plans, torn writes, retry jitter).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "Run up to $(docv) rows concurrently (default: one per core; \
             1 forces a serial sweep).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the report (ksplice-sweep/1 JSON, with the manager \
             event logs) to $(docv); read it back with $(b,sweep-report).")
  in
  Cmd.v
    (Cmd.info "sweep" ~exits:sweep_exits
       ~doc:"Run one corpus robustness sweep and check every contract"
       ~man:
         (`S Manpage.s_description
         :: List.map
              (fun (sw : Corpus.Sweep.t) ->
                `I (Printf.sprintf "$(b,%s)" sw.name, sw.doc))
              Corpus.Sweep.all))
    Term.(
      const (fun v n r s j o -> setup_logs v; cmd_sweep n r s j o)
      $ verbose_t $ sweep_name $ rows $ seed $ jobs $ out)

let sweep_report_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Report written by sweep --out.")
  in
  Cmd.v
    (Cmd.info "sweep-report" ~exits:sweep_exits
       ~doc:"Print a saved sweep report and check its verdict")
    Term.(const cmd_sweep_report $ path)

let () =
  let doc = "Ksplice reproduction: rebootless kernel updates" in
  let info = Cmd.info "ksplice-tool" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ create_cmd; inspect_cmd; objdump_cmd; export_cmd; list_cves_cmd;
            demo_cmd; sweep_cmd; sweep_report_cmd; collapse_cmd; serve_cmd;
            sync_cmd; fsck_cmd; gc_cmd; trace_cmd; metrics_cmd;
            store_stats_cmd ]))
