module Machine = Kernel.Machine
module Txn = Ksplice.Txn
module Faultinj = Ksplice.Faultinj
module Apply = Ksplice.Apply
module Create = Ksplice.Create
module Repo = Ksplice.Repository
module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Json = Report.Json

(* ---------- the engine ---------- *)

type row = {
  key : string;
  cells : string;
  counters : (string * int) list;
  notes : string list;
  detail : Json.t;
}

type totals = (string * int) list

type error =
  | Unknown_sweep of string
  | Unknown_row of { sweep : string; key : string; expected : string }

type t = {
  name : string;
  doc : string;
  rows : seed:int -> string list -> ((unit -> row) list, error) result;
  check : totals -> string list;
}

type report = {
  sweep : string;
  seed : int;
  rows : row list;
  totals : totals;
  failures : string list;
}

let row ?(cells = "") ?(detail = Json.Null) key counters notes =
  { key; cells; counters; notes; detail }

(* counter sums in first-appearance order *)
let sum_counters rows =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (k, v) ->
          if List.mem_assoc k acc then
            List.map (fun (k', s) -> (k', if k' = k then s + v else s)) acc
          else acc @ [ (k, v) ])
        acc r.counters)
    [] rows

(* [List.map] for a function that may fail: the first [Error] wins *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: xs ->
    Result.bind (f x) (fun y -> Result.map (List.cons y) (map_ok f xs))

let get (t : totals) k = Option.value ~default:0 (List.assoc_opt k t)
let total r k = get r.totals k
let ok r = r.failures = [] && List.for_all (fun row -> row.notes = []) r.rows

let pp_counters kvs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)

let row_line r =
  Printf.sprintf "%-16s %s%s%s" r.key
    (if r.cells = "" then "" else r.cells ^ "  ")
    (pp_counters r.counters)
    (if r.notes = [] then "" else "  VIOLATION")

(* rows are independent (each runs on its own fresh machines), so they
   fan out across the domain pool; progress lines arrive in completion
   order, serialised by a mutex, and the report keeps key order *)
let run ?(seed = 0) ?(keys = []) ?progress ?domains (sw : t) =
  Result.map
    (fun thunks ->
      let m = Mutex.create () in
      let rows =
        Parallel.map ?domains
          (fun f ->
            let r = f () in
            Option.iter
              (fun emit -> Mutex.protect m (fun () -> emit (row_line r)))
              progress;
            r)
          thunks
      in
      let totals = ("rows", List.length rows) :: sum_counters rows in
      { sweep = sw.name; seed; rows; totals; failures = sw.check totals })
    (sw.rows ~seed keys)

let pp ppf r =
  let violations =
    List.fold_left
      (fun a row -> a + List.length row.notes)
      (List.length r.failures) r.rows
  in
  Format.fprintf ppf "%s sweep, seed %d@\n@\n" r.sweep r.seed;
  List.iter (fun row -> Format.fprintf ppf "%s@\n" (row_line row)) r.rows;
  Format.fprintf ppf "@\ntotals: %s violations=%d@\n" (pp_counters r.totals)
    violations;
  List.iter
    (fun row ->
      List.iter
        (fun n -> Format.fprintf ppf "VIOLATION %s: %s@\n" row.key n)
        row.notes)
    r.rows;
  List.iter
    (fun f -> Format.fprintf ppf "VIOLATION %s sweep: %s@\n" r.sweep f)
    r.failures;
  Format.fprintf ppf "%s@\n"
    (if ok r then "ok: every row kept every contract"
     else Printf.sprintf "FAILED: %d violation(s)" violations)

(* ---------- the ksplice-sweep/1 document ---------- *)

let schema = "ksplice-sweep/1"

let to_json r =
  let num n = Json.Num (float_of_int n) in
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("sweep", Json.Str r.sweep);
      ("seed", num r.seed);
      ( "rows",
        Json.Arr
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("key", Json.Str row.key);
                   ("cells", Json.Str row.cells);
                   ("counters", ints row.counters);
                   ("notes", strs row.notes);
                   ("detail", row.detail);
                 ])
             r.rows) );
      ("totals", ints r.totals);
      ("failures", strs r.failures);
    ]

let rec all_some f = function
  | [] -> Some []
  | x :: xs -> (
    match f x with
    | None -> None
    | Some y -> Option.map (List.cons y) (all_some f xs))

let int_fields = function
  | Json.Obj kvs ->
    all_some (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
  | _ -> None

let strings j = Option.bind (Json.to_list j) (all_some Json.to_str)

let of_json doc =
  let ( let* ) = Result.bind in
  let field what conv obj k =
    match Json.member k obj with
    | None -> Error (Printf.sprintf "%s: no %S field" what k)
    | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%s: field %S has the wrong type" what k))
  in
  let* s = field "report" Json.to_str doc "schema" in
  let* () =
    if String.equal s schema then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" s schema)
  in
  let* sweep = field "report" Json.to_str doc "sweep" in
  let* seed = field "report" Json.to_int doc "seed" in
  let* totals = field "report" int_fields doc "totals" in
  let* failures = field "report" strings doc "failures" in
  let* rows = field "report" Json.to_list doc "rows" in
  let row_of i j =
    let what = Printf.sprintf "row %d" i in
    let* key = field what Json.to_str j "key" in
    let* cells = field what Json.to_str j "cells" in
    let* counters = field what int_fields j "counters" in
    let* notes = field what strings j "notes" in
    let* detail = field what Option.some j "detail" in
    Ok { key; cells; counters; notes; detail }
  in
  let* rows = map_ok Fun.id (List.mapi row_of rows) in
  Ok { sweep; seed; rows; totals; failures }

(* ---------- shared cell machinery ---------- *)

let err_str e = Format.asprintf "%a" Apply.pp_error e

let create_update (cve : Cve.t) base =
  let patch = Cve.hot_patch cve base in
  match
    Create.create
      { source = base; patch; update_id = cve.id; description = cve.desc }
  with
  | Ok c -> Ok c.Create.update
  | Error e ->
    Error (Format.asprintf "%s: create failed: %a" cve.id Create.pp_error e)

(* a row built on [cve]'s update; a failed create is the row's note *)
let with_update (cve : Cve.t) base f =
  match create_update cve base with
  | Ok update -> f update
  | Error m -> row cve.id [] [ m ]

(* every 8th CVE: a deterministic sample spanning the corpus, for the
   sweeps whose rows cost many machines each *)
let every_8th () = List.filteri (fun i _ -> i mod 8 = 0) Cve.all

(* a sweep whose rows are CVEs ([[]] = [default ()]): [f ~seed i cve
   base] builds row [i] *)
let cve_rows ~sweep ~default f ~seed keys =
  let find key =
    match Cve.find key with
    | Some c -> Ok c
    | None ->
      Error
        (Unknown_row
           { sweep; key; expected = "a corpus CVE id (see list-cves)" })
  in
  Result.map
    (fun cves ->
      let base = Base_kernel.tree () in
      List.mapi (fun i cve () -> f ~seed i cve base) cves)
    (if keys = [] then Ok (default ()) else map_ok find keys)

let no_check (_ : totals) = []

(* Outcome of one faulted (row, step) cell. *)
type cell =
  | Rolled_back  (* the fault fired and the machine rolled back byte-identical *)
  | Benign  (* a non-aborting fault fired and the apply still verified *)
  | Not_applicable  (* the armed fault never fired *)
  | Violation of string list

let cell_char = function
  | Rolled_back -> 'R'
  | Benign -> 'B'
  | Not_applicable -> '-'
  | Violation _ -> '!'

(* the cell string, the cell counts and the violations of a step row *)
let step_cells cells =
  let count c = List.length (List.filter (fun (_, c') -> c' = c) cells) in
  ( String.of_seq (List.to_seq (List.map (fun (_, c) -> cell_char c) cells)),
    [ ("rolled_back", count Rolled_back); ("benign", count Benign);
      ("not_applicable", count Not_applicable) ],
    List.concat_map
      (fun (step, c) ->
        match c with
        | Violation msgs ->
          List.map (Printf.sprintf "@%s: %s" (Txn.step_name step)) msgs
        | _ -> [])
      cells )

(* One faulted apply on a machine the caller reuses: snapshot, apply
   under injection, judge; a surviving apply is verified and undone, so
   the next cell's snapshot re-baselines. [apply] is the plain or the
   cumulative apply, [what] names it in the diagnostics. *)
let faulted_cell ~apply ~what mgr update_id update step ~seed =
  let m = Apply.machine mgr in
  let snap = Machine.snapshot m in
  let plan = { Faultinj.step; kind = Faultinj.kind_for_step step; seed } in
  let session = Faultinj.make m plan in
  let result = apply mgr ~inject:session update in
  Faultinj.disarm session;
  let fired = Faultinj.fired session in
  match result with
  | Error e ->
    let diff = Machine.diff_snapshot m snap in
    if diff <> [] then
      Violation
        (Format.asprintf "abort of %a left the machine diverged: %s"
           Faultinj.pp_plan plan (err_str e)
         :: diff)
    else if not fired then
      Violation
        [ Format.asprintf "%a never fired yet %s failed: %s" Faultinj.pp_plan
            plan what (err_str e) ]
    else Rolled_back
  | Ok _ ->
    let verdict =
      if fired && Faultinj.expect_abort plan.kind then
        Violation
          [ Format.asprintf "%a fired but %s succeeded" Faultinj.pp_plan plan
              what ]
      else
        match Apply.verify mgr with
        | Error e ->
          Violation
            [ Format.asprintf "%s under %a did not verify: %s" what
                Faultinj.pp_plan plan (err_str e) ]
        | Ok () -> if fired then Benign else Not_applicable
    in
    (match Apply.undo mgr update_id with
     | Ok () -> verdict
     | Error e -> (
       match verdict with
       | Violation msgs ->
         Violation (msgs @ [ "and its undo failed: " ^ err_str e ])
       | _ -> Violation [ "undo after a surviving " ^ what ^ " failed: " ^ err_str e ]))

(* ---------- fault: transactional apply under induced failure ---------- *)

let run_cell mgr cve_id update step ~seed =
  faulted_cell
    ~apply:(fun mgr ~inject u -> Apply.apply mgr ~inject u)
    ~what:"apply" mgr cve_id update step ~seed

(* After the faulted cells: the CVE's hot update must still apply
   cleanly on the same machine, hold up under stress, and (where an
   exploit exists) block it. *)
let check_recovery (b : Boot.booted) mgr (cve : Cve.t) update =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := s :: !notes) fmt in
  (match Apply.apply mgr update with
   | Error e -> note "clean re-apply failed: %s" (err_str e)
   | Ok _ -> (
     (match Apply.verify mgr with
      | Ok () -> ()
      | Error e -> note "verify after re-apply: %s" (err_str e));
     let r = Stress.run b ~threads:2 ~iterations:5 in
     if not r.ok then
       note "stress after re-apply: %s" (String.concat "; " r.failures);
     match Exploits.find cve.id with
     | None -> ()
     | Some ex ->
       let o = ex.run b in
       if o.succeeded then
         note "exploit %s still succeeds after re-apply: %s" ex.name o.detail));
  List.rev !notes

let fault_row ~seed index (cve : Cve.t) base =
  with_update cve base @@ fun update ->
  let b = Boot.boot () in
  let mgr = Apply.init b.machine in
  let cells =
    List.mapi
      (fun si step ->
        let cell_seed = seed + (1009 * index) + (31 * si) in
        (step, run_cell mgr cve.id update step ~seed:cell_seed))
      Txn.all_steps
  in
  let recovery = check_recovery b mgr cve update in
  let chars, counters, notes = step_cells cells in
  row ~cells:chars cve.id
    (counters @ [ ("recovery_failures", if recovery = [] then 0 else 1) ])
    (notes @ List.map (( ^ ) "recovery: ") recovery)

(* ---------- manager: the supervision loop under hostile regimes ----------

   Every CVE is pushed through [Manager] three times, on fresh machines:
   an injected fault, an adversarial scheduler, a failing health probe.
   Each cell must reach a terminal state (liveness) with a clean
   rollback audit (safety). *)

type scenario = Injected | Adversarial | Unhealthy

let scenario_name = function
  | Injected -> "injected"
  | Adversarial -> "adversarial"
  | Unhealthy -> "unhealthy"

(* the health gate the manager runs after every successful apply: the
   CVE's exploit must be blocked (where one exists) and a short stress
   smoke must pass *)
let health_checks (b : Boot.booted) (cve : Cve.t) =
  let exploit =
    match Exploits.find cve.id with
    | None -> []
    | Some ex ->
      [ { Manager.hc_name = "exploit:" ^ ex.name;
          hc_probe =
            (fun () ->
              let o = ex.run b in
              if o.succeeded then
                Error ("exploit still succeeds: " ^ o.detail)
              else Ok ()) } ]
  in
  exploit
  @ [ { Manager.hc_name = "stress-smoke";
        hc_probe =
          (fun () ->
            let r = Stress.run b ~threads:2 ~iterations:3 in
            if r.ok then Ok ()
            else Error (String.concat "; " r.failures)) } ]

(* tight enough that the watchdog and retry queue actually trip in the
   adversarial and forced-not-quiescent cells, loose enough that a
   drainable blocker still converges *)
let manager_policy ~seed =
  { Manager.default_policy with
    seed; deadline = 12_000; retry_limit = 4; backoff_base = 300;
    backoff_cap = 2_000; jitter = 100 }

(* the entry address of the first replaced function: where the
   adversarial churner and the transition straggler park a thread *)
let replaced_entry machine (update : Ksplice.Update.t) =
  match update.replaced_functions with
  | [] -> None
  | (_, cfn) :: _ ->
    let raw, _ = Ksplice.Update.split_canonical cfn in
    (match
       Machine.lookup_name machine raw
       |> List.filter (fun (s : Klink.Image.syminfo) -> s.kind = `Func)
     with
     | [ s ] -> Some s.addr
     | _ -> None)

(* one (CVE, scenario) cell, as a one-cell row keyed by the scenario *)
let run_mcell ~seed scenario (cve : Cve.t) update =
  let b = Boot.boot () in
  let ap = Apply.init b.machine in
  let mgr = Manager.create ~policy:(manager_policy ~seed) ap in
  let health = health_checks b cve in
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := s :: !notes) fmt in
  let session = ref None in
  (match scenario with
   | Injected ->
     (* one canonical fault, at a step chosen deterministically from
        (seed, cve) — armed for the first attempt only, so the retry
        path sees the transient heal *)
     let steps = Txn.all_steps in
     let si = abs (Hashtbl.hash (seed, cve.id)) mod List.length steps in
     let step = List.nth steps si in
     let plan =
       { Faultinj.step; kind = Faultinj.kind_for_step step; seed }
     in
     let s = Faultinj.make b.machine plan in
     session := Some (plan, s);
     Manager.submit mgr update ~health
       ~inject:(fun ~attempt -> if attempt = 1 then Some s else None)
   | Adversarial ->
     (* an adversarial scheduler: a thread parked at the entry of a
        function the update will replace — its pc sits in the §5.2
        guard range until the manager's backoff drains it *)
     Option.iter
       (fun entry ->
         ignore
           (Machine.spawn b.machine ~name:"churner" ~uid:1 ~entry
              ~args:[ 1l ]
             : Machine.thread))
       (replaced_entry b.machine update);
     Manager.submit mgr update ~health
   | Unhealthy ->
     (* the update applies fine but the gate must fail: a canary probe
        forces the auto-revert/quarantine path *)
     let canary =
       { Manager.hc_name = "canary";
         hc_probe = (fun () -> Error "deliberately failing probe") }
     in
     Manager.submit mgr update ~health:(health @ [ canary ]));
  Manager.run mgr;
  (match !session with Some (_, s) -> Faultinj.disarm s | None -> ());
  let st =
    match Manager.status mgr cve.id with
    | Some st -> st
    | None -> Manager.Waiting
  in
  let attempts = Manager.attempts mgr cve.id in
  (* liveness: Manager.run returned and the update is terminal *)
  (match st with
   | Manager.Waiting -> note "not terminal: still waiting after run"
   | _ -> ());
  (* safety: every abort, park, and auto-revert audited byte-identical *)
  if Manager.violations mgr > 0 then
    note "%d rollback-audit violations" (Manager.violations mgr);
  (* scenario contracts *)
  (match scenario with
   | Injected ->
     let plan, s = Option.get !session in
     let fired = Faultinj.fired s in
     (match st with
      | Manager.Applied_healthy ->
        if fired && Faultinj.expect_abort plan.kind then begin
          (* only a transient quiescence fault may heal on retry *)
          if plan.kind <> Faultinj.Forced_not_quiescent then
            note "%a fired yet update went healthy" Faultinj.pp_plan plan
          else if attempts < 2 then
            note "healed %a without a retry" Faultinj.pp_plan plan
        end
      | Manager.Parked (Manager.Rejected _) ->
        if not (fired && Faultinj.expect_abort plan.kind) then
          note "parked though %a never fired" Faultinj.pp_plan plan
      | Manager.Parked _ ->
        (* a quiescence park can't happen here: the machine is at rest
           and the fault is armed for the first attempt only *)
        note "unexpected park class under %a" Faultinj.pp_plan plan
      | st -> note "unexpected state %s" (Manager.status_name st));
     if st <> Manager.Applied_healthy && Apply.applied ap <> [] then
       note "non-healthy outcome left the update applied"
   | Adversarial ->
     (match st with
      | Manager.Applied_healthy | Manager.Parked (Manager.Exhausted_retries _)
        -> ()
      | st -> note "unexpected state %s" (Manager.status_name st));
     if st <> Manager.Applied_healthy && Apply.applied ap <> [] then
       note "parked update still applied"
   | Unhealthy ->
     (match st with
      | Manager.Quarantined { reverted = true; evidence } ->
        if
          not
            (List.exists (fun (n, _) -> String.equal n "canary") evidence)
        then note "quarantine evidence misses the canary probe"
      | Manager.Quarantined { reverted = false; _ } ->
        note "auto-revert failed; unhealthy update still live"
      | st -> note "unexpected state %s" (Manager.status_name st));
     if Apply.applied ap <> [] then
       note "quarantined update still on the applied stack");
  let is b = if b then 1 else 0 in
  let num n = Json.Num (float_of_int n) in
  row
    ~cells:
      (match st with
       | Manager.Applied_healthy -> "H"
       | Manager.Parked _ -> "P"
       | Manager.Quarantined _ -> "Q"
       | Manager.Waiting -> "W")
    ~detail:
      (Json.Obj
         [ ("status", Json.Str (Manager.status_name st));
           ("attempts", num attempts);
           ("clock", num (Manager.now mgr));
           ("events", num (List.length (Manager.events mgr)));
           ("manager", Manager.report mgr) ])
    (scenario_name scenario)
    [ ("healthy", is (st = Manager.Applied_healthy));
      ("parked", is (match st with Manager.Parked _ -> true | _ -> false));
      ("quarantined",
       is (match st with Manager.Quarantined _ -> true | _ -> false));
      ("attempts", attempts);
      ("audit_violations", Manager.violations mgr);
      ("contract_failures", is (!notes <> [])) ]
    (List.rev !notes)

let manager_row ~seed i (cve : Cve.t) base =
  with_update cve base @@ fun update ->
  let cells =
    List.map
      (fun sc ->
        let cell_seed = seed + (1013 * i) + Hashtbl.hash (scenario_name sc) in
        run_mcell ~seed:cell_seed sc cve update)
      [ Injected; Adversarial; Unhealthy ]
  in
  row cve.id
    ~cells:(String.concat "" (List.map (fun c -> c.cells) cells))
    ~detail:(Json.Obj (List.map (fun c -> (c.key, c.detail)) cells))
    (sum_counters cells)
    (List.concat_map
       (fun c -> List.map (Printf.sprintf "%s: %s" c.key) c.notes)
       cells)

(* ---------- crash: persistence under process death ----------

   Publish a CVE's update into a fresh on-disk repository, killing the
   simulated process at every i-th mutating I/O operation ([Vfs.Crash]);
   then reopen with a clean handle (the reboot) and assert the store
   recovers to fsck-clean with the chain atomically all-or-nothing, and
   that GC afterwards reclaims exactly the unreachable blobs. *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "ksplcrash" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let publish_once ?vfs dir ~source ~patch ~update =
  match Repo.open_dir ?vfs dir with
  | Error e -> Error (Format.asprintf "open_dir: %a" Repo.pp_error e)
  | Ok repo -> (
    match Repo.publish repo ~source ~patch ~update with
    | Ok _ -> Ok ()
    | Error e -> Error (Format.asprintf "publish: %a" Repo.pp_error e))

let chain_ids repo ~digest =
  Result.map
    (List.map (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id))
    (Repo.pending repo ~digest)

(* One crash point: publish under Crash@i, reopen clean, judge.
   Returns (published, swept, bytes, notes). *)
let crash_cell ~seed ~source ~patch ~update ~base_digest
    (update_id : string) i =
  with_tmp_dir (fun dir ->
      let vfs, inj = Vfs.inject { Vfs.at = i; kind = Vfs.Crash; seed } Vfs.real in
      let notes = ref [] in
      let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
      (match publish_once ~vfs dir ~source ~patch ~update with
      | exception Vfs.Crashed -> ()
      | Ok () ->
        if Vfs.fired inj then
          (* the crash op was the last one: publish returned before any
             further I/O could refuse — still a valid crash point *)
          ()
        else note "crash point %d never fired (run has %d ops)" i (Vfs.ops inj)
      | Error m -> note "publish failed without a crash: %s" m);
      (* the dead handle is discarded; reopening is the reboot *)
      match Repo.open_dir dir with
      | Error e -> (false, 0, 0, [ Format.asprintf "reopen: %a" Repo.pp_error e ])
      | Ok repo ->
        (match Repo.fsck repo with
        | Ok _ -> ()
        | Error r ->
          List.iter
            (fun iss ->
              note "fsck after recovery: %a" Store.pp_fsck_issue iss)
            r.Repo.store_report.Store.f_issues;
          List.iter
            (fun (d, m) -> note "fsck: entry %s: %s" d m)
            r.Repo.corrupt_entries);
        let published =
          match chain_ids repo ~digest:base_digest with
          | Ok [] -> false
          | Ok [ id ] when String.equal id update_id -> true
          | Ok ids ->
            note "chain is half-published: [%s]" (String.concat "; " ids);
            false
          | Error e ->
            note "pending after recovery: %a" Repo.pp_error e;
            false
        in
        let swept, bytes =
          match Repo.gc repo with
          | Error e ->
            note "gc after recovery: %a" Repo.pp_error e;
            (0, 0)
          | Ok g ->
            (* GC must preserve the chain exactly and, when the publish
               vanished, leave nothing behind *)
            (match chain_ids repo ~digest:base_digest with
            | Ok ids ->
              let expect = if published then [ update_id ] else [] in
              if ids <> expect then
                note "gc changed the chain: [%s]" (String.concat "; " ids)
            | Error e -> note "pending after gc: %a" Repo.pp_error e);
            (match Repo.fsck repo with
            | Ok r ->
              if (not published) && r.Repo.store_report.Store.f_blobs <> 0 then
                note "gc left %d unreachable blob(s) in an empty repository"
                  r.Repo.store_report.Store.f_blobs
            | Error _ -> note "fsck after gc reports damage");
            (g.Store.gc_swept, g.Store.gc_bytes)
        in
        (published, swept, bytes, !notes))

(* Fault-free probe: counts the mutating ops of a publish and proves the
   published chain actually syncs onto a freshly booted subscriber. *)
let crash_probe (cve : Cve.t) base ~patch ~update =
  with_tmp_dir (fun dir ->
      let vfs, count = Vfs.counting Vfs.real in
      match publish_once ~vfs dir ~source:base ~patch ~update with
      | Error m -> (0, [ "fault-free publish failed: " ^ m ])
      | Ok () -> (
        let n = count () in
        match Repo.open_dir dir with
        | Error e -> (n, [ Format.asprintf "reopen: %a" Repo.pp_error e ])
        | Ok repo -> (
          let b = Boot.boot () in
          let mgr = Apply.init b.Boot.machine in
          match Repo.sync repo mgr ~source:base with
          | Ok r when r.Repo.applied = [ cve.id ] -> (n, [])
          | Ok r ->
            ( n,
              [ Printf.sprintf "sync applied [%s], expected [%s]"
                  (String.concat "; " r.Repo.applied) cve.id ] )
          | Error e ->
            (n, [ Format.asprintf "sync after publish: %a" Repo.pp_error e ]))))

let crash_row ~seed i (cve : Cve.t) base =
  let seed = seed + (1009 * i) in
  let patch = Cve.hot_patch cve base in
  with_update cve base @@ fun update ->
  let base_digest = Tree.digest base in
  let ops, probe_notes = crash_probe cve base ~patch ~update in
  let published = ref 0 in
  let absent = ref 0 in
  let swept = ref 0 in
  let bytes = ref 0 in
  let notes = ref probe_notes in
  for i = 1 to ops do
    let p, s, by, ns =
      crash_cell ~seed ~source:base ~patch ~update ~base_digest cve.id i
    in
    if ns = [] then if p then incr published else incr absent
    else
      notes :=
        !notes
        @ List.map (Printf.sprintf "crash@%d: %s" i) ns;
    swept := !swept + s;
    bytes := !bytes + by
  done;
  row cve.id
    [ ("ops", ops); ("published", !published); ("absent", !absent);
      ("gc_swept", !swept); ("gc_bytes", !bytes) ]
    !notes

(* ---------- transition: patch under load, no global pause ----------

   Twin machines run the same busy multi-threaded stress workload. Mid-
   flight, machine A applies the CVE's update through the per-thread
   engagement (Manager.Transition) and machine B through the paper's
   stop_machine loop. The per-thread apply must converge with zero
   pause and zero forced migrations, both workloads must keep their
   invariants, and the two machines must end with byte-identical patch
   footprints. The same twin discipline then covers the reverse
   transition (undo under load) and a forced-straggler apply, where a
   thread parked asleep inside the patched function must demote the
   engagement to the bounded stop_machine fallback — which must still
   land the identical footprint. *)

module Transition = Manager.Transition

(* generous §5.2 bounds for the baseline twin: under the stress load it
   must converge (the comparison needs a successful baseline), however
   many backoff rounds that takes *)
let baseline_apply mgr update =
  Apply.apply mgr ~max_attempts:64 ~retry_budget:400_000 ~retry_cap:8_000
    update

let baseline_undo mgr id =
  Apply.undo mgr ~max_attempts:64 ~retry_budget:400_000 ~retry_cap:8_000 id

(* [Stress.run] is single-use per boot (its host-side check expects each
   counter to equal exactly one run's iterations), so every phase gets a
   fresh pair of twin machines *)
let run_tcell (cve : Cve.t) update =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let check_stress who (r : Stress.report) =
    if not r.ok then
      note "stress %s: %s" who (String.concat "; " r.failures)
  in
  let compare_footprints mgra mgrb when_ =
    if not (String.equal (Apply.footprint mgra) (Apply.footprint mgrb))
    then note "footprints diverge %s" when_
  in
  (* --- 1. apply under load: per-thread vs stop_machine --- *)
  let ba = Boot.boot () in
  let bb = Boot.boot () in
  let mgra = Apply.init ba.Boot.machine in
  let mgrb = Apply.init bb.Boot.machine in
  let apply_stats = ref None in
  let engage = Transition.engage ~on_stats:(fun s -> apply_stats := Some s) () in
  check_stress "under per-thread apply"
    (Stress.run ba ~during:(fun () ->
         match Apply.apply mgra ~engage update with
         | Ok _ -> ()
         | Error e -> note "per-thread apply failed: %s" (err_str e)));
  let base_pause = ref 0 in
  check_stress "under baseline apply"
    (Stress.run bb ~during:(fun () ->
         match baseline_apply mgrb update with
         | Ok a -> base_pause := a.Apply.pause_ns
         | Error e -> note "baseline apply failed: %s" (err_str e)));
  (match !apply_stats with
   | None -> ()
   | Some s ->
     if s.Transition.st_fallback then
       note "per-thread apply fell back to stop_machine (%d forced)"
         s.Transition.st_forced;
     if s.Transition.st_pause_ns <> 0 then
       note "per-thread apply paused %d ns" s.Transition.st_pause_ns);
  compare_footprints mgra mgrb "after apply under load";
  (match Apply.verify mgra with
   | Ok () -> ()
   | Error e -> note "transitioned machine does not verify: %s" (err_str e));
  (match Exploits.find cve.id with
   | None -> ()
   | Some ex ->
     let o = ex.run ba in
     if o.succeeded then
       note "exploit still succeeds after per-thread apply: %s" o.detail);
  (* --- 2. undo under load: reverse transition vs stop_machine --- *)
  let ba2 = Boot.boot () in
  let bb2 = Boot.boot () in
  let mgra2 = Apply.init ba2.Boot.machine in
  let mgrb2 = Apply.init bb2.Boot.machine in
  let apply_at_rest mgr who =
    match Apply.apply mgr update with
    | Ok _ -> ()
    | Error e -> note "%s apply at rest failed: %s" who (err_str e)
  in
  apply_at_rest mgra2 "per-thread twin";
  apply_at_rest mgrb2 "baseline twin";
  let saved_a =
    match Apply.applied mgra2 with a :: _ -> a.Apply.saved | [] -> []
  in
  let undo_stats = ref None in
  let engage_undo =
    Transition.engage ~on_stats:(fun s -> undo_stats := Some s) ()
  in
  check_stress "under reverse transition"
    (Stress.run ba2 ~during:(fun () ->
         match Apply.undo mgra2 ~engage:engage_undo cve.id with
         | Ok () -> ()
         | Error e -> note "reverse transition failed: %s" (err_str e)));
  check_stress "under baseline undo"
    (Stress.run bb2 ~during:(fun () ->
         match baseline_undo mgrb2 cve.id with
         | Ok () -> ()
         | Error e -> note "baseline undo failed: %s" (err_str e)));
  (* the reverse transition must restore the entry bytes exactly *)
  List.iter
    (fun (addr, bytes) ->
      let got =
        Machine.read_bytes ba2.Boot.machine addr (Bytes.length bytes)
      in
      if not (Bytes.equal got bytes) then
        note "entry bytes at %#x not restored by the reverse transition"
          addr)
    saved_a;
  (match !undo_stats with
   | None -> ()
   | Some s ->
     if s.Transition.st_pause_ns <> 0 then
       note "reverse transition paused %d ns" s.Transition.st_pause_ns);
  (* --- 3. forced straggler: bounded fallback must converge --- *)
  let straggler_stats = ref None in
  let ba3 = Boot.boot () in
  (match replaced_entry ba3.Boot.machine update with
   | None -> ()
   | Some entry ->
     let bb3 = Boot.boot () in
     let mgra3 = Apply.init ba3.Boot.machine in
     let mgrb3 = Apply.init bb3.Boot.machine in
     let straggle machine =
       (* a thread parked asleep at the patched function's entry: its pc
          sits in the guard range and it cannot reach a safe point until
          it wakes — long after the migration budget below *)
       let th =
         Machine.spawn machine ~name:"straggler" ~uid:1 ~entry
           ~args:[ 1l ]
       in
       th.Machine.state <- Machine.Sleeping (Machine.tick machine + 3_000)
     in
     let eng =
       Transition.engage
         ~policy:{ Transition.default_policy with budget = 2_000 }
         ~on_stats:(fun s -> straggler_stats := Some s)
         ()
     in
     check_stress "under straggler apply"
       (Stress.run ba3 ~during:(fun () ->
            straggle ba3.Boot.machine;
            match Apply.apply mgra3 ~engage:eng update with
            | Ok _ -> ()
            | Error e -> note "straggler apply failed: %s" (err_str e)));
     check_stress "under straggler baseline"
       (Stress.run bb3 ~during:(fun () ->
            straggle bb3.Boot.machine;
            match baseline_apply mgrb3 update with
            | Ok _ -> ()
            | Error e ->
              note "straggler baseline apply failed: %s" (err_str e)));
     (match !straggler_stats with
      | None -> ()
      | Some s ->
        if not s.Transition.st_fallback then
          note "straggler cell never engaged the stop_machine fallback";
        if s.Transition.st_forced < 1 then
          note "the straggler was never force-migrated");
     compare_footprints mgra3 mgrb3 "after the straggler apply");
  let stat ?(none = 0) f s = match s with Some s -> f s | None -> none in
  let pause = stat ~none:(-1) (fun s -> s.Transition.st_pause_ns) !apply_stats in
  let forced = stat (fun s -> s.Transition.st_forced) !straggler_stats in
  let migrated =
    Option.fold ~none:[] ~some:Transition.migrated_by_class !apply_stats
  in
  row cve.id
    ([ ("threads", stat (fun s -> s.Transition.st_threads) !apply_stats);
       ("pause_ns", pause);
       ("undo_pause_ns",
        stat ~none:(-1) (fun s -> s.Transition.st_pause_ns) !undo_stats);
       ("base_pause_ns", !base_pause);
       ("rounds", stat (fun s -> s.Transition.st_rounds) !apply_stats);
       ("sched_steps", stat (fun s -> s.Transition.st_sched_steps) !apply_stats);
       ("straggler_forced", forced);
       ("straggler_pause_ns",
        stat (fun s -> s.Transition.st_pause_ns) !straggler_stats);
       ("pauseless", if pause = 0 then 1 else 0);
       ("fallback", if forced > 0 then 1 else 0) ]
    @ List.map
        (fun c ->
          ( "migrated_" ^ Transition.sp_class_name c,
            Option.value ~default:0 (List.assoc_opt c migrated) ))
        Transition.all_classes)
    !notes

let transition_row ~seed:_ _ (cve : Cve.t) base =
  with_update cve base (run_tcell cve)

(* ---------- fleet: distribution under transport faults ----------

   For each sampled CVE a server repository publishes a short stacked
   chain (this CVE plus the next corpus CVEs that still apply to the
   patched tree, capped at three hops). A fault-free probe sync counts
   the frames a full mirror costs; then every transport fault kind is
   injected at every frame index and a fresh subscriber must still
   converge: retried sync byte-identical to the server chain, mirror
   fsck-clean, zero redundant blob transfers, all deterministic in the
   seed. One extra cell per row proves graceful degradation against an
   unreachable server. *)

module Transport = Fleet.Transport
module Server = Fleet.Server
module Subscriber = Fleet.Subscriber

(* build the server chain: publish [cve], then keep stacking the corpus
   CVEs that still apply to the successively patched tree *)
let fleet_chain (cve : Cve.t) base ~max_depth =
  let repo = Repo.of_store (Store.create ~name:("fleet-" ^ cve.id) ()) in
  let rest =
    let rec from = function
      | c :: tl when c.Cve.id = cve.Cve.id -> c :: tl
      | _ :: tl -> from tl
      | [] -> []
    in
    from Cve.all
  in
  let tree = ref base and depth = ref 0 and err = ref None in
  List.iter
    (fun (c : Cve.t) ->
      if !err = None && !depth < max_depth && Cve.applies_to c !tree then begin
        let patch = Cve.hot_patch c !tree in
        match create_update c !tree with
        | Error m -> err := Some m
        | Ok update -> (
          match Repo.publish repo ~source:!tree ~patch ~update with
          | Error e ->
            err := Some (Format.asprintf "publish %s: %a" c.id Repo.pp_error e)
          | Ok _ -> (
            match Diff.apply patch !tree with
            | Ok t -> tree := t; incr depth
            | Error m -> err := Some (Printf.sprintf "apply %s: %s" c.id m)))
      end)
    rest;
  (repo, !depth, !err)

let fleet_mirror_notes repo sub ~server_head (r : Subscriber.report) =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  if not r.r_synced then
    note "sync never converged: %s" (String.concat " | " r.r_log);
  if r.r_redundant <> 0 then
    note "%d redundant blob transfer(s) on resume" r.r_redundant;
  if r.r_synced && not (String.equal r.r_head server_head) then
    note "head %s, server serves %s" r.r_head server_head;
  (* byte-identical chain refs *)
  if r.r_synced then
    List.iter
      (fun (rname, d) ->
        if String.length rname >= 6 && String.sub rname 0 6 = "entry:" then
          match Store.find_ref sub rname with
          | Some d' when String.equal d d' -> ()
          | Some d' -> note "ref %s: mirror has %s, server %s" rname d' d
          | None -> note "ref %s missing from the mirror" rname)
      (Store.refs (Repo.store repo));
  (* the mirror must be a well-formed repository whatever happened *)
  (match Repo.fsck (Repo.of_store sub) with
  | Ok _ -> ()
  | Error fr ->
    List.iter
      (fun iss -> note "mirror fsck: %a" Store.pp_fsck_issue iss)
      fr.Repo.store_report.Store.f_issues;
    List.iter
      (fun (d, m) -> note "mirror fsck: entry %s: %s" d m)
      fr.Repo.corrupt_entries);
  !notes

let fleet_cell ~seed repo ~base_digest ~server_head ~at ~kind =
  let sub = Store.create ~name:"fleet-sub" () in
  let plan = { Transport.at; kind; seed } in
  let connect attempt =
    let p = if attempt = 1 then Some plan else None in
    let session = Server.session repo in
    let tr, _ = Transport.sim ?plan:p ~serve:(Server.handle session) () in
    Some tr
  in
  let id =
    Printf.sprintf "%s@%d" (Transport.fault_kind_to_string kind) at
  in
  let r = Subscriber.sync ~id ~store:sub ~base:base_digest ~connect () in
  (r, fleet_mirror_notes repo sub ~server_head r)

let fleet_cve ~seed i (cve : Cve.t) base =
  let seed = seed + (2003 * i) in
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let base_digest = Tree.digest base in
  let repo, depth, chain_err = fleet_chain cve base ~max_depth:3 in
  (match chain_err with Some m -> note "%s" m | None -> ());
  if depth = 0 then note "no chain could be published";
  let server_head =
    match Repo.head repo ~digest:base_digest with
    | Ok d -> d
    | Error e ->
      note "server head: %a" Repo.pp_error e;
      base_digest
  in
  (* fault-free probe: counts the frames and proves the happy path *)
  let frames =
    let sub = Store.create ~name:"fleet-probe" () in
    let session = Server.session repo in
    let tr, stats = Transport.sim ~serve:(Server.handle session) () in
    let r =
      Subscriber.sync ~store:sub ~base:base_digest
        ~connect:(fun _ -> Some tr)
        ()
    in
    List.iter (fun m -> note "probe: %s" m)
      (fleet_mirror_notes repo sub ~server_head r);
    stats.Transport.frames
  in
  let cells = ref 0 and retried = ref 0 and saved = ref 0 in
  let kinds = Transport.all_fault_kinds in
  List.iteri
    (fun ki kind ->
      for at = 1 to frames do
        incr cells;
        let cell_seed = seed + (127 * at) + ki in
        let r, ns =
          fleet_cell ~seed:cell_seed repo ~base_digest ~server_head ~at ~kind
        in
        if r.Subscriber.r_attempts > 1 then begin
          incr retried;
          saved := !saved + r.r_bytes_saved
        end;
        List.iter
          (fun m ->
            note "%s@%d: %s" (Transport.fault_kind_to_string kind) at m)
          ns
      done)
    kinds;
  (* determinism: the first faulted cell replays bit-identically *)
  if frames > 0 then begin
    let kind = List.hd kinds in
    let run () =
      fst (fleet_cell ~seed:(seed + 127) repo ~base_digest ~server_head ~at:1 ~kind)
    in
    if run () <> run () then note "cell (%s, 1) is not deterministic in seed"
        (Transport.fault_kind_to_string kind)
  end;
  (* graceful degradation: server unreachable, old head kept, store clean *)
  (let sub = Store.create ~name:"fleet-degraded" () in
   incr cells;
   let r =
     Subscriber.sync
       ~policy:{ Subscriber.default_policy with retries = 3 }
       ~store:sub ~base:base_digest
       ~connect:(fun _ -> None)
       ()
   in
   if r.Subscriber.r_synced then note "degraded cell claims a sync";
   if not (String.equal r.r_head base_digest) then
     note "degraded cell moved the head to %s" r.r_head;
   if r.r_attempts <> 3 then
     note "degraded cell used %d attempts, expected 3" r.r_attempts;
   match Store.fsck sub with
   | Ok _ -> ()
   | Error _ -> note "degraded store not fsck-clean");
  row cve.id
    [ ("depth", depth); ("frames", frames); ("cells", !cells);
      ("retried", !retried); ("bytes_saved", !saved) ]
    !notes

(* ---------- cumulative: atomic replace at depth ----------

   For each requested depth k a chain of k corpus CVEs (each still
   applicable to the successively patched tree) is published into a
   repository and collapsed with [Repo.publish_cumulative]. Contracts:

   - the collapse's [supersedes] lists exactly the chain ids, oldest
     first;
   - on a machine carrying the stacked chain, [Apply.apply_cumulative]
     lands a footprint byte-identical to the undo-then-plain-apply twin
     (same machine history, same alloc cursors);
   - undoing the collapse re-stacks the original chain, byte-exact;
   - a fault injected at every [Txn] step aborts the whole collapse —
     unwind and install alike — back to the byte-identical stacked
     machine;
   - the repository (per-update chain plus the cumulative entry)
     passes fsck.

   The shadow rows prove §5.3 end to end for the shadow-variable
   extras: patch (ctor attaches the side table), exploit blocked,
   collapse and un-collapse keep the shadows live, final undo runs the
   dtors and the exploit returns. *)

(* publish a chain of [depth] CVEs: walk the corpus, keep every CVE
   that still applies to the successively patched tree *)
let cumulative_chain ~name base ~depth =
  let repo = Repo.of_store (Store.create ~name ()) in
  let tree = ref base and err = ref None in
  let chain = ref [] in
  List.iter
    (fun (c : Cve.t) ->
      if !err = None && List.length !chain < depth && Cve.applies_to c !tree
      then begin
        let patch = Cve.hot_patch c !tree in
        match create_update c !tree with
        | Error m -> err := Some m
        | Ok update -> (
          match Repo.publish repo ~source:!tree ~patch ~update with
          | Error e ->
            err :=
              Some (Format.asprintf "publish %s: %a" c.id Repo.pp_error e)
          | Ok _ -> (
            match Diff.apply patch !tree with
            | Ok t ->
              tree := t;
              chain := (c, update) :: !chain
            | Error m -> err := Some (Printf.sprintf "apply %s: %s" c.id m)))
      end)
    Cve.all;
  (repo, List.rev !chain, !err)

(* one faulted collapse cell: the machine carries the stacked chain;
   an abort must put it back byte-identical (stack still live), a
   survived apply must verify and un-collapse for the next cell *)
let run_cucell mgr cum_id update step ~seed =
  faulted_cell
    ~apply:(fun mgr ~inject u -> Apply.apply_cumulative mgr ~inject u)
    ~what:"collapse" mgr cum_id update step ~seed

let stack_ids mgr =
  List.rev_map
    (fun (a : Apply.applied) -> a.Apply.update.Ksplice.Update.update_id)
    (Apply.applied mgr)

let run_curow ~seed ~depth base =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let repo, chain, chain_err =
    cumulative_chain ~name:(Printf.sprintf "cumulative-%d" depth) base ~depth
  in
  (match chain_err with Some m -> note "%s" m | None -> ());
  let ids = List.map (fun ((c : Cve.t), _) -> c.id) chain in
  if chain = [] then note "no chain could be published";
  let cum_id = Printf.sprintf "cumulative-depth-%d" depth in
  let cum =
    if chain = [] then None
    else
      match
        Repo.publish_cumulative repo ~source:base ~update_id:cum_id
          ~description:
            (Printf.sprintf "collapse of %d updates" (List.length chain))
      with
      | Ok e -> Some e.Repo.update
      | Error e ->
        note "publish_cumulative: %a" Repo.pp_error e;
        None
  in
  (match cum with
   | None -> ()
   | Some cu ->
     if cu.Ksplice.Update.supersedes <> ids then
       note "collapse supersedes [%s], chain is [%s]"
         (String.concat "; " cu.Ksplice.Update.supersedes)
         (String.concat "; " ids));
  let stack_all mgr who =
    List.iter
      (fun (_, (u : Ksplice.Update.t)) ->
        match Apply.apply mgr u with
        | Ok _ -> ()
        | Error e ->
          note "%s: stacking %s failed: %s" who u.update_id (err_str e))
      chain
  in
  let cells = ref [] in
  (match cum with
   | None -> ()
   | Some cu ->
     (* footprint twins: undo-then-plain-apply vs atomic replace *)
     let ba = Boot.boot () and bb = Boot.boot () in
     let mgra = Apply.init ba.Boot.machine in
     let mgrb = Apply.init bb.Boot.machine in
     stack_all mgra "plain twin";
     stack_all mgrb "collapse twin";
     List.iter
       (fun ((c : Cve.t), _) ->
         match Apply.undo mgra c.id with
         | Ok () -> ()
         | Error e -> note "plain twin: undo %s failed: %s" c.id (err_str e))
       (List.rev chain);
     (match Apply.apply mgra cu with
      | Ok _ -> ()
      | Error e -> note "plain twin: apply failed: %s" (err_str e));
     (match Apply.apply_cumulative mgrb cu with
      | Ok _ -> ()
      | Error e -> note "atomic replace failed: %s" (err_str e));
     if not (String.equal (Apply.footprint mgra) (Apply.footprint mgrb))
     then note "collapse footprint diverges from the plain twin";
     (match stack_ids mgrb with
      | [ id ] when String.equal id cum_id -> ()
      | got ->
        note "after the collapse the stack is [%s], want [%s]"
          (String.concat "; " got) cum_id);
     (match Apply.verify mgrb with
      | Ok () -> ()
      | Error e -> note "collapsed machine does not verify: %s" (err_str e));
     List.iter
       (fun ((c : Cve.t), _) ->
         match Exploits.find c.id with
         | None -> ()
         | Some ex ->
           let o = ex.run bb in
           if o.succeeded then
             note "exploit %s still succeeds after the collapse: %s" ex.name
               o.detail)
       chain;
     (* undoing the collapse must re-stack the superseded chain *)
     (match Apply.undo mgrb cum_id with
      | Error e -> note "undo of the collapse failed: %s" (err_str e)
      | Ok () ->
        if stack_ids mgrb <> ids then
          note "undo of the collapse re-stacked [%s], want [%s]"
            (String.concat "; " (stack_ids mgrb))
            (String.concat "; " ids);
        match Apply.verify mgrb with
        | Ok () -> ()
        | Error e -> note "re-stacked machine does not verify: %s" (err_str e));
     (* the faulted cells, on a third stacked machine *)
     let bc = Boot.boot () in
     let mgrc = Apply.init bc.Boot.machine in
     stack_all mgrc "fault twin";
     cells :=
       List.mapi
         (fun si step ->
           (step, run_cucell mgrc cum_id cu step ~seed:(seed + (31 * si))))
         Txn.all_steps;
     (* recovery: a clean collapse must still land after the sweep *)
     (match Apply.apply_cumulative mgrc cu with
      | Error e -> note "clean collapse after the sweep failed: %s" (err_str e)
      | Ok _ -> (
        match Apply.verify mgrc with
        | Ok () -> ()
        | Error e -> note "recovered collapse does not verify: %s" (err_str e))));
  let fsck_clean =
    match Repo.fsck repo with
    | Ok _ -> true
    | Error fr ->
      List.iter
        (fun iss -> note "fsck: %a" Store.pp_fsck_issue iss)
        fr.Repo.store_report.Store.f_issues;
      List.iter
        (fun (d, m) -> note "fsck: entry %s: %s" d m)
        fr.Repo.corrupt_entries;
      false
  in
  let chars, counters, cell_notes = step_cells !cells in
  row ~cells:chars
    ~detail:(Json.Obj [ ("chain", Json.Arr (List.map (fun id -> Json.Str id) ids)) ])
    (string_of_int depth)
    ([ ("depth", List.length chain); ("fsck_clean", if fsck_clean then 1 else 0) ]
    @ counters)
    (!notes @ cell_notes)

(* §5.3 round trip for one shadow-variable extra *)
let run_cushadow (cve : Cve.t) base =
  with_update cve base @@ fun update ->
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let b = Boot.boot () in
  let m = b.Boot.machine in
  let mgr = Apply.init m in
  let count0 = Machine.shadow_count m in
  let check_exploit who expect =
    match Exploits.find cve.id with
    | None -> note "no exploit registered for %s" cve.id
    | Some ex ->
      let o = ex.run b in
      if o.succeeded <> expect then
        note "%s: exploit %s %s (%s)" who ex.name
          (if o.succeeded then "succeeded" else "was blocked")
          o.detail
  in
  let repo = Repo.of_store (Store.create ~name:("cushadow-" ^ cve.id) ()) in
  let patch = Cve.hot_patch cve base in
  (match Repo.publish repo ~source:base ~patch ~update with
   | Ok _ -> ()
   | Error e -> note "publish: %a" Repo.pp_error e);
  let cum_id = cve.id ^ "-cumulative" in
  let cum =
    match
      Repo.publish_cumulative repo ~source:base ~update_id:cum_id
        ~description:("collapse of " ^ cve.id)
    with
    | Ok e -> Some e.Repo.update
    | Error e ->
      note "publish_cumulative: %a" Repo.pp_error e;
      None
  in
  (match Apply.apply mgr update with
   | Ok _ -> ()
   | Error e -> note "apply failed: %s" (err_str e));
  if Machine.shadow_count m <= count0 then
    note "shadow ctor attached nothing (%d bindings)" (Machine.shadow_count m);
  check_exploit "patched" false;
  let shadows = ref 0 in
  (match cum with
   | None -> ()
   | Some cu ->
     (match Apply.apply_cumulative mgr cu with
      | Ok _ -> ()
      | Error e -> note "atomic replace failed: %s" (err_str e));
     shadows := Machine.shadow_count m;
     if !shadows <= count0 then
       note "collapse dropped the shadows (%d bindings)" !shadows;
     check_exploit "collapsed" false;
     (match Apply.undo mgr cum_id with
      | Ok () -> ()
      | Error e -> note "undo of the collapse failed: %s" (err_str e));
     if Machine.shadow_count m <= count0 then
       note "un-collapse lost the original update's shadows";
     check_exploit "re-stacked" false);
  (match Apply.undo mgr cve.id with
   | Ok () -> ()
   | Error e -> note "final undo failed: %s" (err_str e));
  if Machine.shadow_count m <> count0 then
    note "shadow dtor left %d bindings (started with %d)"
      (Machine.shadow_count m) count0;
  check_exploit "reverted" true;
  row cve.id [ ("shadows", !shadows) ] !notes

(* depth rows and shadow rows; a depth row's seed counts depth rows only *)
let cumulative_rows ~seed keys =
  let keys =
    if keys = [] then
      [ "1"; "8"; "32" ] @ List.map (fun (c : Cve.t) -> c.id) Cve.shadow_extras
    else keys
  in
  let parse key =
    match int_of_string_opt key with
    | Some d when d >= 1 -> Ok (`Depth d)
    | _ -> (
      match
        List.find_opt (fun (c : Cve.t) -> c.id = key) Cve.shadow_extras
      with
      | Some c -> Ok (`Shadow c)
      | None ->
        Error
          (Unknown_row
             { sweep = "cumulative"; key;
               expected =
                 "a chain depth (a positive integer) or a shadow-variable \
                  extra ("
                 ^ String.concat ", "
                     (List.map (fun (c : Cve.t) -> c.id) Cve.shadow_extras)
                 ^ ")" }))
  in
  Result.map
    (fun parsed ->
      let base = Base_kernel.tree () in
      snd
        (List.fold_left_map
           (fun i -> function
             | `Depth depth ->
               (i + 1, fun () -> run_curow ~seed:(seed + (4001 * i)) ~depth base)
             | `Shadow cve -> (i, fun () -> run_cushadow cve base))
           0 parsed))
    (map_ok parse keys)

(* ---------- diffmin: minimal differencing ----------

   For every corpus CVE (plus the shadow and differencing extras) build
   the update twice — function-granular minimal and whole-unit baseline
   — and prove the minimal one is complete (applies, verifies, survives
   stress, blocks the exploit, lands a deterministic footprint) while
   measuring what minimality buys: update bytes and run-pre candidate
   trials. *)

let defined_syms (o : Objfile.t) =
  List.length (List.filter Objfile.Symbol.is_defined o.Objfile.symbols)

let update_size (u : Ksplice.Update.t) =
  Bytes.length (Ksplice.Update.to_bytes u)

(* the run-pre trial counter is process-global: applies that are being
   measured take this lock so concurrent rows cannot bleed into each
   other's deltas *)
let dm_trials_mutex = Mutex.create ()

let dm_measured_apply update =
  Mutex.protect dm_trials_mutex (fun () ->
      let b = Boot.boot () in
      let mgr = Apply.init b.machine in
      Ksplice.Runpre.reset_match_attempts ();
      let r = Apply.apply mgr update in
      let trials = Ksplice.Runpre.match_attempts () in
      (b, mgr, r, trials))

let expected_banner_sum s =
  Int32.of_int (String.fold_left (fun a c -> a + Char.code c) 0 s)

let run_dmrow (cve : Cve.t) base =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let patch = Cve.hot_patch cve base in
  let req =
    { Create.source = base; patch; update_id = cve.id;
      description = cve.desc }
  in
  let measure cmin cwhole =
    (* completeness of the explanation: every defined primary symbol
       must carry an inclusion reason *)
    let reasons = Create.shipped_symbols cmin in
    List.iter
      (fun (sym : Objfile.Symbol.t) ->
        if Objfile.Symbol.is_defined sym
           && not (List.mem_assoc sym.name reasons)
        then note "shipped symbol %s has no inclusion reason" sym.name)
      cmin.Create.update.primary.symbols;
    let has_reason p =
      List.exists (fun (_, (_, r)) -> p r) reasons
    in
    let closure =
      has_reason (function Ksplice.Prepost.Closure_of _ -> true | _ -> false)
    in
    let data_ref =
      has_reason (function
        | Ksplice.Prepost.Data_referent _ -> true
        | _ -> false)
    in
    (* minimal apply: measured, then proven complete *)
    let b, mgr, rmin, min_trials = dm_measured_apply cmin.Create.update in
    (match rmin with
     | Error e -> note "minimal apply failed: %s" (err_str e)
     | Ok _ -> (
       (match Apply.verify mgr with
        | Ok () -> ()
        | Error e -> note "minimal apply did not verify: %s" (err_str e));
       let r = Stress.run b ~threads:2 ~iterations:5 in
       if not r.ok then
         note "stress on minimal apply: %s" (String.concat "; " r.failures);
       (match Exploits.find cve.id with
        | None -> ()
        | Some ex ->
          let o = ex.run b in
          if o.succeeded then
            note "exploit %s survives the minimal update: %s" ex.name
              o.detail);
       if String.equal cve.id Cve.diff_banner.id then begin
         let got = Boot.read_global b "banner_sum" in
         let want = expected_banner_sum Cve.banner_new in
         if not (Int32.equal got want) then
           note "banner_sum %ld after refresh, expected %ld" got want
       end;
       (* twin determinism: the same minimal update on a second fresh
          boot must land a byte-identical footprint *)
       let _, mgr2, rmin2, _ = dm_measured_apply cmin.Create.update in
       (match rmin2 with
        | Error e -> note "twin minimal apply failed: %s" (err_str e)
        | Ok _ ->
          if not (String.equal (Apply.footprint mgr) (Apply.footprint mgr2))
          then note "minimal apply footprint is not deterministic")));
    (* whole-unit twin: must also work, and cost at least as much *)
    let _, mgrw, rwhole, whole_trials =
      dm_measured_apply cwhole.Create.update
    in
    (match rwhole with
     | Error e -> note "whole-unit apply failed: %s" (err_str e)
     | Ok _ -> (
       match Apply.verify mgrw with
       | Ok () -> ()
       | Error e -> note "whole-unit apply did not verify: %s" (err_str e)));
    let min_bytes = update_size cmin.Create.update in
    let whole_bytes = update_size cwhole.Create.update in
    if min_bytes > whole_bytes then
      note "minimal update larger than whole-unit (%d > %d)" min_bytes
        whole_bytes;
    if min_trials > whole_trials then
      note "minimal apply tried more candidates (%d > %d)" min_trials
        whole_trials;
    ( (if closure then "C" else "-") ^ (if data_ref then "D" else "-"),
      [ min_bytes; whole_bytes;
        defined_syms cmin.Create.update.primary;
        defined_syms cwhole.Create.update.primary;
        min_trials; whole_trials;
        (if closure then 1 else 0); (if data_ref then 1 else 0) ] )
  in
  let cells, figures =
    match (Create.create req, Create.create ~minimal:false req) with
    | Ok a, Ok b -> measure a b
    | Error e, _ ->
      note "minimal create failed: %a" Create.pp_error e;
      ("--", List.init 8 (fun _ -> 0))
    | _, Error e ->
      note "whole-unit create failed: %a" Create.pp_error e;
      ("--", List.init 8 (fun _ -> 0))
  in
  row ~cells cve.id
    (List.combine
       [ "min_bytes"; "whole_bytes"; "min_syms"; "whole_syms"; "min_trials";
         "whole_trials"; "closure"; "data_ref" ]
       figures)
    !notes

(* the Table-1 refusals: each data-init mainline patch (custom code
   stripped) whose initializer image genuinely changes must come back as
   Data_semantics_changed naming the datum *)
let dm_persist_rejects base =
  List.fold_left
    (fun acc (cve : Cve.t) ->
      match cve.custom with
      | Some (Cve.Changes_data_init, _) -> (
        match
          Create.create
            { Create.source = base; patch = Cve.mainline_patch cve base;
              update_id = cve.id; description = "" }
        with
        | Error (Create.Data_semantics_changed ((_, d) :: _))
          when String.length d > 0 ->
          acc + 1
        | _ -> acc)
      | _ -> acc)
    0 Cve.all

(* whole-report contracts: at least one closure / data-referent /
   refusal demo each, and the minimal updates cost strictly fewer bytes
   and no more run-pre trials than the whole-unit baseline *)
let diffmin_check t =
  let n = get t in
  let refused = dm_persist_rejects (Base_kernel.tree ()) in
  List.filter_map
    (fun (failed, msg) -> if failed then Some msg else None)
    [ (n "closure" < 1, "no row shipped a symbol by dependency closure");
      (n "data_ref" < 1, "no row shipped a function as a data referent");
      ( n "min_bytes" >= n "whole_bytes",
        Printf.sprintf "minimal updates cost %d bytes, whole-unit %d"
          (n "min_bytes") (n "whole_bytes") );
      ( n "min_trials" > n "whole_trials",
        Printf.sprintf "minimal applies tried %d candidates, whole-unit %d"
          (n "min_trials") (n "whole_trials") );
      ( refused < 1,
        Printf.sprintf
          "%d Table-1 data-init mainline patches refused as \
           Data_semantics_changed, expected at least 1"
          refused ) ]

(* ---------- the registry ---------- *)

let all =
  [
    { name = "fault";
      doc =
        "inject the canonical fault at every apply step of each CVE and \
         demand a byte-identical rollback, then a clean re-apply that \
         verifies, survives stress and blocks the exploit (default: all \
         64 CVEs; cells in step order: R rolled back, B benign, - never \
         fired, ! violation)";
      rows = cve_rows ~sweep:"fault" ~default:(fun () -> Cve.all) fault_row;
      check = no_check };
    { name = "manager";
      doc =
        "push each CVE through the supervised manager under an injected \
         fault, an adversarial squatting thread and a failing health \
         probe; every cell must end terminal with clean rollback audits \
         (default: all 64 CVEs; cells I/A/U: H healthy, P parked, Q \
         quarantined, W still waiting)";
      rows = cve_rows ~sweep:"manager" ~default:(fun () -> Cve.all) manager_row;
      check = no_check };
    { name = "crash";
      doc =
        "publish each CVE into an on-disk repository with a crash at \
         every mutating I/O op, then reopen and demand fsck-clean \
         all-or-nothing recovery and a safe GC (default: every 8th CVE)";
      rows = cve_rows ~sweep:"crash" ~default:every_8th crash_row;
      check = no_check };
    { name = "transition";
      doc =
        "apply and undo each CVE under load through the per-thread model \
         against a stop_machine twin: zero pause, identical footprints, \
         a forced straggler converging through the bounded fallback \
         (default: every 8th CVE)";
      rows = cve_rows ~sweep:"transition" ~default:every_8th transition_row;
      check = no_check };
    { name = "fleet";
      doc =
        "sync each CVE's published chain with every transport fault at \
         every wire frame: byte-identical convergence, fsck-clean \
         mirrors, no redundant transfers, graceful degradation (default: \
         every 8th CVE)";
      rows = cve_rows ~sweep:"fleet" ~default:every_8th fleet_cve;
      check = no_check };
    { name = "cumulative";
      doc =
        "collapse corpus chains of each depth into one cumulative update: \
         footprint parity with the undo-then-apply twin, a fault at every \
         step rolling back the whole collapse, undo re-stacking the \
         chain; shadow-extra rows round-trip \u{00a7}5.3 shadow variables \
         (default: depths 1, 8, 32 and both shadow extras; cells as in \
         fault)";
      rows = cumulative_rows;
      check = no_check };
    { name = "diffmin";
      doc =
        "create each update minimal and whole-unit: the minimal one must \
         apply, verify, survive stress, block its exploit and explain \
         every shipped symbol at no more bytes or run-pre trials \
         (default: all CVEs plus the shadow and differencing extras; \
         cells: C dependency-closure demo, D data-referent demo)";
      rows =
        cve_rows ~sweep:"diffmin"
          ~default:(fun () -> Cve.all @ Cve.shadow_extras @ Cve.diff_extras)
          (fun ~seed:_ _ cve base -> run_dmrow cve base);
      check = diffmin_check };
  ]

let find name =
  match List.find_opt (fun sw -> String.equal sw.name name) all with
  | Some sw -> Ok sw
  | None -> Error (Unknown_sweep name)

let pp_error ppf = function
  | Unknown_sweep name ->
    Format.fprintf ppf "unknown sweep %S (one of: %s)" name
      (String.concat ", " (List.map (fun sw -> sw.name) all))
  | Unknown_row { sweep; key; expected } ->
    Format.fprintf ppf "sweep %s has no row %S: expected %s" sweep key
      expected
