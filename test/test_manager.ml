(* The supervised update manager: watchdog deadlines, the deterministic
   retry queue, the health gate with auto-revert, and the structured
   event log. Each test boots the tiny two-function kernel from the
   fault-injection suite; the corpus-wide behaviour is covered by the
   manager sweep (the "manager" entry of Corpus.Sweep). *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Txn = Ksplice.Txn
module Faultinj = Ksplice.Faultinj

let t name f = Alcotest.test_case name `Quick f

let replace old_s new_s s =
  let rec find i =
    if i + String.length old_s > String.length s then
      Alcotest.failf "pattern %S not found" old_s
    else if String.sub s i (String.length old_s) = old_s then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ new_s
  ^ String.sub s (i + String.length old_s)
      (String.length s - i - String.length old_s)

let base_src =
  {|
int fares = 7;
int fare(int z) {
  int acc = 0;
  int i;
  for (i = 0; i < z; i = i + 1)
    acc = acc + fares;
  return acc;
}
int churn(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1)
    acc = acc + fare(3);
  return acc;
}
|}

let boot src =
  let tree = Tree.of_list [ ("k/t.c", src) ] in
  let build = Kbuild.build_tree_exn ~options:Minic.Driver.run_build tree in
  let img = Image.link_exn ~base:0x100000 (Kbuild.objects build) in
  (tree, img, Machine.create img)

let call m img name args =
  let sym = Option.get (Image.lookup_global img name) in
  match Machine.call_function m ~addr:sym.addr ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "%s faulted: %a" name Machine.pp_fault f

let mk_update ?supersedes ~id tree tree' =
  match
    Create.create ?supersedes
      { source = tree; patch = Diff.diff_trees tree tree'; update_id = id;
        description = id }
  with
  | Ok c -> c.update
  | Error e -> Alcotest.failf "create: %a" Create.pp_error e

let patched_fare tree =
  Tree.add tree "k/t.c"
    (replace "acc = acc + fares;" "acc = acc + fares + 1;"
       (Option.get (Tree.find tree "k/t.c")))

let park_churner m img =
  (* a thread spinning inside fare itself: quiescence can never hold *)
  let entry = (Option.get (Image.lookup_global img "fare")).addr in
  ignore (Machine.spawn m ~name:"churner" ~uid:0 ~entry ~args:[ 100000000l ]);
  ignore (Machine.run m ~steps:50 : int)

let check_identical what m snap =
  match Machine.diff_snapshot m snap with
  | [] -> ()
  | diffs ->
    Alcotest.failf "%s: machine diverged from snapshot:\n  %s" what
      (String.concat "\n  " diffs)

let test_policy =
  { Manager.default_policy with
    deadline = 600;
    apply_attempts = 50;
    retry_limit = 3;
    backoff_base = 100;
    backoff_cap = 400;
    jitter = 50;
    seed = 11 }

let kinds_of t id =
  List.filter_map
    (fun (e : Manager.Event.t) ->
      if String.equal e.update id then Some e.kind else None)
    (Manager.events t)

(* --- the watchdog, at the Apply layer --- *)

let test_deadline_exceeded_rolls_back () =
  let tree, img, m = boot base_src in
  park_churner m img;
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let ap = Apply.init m in
  let snap = Machine.snapshot m in
  match
    Apply.apply ap ~max_attempts:100 ~retry_base:64 ~retry_cap:1024
      ~retry_budget:100000 ~deadline:500 u
  with
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded"
  | Error (Apply.Deadline_exceeded { de_budget; de_diag }) ->
    Alcotest.(check int) "reported budget" 500 de_budget;
    Alcotest.(check bool) "backoff clamped to the deadline" true
      (de_diag.nq_steps_run > 0 && de_diag.nq_steps_run <= 500);
    Alcotest.(check bool) "attempts remained" true (de_diag.nq_attempts < 100);
    Alcotest.(check bool) "blockers diagnosed" true
      (de_diag.nq_blockers <> []);
    check_identical "rollback after deadline" m snap
  | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e

(* --- the retry queue --- *)

let test_retry_queue_parks_after_limit () =
  let tree, img, m = boot base_src in
  park_churner m img;
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Manager.create ~policy:test_policy (Apply.init m) in
  Manager.submit mgr u;
  Manager.run mgr;
  (match Manager.status mgr "fare" with
   | Some (Manager.Parked (Manager.Exhausted_retries nq)) ->
     Alcotest.(check bool) "blockers preserved in park diagnostics" true
       (nq.Apply.nq_blockers <> [])
   | Some s -> Alcotest.failf "unexpected status: %a" Manager.pp_status s
   | None -> Alcotest.fail "update not tracked");
  Alcotest.(check int) "retry limit honoured" 3 (Manager.attempts mgr "fare");
  Alcotest.(check int) "no audit violations" 0 (Manager.violations mgr);
  (* the retry delays follow the seeded exponential backoff policy:
     min(cap, base * 2^(n-1)) <= delay < that + jitter *)
  let retries =
    List.filter
      (fun (e : Manager.Event.t) -> e.kind = Manager.Event.Retried)
      (Manager.events mgr)
  in
  Alcotest.(check int) "one retry per non-final attempt" 2
    (List.length retries);
  List.iter
    (fun (e : Manager.Event.t) ->
      let expo = min 400 (100 * (1 lsl (e.attempt - 1))) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d delay %d within policy" e.attempt e.steps)
        true
        (e.steps >= expo && e.steps < expo + 50))
    retries;
  (* liveness: nothing is left waiting, and the kernel still runs the old
     code *)
  Alcotest.(check bool) "terminal state" true
    (List.for_all
       (fun (_, s) -> s <> Manager.Waiting)
       (Manager.statuses mgr));
  Alcotest.(check (list string)) "nothing applied" []
    (List.map
       (fun (a : Apply.applied) -> a.update.Ksplice.Update.update_id)
       (Apply.applied (Manager.apply_state mgr)))

let heal_run () =
  (* a transient quiescence veto on the first attempt only: the retry
     queue must carry the update to a healthy second attempt *)
  let tree, _img, m = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let session =
    Faultinj.make m
      { step = Txn.Quiesce; kind = Faultinj.Forced_not_quiescent; seed = 3 }
  in
  let mgr = Manager.create ~policy:test_policy (Apply.init m) in
  Manager.submit mgr u
    ~inject:(fun ~attempt -> if attempt = 1 then Some session else None);
  Manager.run mgr;
  mgr

let test_retry_queue_heals_transient_veto () =
  let mgr = heal_run () in
  (match Manager.status mgr "fare" with
   | Some Manager.Applied_healthy -> ()
   | Some s -> Alcotest.failf "unexpected status: %a" Manager.pp_status s
   | None -> Alcotest.fail "update not tracked");
  Alcotest.(check int) "healed on the second attempt" 2
    (Manager.attempts mgr "fare");
  Alcotest.(check int) "no audit violations" 0 (Manager.violations mgr);
  let kinds = kinds_of mgr "fare" in
  Alcotest.(check bool) "event log shows the retry" true
    (List.mem Manager.Event.Retried kinds
     && List.mem Manager.Event.Apply_failed kinds
     && List.mem Manager.Event.Healthy kinds)

let test_event_log_deterministic () =
  (* the manager has no clocks and no Random: identical boots, policy and
     faults must serialize to the identical event log *)
  let a = Report.Json.to_string (Manager.report (heal_run ())) in
  let b = Report.Json.to_string (Manager.report (heal_run ())) in
  Alcotest.(check string) "replayable event log" a b

(* --- the health gate --- *)

let test_health_gate_auto_reverts () =
  let tree, img, m = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Manager.create ~policy:test_policy (Apply.init m) in
  let canary = ref 0 in
  Manager.submit mgr u
    ~health:
      [ { Manager.hc_name = "canary";
          hc_probe =
            (fun () ->
              incr canary;
              Error "canary died") } ];
  Manager.run mgr;
  Alcotest.(check bool) "probe actually ran" true (!canary > 0);
  (match Manager.status mgr "fare" with
   | Some (Manager.Quarantined { evidence; reverted }) ->
     Alcotest.(check bool) "auto-reverted" true reverted;
     Alcotest.(check bool) "evidence names the probe" true
       (List.exists (fun (n, _) -> n = "canary") evidence)
   | Some s -> Alcotest.failf "unexpected status: %a" Manager.pp_status s
   | None -> Alcotest.fail "update not tracked");
  let kinds = kinds_of mgr "fare" in
  Alcotest.(check bool) "gate events logged" true
    (List.mem Manager.Event.Health_failed kinds
     && List.mem Manager.Event.Reverted kinds
     && List.mem Manager.Event.Quarantined kinds);
  Alcotest.(check int) "no audit violations" 0 (Manager.violations mgr);
  Alcotest.(check (list string)) "stack empty after auto-revert" []
    (List.map
       (fun (a : Apply.applied) -> a.update.Ksplice.Update.update_id)
       (Apply.applied (Manager.apply_state mgr)));
  Alcotest.(check int32) "old behaviour restored" 21l
    (call m img "fare" [ 3l ])

let test_duplicate_submit_rejected () =
  let tree, _img, m = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Manager.create (Apply.init m) in
  Manager.submit mgr u;
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Manager.submit: fare already submitted") (fun () ->
      Manager.submit mgr u)

(* --- supervised atomic replace --- *)

let patched_fare2 tree =
  Tree.add tree "k/t.c"
    (replace "acc = acc + fares + 1;" "acc = acc + fares + 2;"
       (Option.get (Tree.find tree "k/t.c")))

let stack_ids mgr =
  List.rev_map
    (fun (a : Apply.applied) -> a.update.Ksplice.Update.update_id)
    (Apply.applied (Manager.apply_state mgr))

let stacked_manager () =
  let tree, img, m = boot base_src in
  let tree1 = patched_fare tree in
  let tree2 = patched_fare2 tree1 in
  let mgr = Manager.create ~policy:test_policy (Apply.init m) in
  Manager.submit mgr (mk_update ~id:"fare" tree tree1);
  Manager.submit mgr (mk_update ~id:"fare-2" tree1 tree2);
  Manager.run mgr;
  Alcotest.(check (list string)) "chain stacked" [ "fare"; "fare-2" ]
    (stack_ids mgr);
  let cum =
    mk_update ~supersedes:[ "fare"; "fare-2" ] ~id:"fare-cum" tree tree2
  in
  (mgr, img, m, cum)

let test_submit_cumulative_collapses () =
  let mgr, img, m, cum = stacked_manager () in
  Manager.submit_cumulative mgr cum;
  Manager.run mgr;
  (match Manager.status mgr "fare-cum" with
   | Some Manager.Applied_healthy -> ()
   | Some s -> Alcotest.failf "unexpected status: %a" Manager.pp_status s
   | None -> Alcotest.fail "cumulative update not tracked");
  Alcotest.(check (list string)) "stack collapsed" [ "fare-cum" ]
    (stack_ids mgr);
  Alcotest.(check int32) "cumulative behaviour" 27l (call m img "fare" [ 3l ]);
  Alcotest.(check int) "no audit violations" 0 (Manager.violations mgr);
  (* a non-cumulative update is rejected at submit time *)
  let tree, _, _ = boot base_src in
  let plain = mk_update ~id:"plain" tree (patched_fare tree) in
  Alcotest.check_raises "supersedes nothing"
    (Invalid_argument "Manager.submit_cumulative: plain supersedes nothing")
    (fun () -> Manager.submit_cumulative mgr plain)

let test_cumulative_health_gate_restores_stack () =
  let mgr, img, m, cum = stacked_manager () in
  Manager.submit_cumulative mgr cum
    ~health:
      [ { Manager.hc_name = "canary"; hc_probe = (fun () -> Error "died") } ];
  Manager.run mgr;
  (match Manager.status mgr "fare-cum" with
   | Some (Manager.Quarantined { reverted; _ }) ->
     Alcotest.(check bool) "auto-reverted" true reverted
   | Some s -> Alcotest.failf "unexpected status: %a" Manager.pp_status s
   | None -> Alcotest.fail "cumulative update not tracked");
  Alcotest.(check (list string)) "displaced stack restored"
    [ "fare"; "fare-2" ] (stack_ids mgr);
  Alcotest.(check int32) "stacked behaviour back" 27l
    (call m img "fare" [ 3l ]);
  Alcotest.(check int) "no audit violations" 0 (Manager.violations mgr)

(* --- a quick slice of the corpus-wide supervised sweep --- *)

let test_manager_sweep_subset () =
  let sw = Result.get_ok (Corpus.Sweep.find "manager") in
  match
    Corpus.Sweep.run ~seed:5 ~keys:[ "CVE-2006-2451"; "CVE-2008-0007" ]
      ~domains:1 sw
  with
  | Error e -> Alcotest.failf "%a" Corpus.Sweep.pp_error e
  | Ok r ->
    Alcotest.(check int) "cells" 6
      (List.fold_left
         (fun a (row : Corpus.Sweep.row) -> a + String.length row.cells)
         0 r.rows);
    Alcotest.(check int) "no audit violations" 0
      (Corpus.Sweep.total r "audit_violations");
    (match List.concat_map (fun (row : Corpus.Sweep.row) -> row.notes) r.rows with
     | [] -> ()
     | notes -> Alcotest.failf "contract breaches:\n%s"
                  (String.concat "\n" notes));
    Alcotest.(check bool) "sweep verdict" true (Corpus.Sweep.ok r)

let suite =
  [
    ( "manager",
      [
        t "deadline exceeded aborts and rolls back"
          test_deadline_exceeded_rolls_back;
        t "retry queue parks after limit" test_retry_queue_parks_after_limit;
        t "retry queue heals a transient veto"
          test_retry_queue_heals_transient_veto;
        t "event log is deterministic" test_event_log_deterministic;
        t "health gate auto-reverts and quarantines"
          test_health_gate_auto_reverts;
        t "duplicate submit rejected" test_duplicate_submit_rejected;
        t "supervised atomic replace collapses the stack"
          test_submit_cumulative_collapses;
        t "health gate restores the displaced stack"
          test_cumulative_health_gate_restores_stack;
        t "manager sweep subset" test_manager_sweep_subset;
      ] );
  ]
