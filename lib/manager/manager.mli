(** The supervised update manager: the operator's loop above
    {!Ksplice.Apply}.

    The paper's safety story ends at apply time — §5.2 guarantees an
    aborted update leaves the kernel unchanged. A production updater
    must also survive {e after} the transaction: applies that never
    quiesce, updates that pass run-pre but misbehave once live, and
    operators who need graceful degradation instead of a wedge. The
    manager owns four mechanisms:

    + a {b watchdog} — every apply runs under [policy.deadline], a hard
      scheduler-step budget threaded into {!Ksplice.Apply.apply}; blowing
      it aborts with [Deadline_exceeded] and the usual byte-identical
      rollback;
    + a deterministic {b retry queue} — quiescence failures
      ([Not_quiescent], [Deadline_exceeded]) are retried under bounded
      exponential backoff with seeded jitter. No wall clocks: time is
      the manager's own step counter, advanced only by the scheduler
      runs it performs, so a run is replayable from its seed. After
      [retry_limit] attempts the update is parked with its blocker
      diagnostics;
    + a {b health gate} — after a successful apply the manager runs
      {!Ksplice.Apply.verify} plus the caller's probes (exploit checks,
      stress smokes) {e inside a transaction}: if all pass, the probe
      side effects are kept; if any fail, they are rolled back and the
      update is transactionally undone (auto-revert) and quarantined
      with the evidence;
    + a structured {b event log} — submitted/applied/retried/parked/
      reverted/quarantined, each stamped with the manager clock and the
      machine's monotone instruction odometer, serializable through
      {!Report.Json}.

    With [audit_rollback] on, the manager snapshots the machine before
    every apply attempt and diffs after every abort and auto-revert —
    any divergence is counted in {!violations} and logged as a
    [Violation] event, so a sweep can assert the §5.2 contract end to
    end. *)

(** The per-thread transition manager (livepatch-style consistency
    model): an [Apply.engage_fn] that migrates threads at safe points
    instead of demanding global quiescence under [stop_machine]. *)
module Transition = Transition

(** A post-apply health probe. [hc_probe] returns [Error evidence] on
    failure; it may freely run machine code (exploits, stress load) —
    the manager wraps the whole gate in a transaction and unwinds probe
    side effects before auto-reverting. A probe that raises is treated
    as failed. *)
type health_check = {
  hc_name : string;
  hc_probe : unit -> (unit, string) result;
}

type policy = {
  deadline : int;
      (** watchdog: scheduler-step budget per apply (and per undo) *)
  apply_attempts : int;  (** quiescence attempts within one apply *)
  retry_limit : int;  (** manager-level apply attempts per update *)
  backoff_base : int;  (** steps before retry 2 (doubles per retry) *)
  backoff_cap : int;  (** backoff ceiling, pre-jitter *)
  jitter : int;  (** deterministic jitter bound added to each backoff *)
  seed : int;  (** jitter seed; same seed => same schedule *)
  audit_rollback : bool;
      (** snapshot before each attempt, diff after aborts/auto-reverts *)
  run_budget : int option;
      (** optional cap on the manager clock; entries still waiting when
          it runs out are parked as [Budget_exhausted], never wedged *)
}

val default_policy : policy

type park_reason =
  | Exhausted_retries of Ksplice.Apply.not_quiescent
      (** all [retry_limit] attempts failed to quiesce; the last
          attempt's blocker diagnostics *)
  | Rejected of string  (** a non-retryable apply error, rendered *)
  | Budget_exhausted  (** the manager's [run_budget] ran out first *)

type status =
  | Waiting  (** queued: not yet attempted, or awaiting a retry slot *)
  | Applied_healthy  (** applied, verified, all probes passed *)
  | Parked of park_reason  (** gave up; kernel byte-identical *)
  | Quarantined of {
      evidence : (string * string) list;  (** (probe, failure) pairs *)
      reverted : bool;
          (** auto-revert succeeded; [false] means the undo itself
              failed and the update is still live — the evidence then
              includes the undo error *)
    }

val status_name : status -> string
(** ["waiting"], ["applied-healthy"], ["parked"], ["quarantined"]. *)

val pp_status : Format.formatter -> status -> unit

module Event : sig
  type kind =
    | Submitted
    | Applied  (** the transaction committed; health gate pending *)
    | Apply_failed  (** an attempt aborted (detail: the error) *)
    | Retried  (** re-queued with a backoff delay ([steps]) *)
    | Parked
    | Health_failed  (** one probe's evidence per event *)
    | Reverted  (** auto-revert (undo) succeeded *)
    | Quarantined
    | Healthy  (** terminal: applied and all probes passed *)
    | Violation
        (** a rollback or auto-revert left the machine diverged from
            its audit snapshot — the §5.2 contract broke *)

  val kind_name : kind -> string

  type t = {
    seq : int;  (** dense, 0-based emission order *)
    at : int;  (** manager clock (steps driven) at emission *)
    retired : int;  (** machine instruction odometer at emission *)
    update : string;  (** update id *)
    kind : kind;
    attempt : int;  (** attempts made so far; 0 when not attempt-bound *)
    steps : int;  (** steps consumed/scheduled by this action *)
    detail : string;
  }

  val pp : Format.formatter -> t -> unit
end

type t

val create : ?policy:policy -> Ksplice.Apply.t -> t
val policy : t -> policy
val apply_state : t -> Ksplice.Apply.t

(** [submit ?health ?inject t update] queues [update] for supervised
    apply. [health] probes run in the post-apply health gate (after the
    built-in {!Ksplice.Apply.verify}). [inject ~attempt] (1-based) may
    return a {!Ksplice.Faultinj.session} to thread through that apply
    attempt — the sweep's lever for supervised fault injection.
    Duplicate ids are rejected with [Invalid_argument]. *)
val submit :
  ?health:health_check list ->
  ?inject:(attempt:int -> Ksplice.Faultinj.session option) ->
  t ->
  Ksplice.Update.t ->
  unit

(** [submit_cumulative] queues a cumulative update for supervised
    {e atomic replace} ({!Ksplice.Apply.apply_cumulative}): the stacked
    updates it supersedes unwind and the replacement installs in one
    transaction. The health gate is identical to {!submit}'s; if it
    fails, auto-revert undoes the cumulative update, which restores the
    displaced stack from its journal — nothing is re-applied. Rejects
    non-cumulative updates with [Invalid_argument]. *)
val submit_cumulative :
  ?health:health_check list ->
  ?inject:(attempt:int -> Ksplice.Faultinj.session option) ->
  t ->
  Ksplice.Update.t ->
  unit

(** Drive the queue until every entry is terminal (applied-healthy,
    parked, or quarantined). Termination is structural: attempts are
    capped by [retry_limit] and each backoff is bounded, so [run] never
    wedges even when nothing ever quiesces. Idempotent: entries already
    terminal are untouched; newly submitted entries are processed. *)
val run : t -> unit

(** The manager clock: total scheduler steps this manager has driven
    (backoff waits between retries). Monotone and deterministic. *)
val now : t -> int

val status : t -> string -> status option
val statuses : t -> (string * status) list
(** In submission order. *)

val attempts : t -> string -> int
(** Apply attempts made for this update id so far (0 if unknown). *)

val events : t -> Event.t list
(** In emission order. *)

val violations : t -> int
(** Rollback-audit failures observed (0 when the §5.2 contract held,
    or when [audit_rollback] is off). *)

(** One event as JSON, rendered through {!Trace.record_json} — the
    manager has a single serializer shared with the trace layer, so the
    event log and a trace export cannot drift apart. *)
val event_json : Event.t -> Report.Json.t

(** The event log and terminal statuses as a JSON document
    ([ksplice-manager/1] schema), kept in the [detail] of each
    [ksplice-tool sweep manager --out] report row. *)
val report : t -> Report.Json.t
