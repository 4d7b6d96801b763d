(** The corpus robustness sweeps, behind one engine.

    A sweep runs one procedure over a list of rows — usually corpus
    CVEs — on fresh machines, and every row either passes or carries
    notes saying which contract it broke. The seven sweeps ({!all}) are:

    - [fault]: the canonical fault at every apply-pipeline step, a
      byte-identical rollback each time, then a clean re-apply that
      verifies, survives stress and blocks the exploit (§5.2);
    - [manager]: every CVE through the supervised manager under an
      injected fault, an adversarial squatting thread and a failing
      health probe: it must reach a terminal state with clean audits;
    - [crash]: a publish killed at every mutating I/O op, then an
      fsck-clean, all-or-nothing recovery and a safe GC;
    - [transition]: apply and undo mid-stress through the per-thread
      model against a stop_machine twin: zero pause, identical
      footprints, a forced straggler converging through the fallback;
    - [fleet]: every transport fault at every wire frame of a chain
      sync: byte-identical convergence, clean mirrors, no redundant
      transfers, graceful degradation;
    - [cumulative]: collapsed chains at several depths (footprint
      parity, whole-collapse rollback at every step, undo re-stacks the
      chain) plus the §5.3 shadow-variable round trips;
    - [diffmin]: each update minimal and whole-unit, the minimal one
      complete and never dearer.

    Every sweep is deterministic in its seed: each row derives its own
    seed from the sweep seed and its position, so a row reruns alone
    with the same outcome. *)

(** One row's outcome. *)
type row = {
  key : string;  (** the row key: a CVE id, or a chain depth *)
  cells : string;  (** one character per cell; the sweep's doc explains them *)
  counters : (string * int) list;  (** named figures, in a fixed order *)
  notes : string list;  (** broken contracts; [[]] = the row passed *)
  detail : Report.Json.t;
      (** structured evidence: the manager event logs, the collapsed
          chain; [Null] when the sweep keeps none *)
}

(** Counters summed over all rows, in first-appearance order, after a
    leading ["rows"] count. *)
type totals = (string * int) list

type error =
  | Unknown_sweep of string
  | Unknown_row of { sweep : string; key : string; expected : string }

val pp_error : Format.formatter -> error -> unit

type t = {
  name : string;
  doc : string;
  rows : seed:int -> string list -> ((unit -> row) list, error) result;
      (** parse row keys into row thunks; [[]] is the default sample *)
  check : totals -> string list;
      (** contracts on the whole report; [[]] = they hold *)
}

type report = {
  sweep : string;
  seed : int;
  rows : row list;  (** in key order *)
  totals : totals;
  failures : string list;  (** what [check] found *)
}

(** fault, manager, crash, transition, fleet, cumulative, diffmin. *)
val all : t list

val find : string -> (t, error) result

(** [run ?seed ?keys ?progress ?domains sweep] runs the rows named by
    [keys] (default: the sweep's sample) across up to [domains] domains
    (default {!Parallel.default_domains}; [1] is serial). [progress]
    receives one line per row as it finishes, in completion order; the
    report keeps key order and does not depend on [domains]. *)
val run :
  ?seed:int ->
  ?keys:string list ->
  ?progress:(string -> unit) ->
  ?domains:int ->
  t ->
  (report, error) result

(** Every row passed and [check] found nothing. *)
val ok : report -> bool

(** A report's total for one counter (0 when absent). *)
val total : report -> string -> int

(** The row lines, the totals, a [VIOLATION] line per note and failure,
    and a closing verdict. *)
val pp : Format.formatter -> report -> unit

(** The [ksplice-sweep/1] JSON document. *)
val to_json : report -> Report.Json.t

(** Inverse of {!to_json}. Total: any other document, however
    truncated or retyped, is an [Error] naming what is wrong. *)
val of_json : Report.Json.t -> (report, string) result
