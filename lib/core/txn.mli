(** Undo journal for the apply pipeline (§5.2's "a failed ksplice-apply
    leaves the kernel unchanged", made mechanical).

    [Apply.apply] is decomposed into the named {!step}s below. A
    transaction opened with {!begin_} observes every machine-memory
    mutation (via [Machine.set_write_observer]) and snapshots the
    machine's volatile state (threads, kallsyms, allocator cursors, …).
    On failure, {!rollback} replays the journal in reverse and restores
    the volatile snapshot: the kernel is byte-identical to the pre-apply
    image — verifiable with [Machine.diff_snapshot].

    On success, {!commit} detaches the observer and returns the retained
    journal: the subset of entries written by the apply {e machinery}
    (module bytes, trampolines) as opposed to hook execution or
    scheduler progress. [ksplice-undo] later {!replay}s that journal to
    restore the image byte-identically, leaving reverse hooks to unwind
    semantic state. *)

(** The journaled apply steps, in pipeline order. *)
type step =
  | Allocate  (** reserve module memory *)
  | Link  (** run-pre matching, symbol resolution, relocation math *)
  | Relocate  (** write + verify module bytes, publish symbols *)
  | Hook_pre  (** ksplice_pre_apply hooks *)
  | Capture  (** first stop_machine rendezvous *)
  | Transition
      (** per-thread transition: dispatch stubs live, threads migrating
          at safe points (only entered by a per-thread engagement) *)
  | Quiesce  (** §5.2 stack/IP check with backoff retries *)
  | Trampoline  (** jump insertion + ksplice_apply hooks *)
  | Commit  (** ksplice_post_apply hooks, record the update *)

(** All steps in pipeline order. *)
val all_steps : step list

val step_name : step -> string

(** Who performed a journaled write. [Mech] — the apply machinery itself;
    [Hook] — update-supplied code run via [call_function]; [Sched] — real
    kernel execution during quiescence-retry scheduling. Only [Mech]
    entries survive {!commit} (hook effects are unwound by reverse hooks,
    scheduler progress is genuine time). A {!rollback} replays all
    three. *)
type tag = Mech | Hook | Sched

(** A committed journal, retained in the applied-update record. *)
type journal

(** Number of retained write entries. *)
val journal_entries : journal -> int

(** The retained writes as [(addr, old_bytes)] in replay order (most
    recent first — later pairs overwrite earlier ones at shared
    addresses, exactly as {!replay} applies them). Lets a supervisor
    audit an undo: after replay, every journaled address must hold its
    pre-apply byte. *)
val journal_writes : journal -> (int * Bytes.t) list

(** Replay a committed journal (most recent write first), restoring the
    old bytes of every machinery write. Run under [stop_machine] with
    the quiescence check passed. *)
val replay : journal -> Kernel.Machine.t -> unit

(** An open transaction. *)
type t

(** Open a transaction: snapshot volatile state, arm the write
    observer. At most one transaction may be open per machine. *)
val begin_ : Kernel.Machine.t -> t

(** Mark the current pipeline step (recorded on subsequent entries and
    reported by {!current}). *)
val enter : t -> step -> unit

val current : t -> step option

(** Run [f] with writes tagged [tag] (restores the previous tag). *)
val with_tag : t -> tag -> (unit -> 'a) -> 'a

(** Abort: detach the observer, clear any armed fault injectors, replay
    every journal entry in reverse, restore the volatile snapshot. The
    machine is byte-identical to its state at {!begin_}. *)
val rollback : t -> unit

(** Succeed: detach the observer and return the retained ([Mech])
    journal for a later [ksplice-undo]. *)
val commit : t -> journal

(** Discard a transaction without undoing anything (used by undo, whose
    success needs no retained journal). Detaches the observer. *)
val discard : t -> unit
