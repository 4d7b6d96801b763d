(** The kernel virtual machine: memory, threads, interpreter, syscall
    dispatch, and the facilities Ksplice depends on at apply time —
    kallsyms, module memory, [stop_machine], and thread/stack
    introspection for the quiescence check (§5.2).

    The machine interprets the same bytes Ksplice's trampolines patch, so
    an incorrectly constructed update genuinely corrupts execution — the
    safety properties under test are real, not simulated.

    Fetches go through a fixed-size cache of decoded instructions, and
    every path that mutates memory keeps it coherent: host-side
    [write_u8]/[write_i32]/[write_bytes] (module loads, trampolines,
    transaction rollback), interpreted stores and stack pushes. The next
    fetch after any write sees the written bytes, exactly as if nothing
    were cached; the cache is in no snapshot. *)

type fault =
  | Illegal_instruction of int  (** pc *)
  | Memory_violation of int  (** offending address *)
  | Divide_by_zero of int  (** pc *)
  | Privilege_violation of int  (** pc: privileged escape from user code *)
  | No_syscall_entry
  | Step_limit

val pp_fault : Format.formatter -> fault -> unit

type thread_state =
  | Runnable
  | Sleeping of int  (** wake at tick *)
  | Exited of int32
  | Faulted of fault

type thread = {
  tid : int;
  name : string;
  regs : int32 array;  (** r0..r7 at 0..7, sp at 8 *)
  mutable pc : int;
  stack_lo : int;
  stack_hi : int;
  mutable state : thread_state;
  mutable uid : int;
  mutable flag_eq : bool;  (** comparison flags (per-CPU state) *)
  mutable flag_lt : bool;
  mutable patch_state : bool;
      (** livepatch-style per-task consistency state: [true] once the
          thread has migrated to the goal side of the active transition.
          Meaningful only while a transition is active. *)
}

(** Where a thread was standing when the machine offered it for
    migration: at the [INT 0x80] syscall gate, or at the end of a
    scheduler quantum in {!run}. *)
type safe_point = Sp_syscall | Sp_quantum

val safe_point_name : safe_point -> string

type t

(** [create ?mem_size image] boots the image into fresh memory
    ([mem_size] bytes, 32 MiB by default): copies text/data, seeds
    kallsyms, and registers the kernel text as privileged. If the image
    defines [syscall_entry], [INT 0x80] is wired to it.

    Memory is a table of 4 KiB pages. A page nobody has written reads as
    zeros without being allocated, so boot costs the pages the image,
    exit gadget and sentinel occupy, not [mem_size]; bss needs no
    zeroing. @raise Invalid_argument if the image does not fit below
    the top 64 KiB. *)
val create : ?mem_size:int -> Klink.Image.t -> t

val image : t -> Klink.Image.t
val tick : t -> int

(** Monotone instruction odometer. [tick] is kernel time and is rewound
    when a transaction rolls back its volatile snapshot; this counter
    only ever grows and is excluded from snapshots, so supervision code
    can meter real work (watchdog budgets, event timestamps) across
    rollbacks. *)
val instructions_retired : t -> int

val console : t -> string

(** kallsyms of the running kernel: boot image symbols plus symbols of
    any loaded modules. *)
val kallsyms : t -> Klink.Image.syminfo list

val add_kallsyms : t -> Klink.Image.syminfo list -> unit

(** [remove_kallsyms t pred] drops entries satisfying [pred] (used when a
    module is unloaded). *)
val remove_kallsyms : t -> (Klink.Image.syminfo -> bool) -> unit

(** [lookup_name t name] returns every kallsyms entry named [name], in
    {!kallsyms} order, via a [name -> entries] hash index maintained
    incrementally by {!add_kallsyms}/{!remove_kallsyms} — O(1) per
    lookup where filtering {!kallsyms} is O(symbols). Invariant (checked
    by the test suite): for every [name],
    [lookup_name t name = List.filter (fun s -> s.name = name) (kallsyms t)]. *)
val lookup_name : t -> string -> Klink.Image.syminfo list

(** Cumulative process-wide {!lookup_name} counters ([hits] are lookups
    that found at least one entry); feeds perfbench's kallsyms hit ratio. *)
type index_stats = {
  lookups : int;
  hits : int;
}

val kallsyms_index_stats : unit -> index_stats

(** [privileged_ranges t] are [start, end_) code ranges allowed to use
    privileged escapes: kernel text plus registered module text. *)
val privileged_ranges : t -> (int * int) list

val add_privileged_range : t -> int * int -> unit

(** Memory access (host side), little-endian. The first 4 KiB and
    everything from [mem_size] on are out of range.
    @raise Invalid_argument out of range; nothing is read, written or
    observed then. (An interpreted load, store or fetch out of range
    instead faults its thread with {!Memory_violation}.) *)
val read_u8 : t -> int -> int

val read_i32 : t -> int -> int32
val read_bytes : t -> int -> int -> Bytes.t
val write_u8 : t -> int -> int -> unit
val write_i32 : t -> int -> int32 -> unit
val write_bytes : t -> int -> Bytes.t -> unit

(** [alloc_module t ~size ~align] carves memory from the module area
    (zero-filled). Used for Ksplice modules, shadow data, and user
    programs. *)
val alloc_module : t -> size:int -> align:int -> int

(** [spawn t ~name ~uid ~entry ~args] creates a thread with a fresh
    stack; [args] are pushed as if by a caller, and a return into a
    clean-exit gadget is arranged, so [entry] can simply return. *)
val spawn : t -> name:string -> uid:int -> entry:int -> args:int32 list -> thread

val threads : t -> thread list
val find_thread : t -> int -> thread option

(** [run t ~steps] executes up to [steps] instructions across runnable
    threads, round-robin with a small quantum. Returns the number of
    instructions actually executed (0 when everything is blocked or
    exited and nothing is sleeping). *)
val run : t -> steps:int -> int

(** [call_function t ~uid ~addr ~args] synchronously executes the function
    at [addr] on a dedicated internal thread context (its own stack) until
    it returns; used for boot-time init, Ksplice hooks, and tests. *)
val call_function :
  ?step_limit:int ->
  ?uid:int ->
  t ->
  addr:int ->
  args:int32 list ->
  (int32, fault) result

(** [stop_machine t f] captures all CPUs (no thread is mid-instruction —
    the scheduler is paused) and runs [f]. Returns [f ()] and the
    simulated pause in nanoseconds (modelled on the paper's ~0.7 ms
    stop_machine cost, scaled by thread count). *)
val stop_machine : t -> (unit -> 'a) -> 'a * int

(** [backtrace t th] conservatively reconstructs [th]'s call chain: the
    current pc followed by every word on the live stack that points into
    a known function, resolved through kallsyms to ["name+0xoff"]. Used
    to diagnose §5.2 quiescence failures ("which thread still sits in the
    function I want to patch, and where was it called from?"). *)
val backtrace : t -> thread -> string list

(** Wire the [INT 0x80] syscall gate to the given entry address. *)
val set_syscall_entry : t -> int -> unit

val syscall_entry : t -> int option

(** {2 Per-thread transitions}

    The livepatch-style consistency model: instead of rewriting a
    patched function's entry under [stop_machine], a transition installs
    {e dispatch stubs} — interpreter-level redirects consulted before
    each instruction fetch. While a transition is active, a thread whose
    pc lands on a registered entry is routed to the target address iff
    its [patch_state] equals the transition's route state; everyone else
    falls through to the bytes actually at the entry. An apply
    transition routes {e migrated} threads to new code (old code is
    still at the entry); a reverse transition routes {e unmigrated}
    threads to the still-live new code. At most one transition is active
    at a time. *)

(** [begin_transition t ~update ~route_migrated dispatch] activates a
    transition for update [update] with [(entry, target)] dispatch
    stubs, and resets every thread's [patch_state] to unmigrated.
    [route_migrated] selects which side is redirected: [true] routes
    migrated threads to the target (apply), [false] routes unmigrated
    threads (reverse/undo).
    @raise Invalid_argument if a transition is already active. *)
val begin_transition :
  t -> update:string -> route_migrated:bool -> (int * int) list -> unit

(** Deactivate the transition and reset every [patch_state]; the caller
    is expected to have landed (or unwound) the permanent trampolines.
    @raise Invalid_argument if none is active. *)
val end_transition : t -> unit

(** Id of the active transition's update, if any. *)
val transition_update : t -> string option

(** The transition manager's migration callback, invoked with a thread
    each time it crosses a safe point ({!safe_point}) while a transition
    is active. The hook may read machine state and flip [patch_state];
    it runs between instructions, never mid-instruction. Not part of any
    snapshot — its owner manages its lifetime. *)
val set_safepoint_hook : t -> (thread -> safe_point -> unit) option -> unit

val migrate_thread : thread -> unit
val thread_migrated : thread -> bool

(** Raised by {!alloc_module} when the module area is exhausted, or when
    an armed allocation injector forces a failure. *)
exception Out_of_memory of string

(** {2 Observation and fault-injection hooks}

    These exist for the transactional apply path (journaling) and for
    systematic fault injection ([Ksplice.Faultinj]); the machine itself
    never arms them. *)

(** [set_write_observer t f] installs [f addr len], called before every
    mutation of machine memory — host-side writes, interpreter stores,
    and stack pushes alike — so a journal can capture the old bytes. *)
val set_write_observer : t -> (int -> int -> unit) option -> unit

(** Allocation injector: consulted by {!alloc_module}; returning [true]
    makes the allocation raise {!Out_of_memory}. *)
val set_alloc_injector : t -> (size:int -> align:int -> bool) option -> unit

(** Write injector: transforms the bytes of host-side {!write_bytes}
    calls (module loads, trampoline pokes) — the transform must preserve
    length. Interpreter stores are not affected. *)
val set_write_injector : t -> (int -> Bytes.t -> Bytes.t) option -> unit

(** Call injector: consulted by {!call_function} before execution;
    [Some fault] makes the call fail without running a single
    instruction. *)
val set_call_injector : t -> (int -> fault option) option -> unit

(** Drop all armed injectors (the observer is left alone). *)
val clear_injectors : t -> unit

val remove_privileged_range : t -> int * int -> unit

(** {2 Shadow variables (§5.3)}

    The per-object side table — (object address, key) -> shadow address
    — that patched kernel code reaches through the [__shadow_attach] /
    [__shadow_get] / [__shadow_detach] builtins (INT 8/9/10), exposed to
    host code so the patching machinery's shadow constructors and
    destructors see exactly what kernel code sees. Attachments are
    idempotent (re-attaching yields the existing shadow) and allocate
    zero-filled module memory; the bindings are volatile state, so a
    rolled-back transaction unwinds them. *)

val shadow_attach : t -> obj:int -> key:int -> size:int -> int
val shadow_get : t -> obj:int -> key:int -> int option
val shadow_detach : t -> obj:int -> key:int -> unit

(** Number of live shadow bindings. *)
val shadow_count : t -> int

(** Every live binding, sorted: (object, key), shadow address. *)
val shadow_bindings : t -> ((int * int) * int) list

(** [shadow_reattach m ~obj ~key ~addr] rebinds a key to an existing
    shadow allocation, replacing any current binding. Used when undoing
    a cumulative update: the displaced updates' side tables are revived
    exactly as the collapse found them. *)
val shadow_reattach : t -> obj:int -> key:int -> addr:int -> unit

(** {2 Transactional state capture}

    [save_volatile]/[restore_volatile] cover everything {e except} raw
    memory bytes — kallsyms, privileged ranges, thread registers/states,
    spawned threads, tick, console length, allocator cursors, shadow
    bindings — which a transaction journal restores separately. *)

type volatile_state

val save_volatile : t -> volatile_state
val restore_volatile : t -> volatile_state -> unit

(** {2 Byte-identity snapshots}

    A full copy of machine state for mechanical rollback verification:
    a faulted apply must leave the machine with an empty
    {!diff_snapshot}. *)

type snapshot

(** [snapshot t] copies every page that has ever been written; pages
    never written are shared with the machine as the zero page. Its cost
    is O(touched pages), and later writes to [t] do not change it. *)
val snapshot : t -> snapshot

(** [diff_snapshot t s] is a human-readable list of divergences between
    the machine now and snapshot [s]; [[]] means byte-identical memory,
    kallsyms, privileged ranges, thread state, tick, console, and shadow
    bindings. Memory is compared page by page, skipping pages both sides
    still share; equal bytes on different pages count as equal. At most
    four differing bytes are reported, in ascending address order and at
    most one per 16-byte line. *)
val diff_snapshot : t -> snapshot -> string list
