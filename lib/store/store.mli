(** Content-addressed artifact store: the one digest-keyed substrate
    under kbuild's compile cache, incremental update creation, update
    serialisation, and the distribution repository.

    The whole Ksplice pipeline is digest-shaped — deterministic builds
    (§4.3), pre-post differencing over object code (§3), linear update
    chains keyed by source digests (§8) — so artifacts are identified by
    the digest of their bytes and interned exactly once:

    - {b blobs}: immutable byte strings keyed by their own digest.
      [put] interns (a repeat is a {e dedup hit}, counted, with the
      duplicate bytes counted as saved); [get]/[load] retrieve.
    - {b refs}: mutable names pointing at blob digests (a compile-cache
      key, a repository chain head) — the only mutable state.
    - {b typed codecs}: {!Typed} wraps a blob in a versioned {!Codec.t}
      and memoises the decoded value on the in-memory entry, so a cache
      hit costs no re-decode.

    {b Tiers.} The in-memory tier is mutex-guarded and LRU-bounded with
    eviction statistics, exactly the discipline of the old kbuild
    compile cache. An optional on-disk tier ([?dir]) makes blobs and
    refs durable, and every disk read re-digests the bytes — a truncated
    or bit-flipped blob is reported as [`Corrupt], never returned. With
    a disk tier, memory eviction never loses data (the next [get]
    re-reads and re-verifies from disk); without one, the store is a
    bounded cache and callers must treat a miss as "recompute".

    {b Crash safety.} All disk I/O goes through an injectable {!Vfs.t},
    so the fault sweeps can kill a simulated process at any I/O
    operation. Every file lands via write-temp, fsync, rename, fsync-dir
    (a failure unlinks the temp); multi-ref transactions
    ({!commit_refs}) first append-and-fsync a checksummed record to a
    write-ahead journal, so {e recovery-on-open} can roll a committed
    transaction forward or a torn one back — refs never point at missing
    blobs. {!fsck} re-checks every invariant read-only; {!gc}
    mark-and-sweeps unreachable blobs from the ref roots, with in-flight
    transactions ({!with_txn}) pinned so a publish racing the sweep is
    never collected.

    {b Determinism.} Contents are a pure function of the [put]/[set_ref]
    history: no wall clocks, no randomness, no process identifiers leak
    into blobs or refs. Two identical runs produce byte-identical store
    contents — {!fingerprint} digests the canonical (sorted) contents so
    tests can assert it.

    Counters are mirrored as {!Trace} counters
    ([store.<name>.hits/misses/evictions/dedup_hits] and
    [store.<name>.gc_collected/gc_reclaimed_bytes]) when tracing is
    enabled. *)

type t

(** Hex digest of a blob's bytes (content address). *)
type digest = string

val digest_of_string : string -> digest

(** [create ?name ?capacity ?dir ?vfs ?recover ()] makes a store.
    [name] labels the trace counters (default ["store"]); [capacity]
    bounds the in-memory tier (default 1024, clamped to at least 1);
    [dir] roots the persistent tier (created if missing, with [blobs/],
    [refs/] and a [journal] underneath). [vfs] (default {!Vfs.real})
    carries all disk I/O — inject a fault plan to simulate crashes.
    Unless [recover] is [false] (read-only inspection, e.g. fsck),
    opening a disk store replays the journal and sweeps orphan temp
    files; the result is available from {!recovery}.

    Two handles opened on the same directory (identified by device and
    inode, so a deleted-and-recreated path never aliases) share one
    in-process handle — one memory tier, one mutex, one journal state —
    so a distribution daemon's many concurrent readers and a publisher
    see each other's writes without disk round-trips. Sharing applies
    only to plain handles ([vfs] = {!Vfs.real} and [recover] true); pass
    [share:false] to force a private handle, e.g. to simulate a separate
    process rebooting into the directory cold. A shared hit keeps the
    first creator's [name] and [capacity].

    Raises {!Vfs.Io_error} when the disk tier cannot be initialised
    (e.g. [dir] exists but is not a directory, or mkdir fails). *)
val create :
  ?name:string ->
  ?capacity:int ->
  ?dir:string ->
  ?vfs:Vfs.t ->
  ?recover:bool ->
  ?share:bool ->
  unit ->
  t

val name : t -> string

(** The process-wide artifact store shared by update creation and the
    corpus sweeps (memory-only, capacity 8192). *)
val default : unit -> t

(** {2 Blobs} *)

(** [put t blob] interns [blob] and returns its digest. Re-interning
    counts a dedup hit and the duplicate bytes as saved. With a disk
    tier the blob is also written durably (once). *)
val put : t -> string -> digest

(** [load t d] retrieves the blob named by [d]: from memory, else from
    disk with the bytes re-digested — a mismatch is [`Corrupt] (counted),
    never silently returned. Counts one hit or miss. *)
val load : t -> digest -> (string, [ `Missing | `Corrupt of string ]) result

(** [get t d] is {!load} with [`Corrupt] collapsed into [None]. *)
val get : t -> digest -> string option

val mem : t -> digest -> bool

(** {2 Refs} *)

(** [set_ref t name d] points [name] at blob [d] (persisted atomically
    when the store has a disk tier; a single-ref flip needs no journal
    record). *)
val set_ref : t -> string -> digest -> unit

val find_ref : t -> string -> digest option

(** All refs, sorted by name. *)
val refs : t -> (string * digest) list

(** {2 Transactions} *)

(** [commit_refs t updates] flips every [(name, digest)] in [updates]
    atomically with respect to crashes: an append-then-fsync journal
    record is the commit point, after which recovery rolls the whole set
    forward; a crash before it rolls the whole set back. Call with the
    target blobs already {!put} (recovery only rolls forward when every
    new blob verifies on disk). *)
val commit_refs : t -> (string * digest) list -> unit

(** [with_txn t f] runs [f] with every blob it [put]s pinned as a GC
    root until the outermost transaction exits — by which point the
    publish has either committed its refs (reachable) or failed
    (collectable). Nestable; exceptions unpin. *)
val with_txn : t -> (unit -> 'a) -> 'a

(** Test/tooling hook: append a journal record as {!commit_refs} would,
    {e without} applying the ref writes — the on-disk state of a writer
    that died right after its commit point. [None] old values mean the
    ref did not exist. *)
val append_journal : t -> (string * digest option * digest) list -> unit

(** One journal record, [J1]: ["J1 "], a {!Codec} netstring holding the
    payload — the counted [(ref, old digest, new digest)] netstring
    triples, [""] for a ref that did not exist — then the payload's MD5
    in hex and a newline. Recovery reads records until the first that
    does not decode: that one is a torn tail. *)
val journal_codec : (string * digest * digest) list Codec.t

(** {2 Recovery, fsck, GC} *)

type recovery_report = {
  rolled_forward : int;  (** journal records whose commit completed *)
  rolled_back : int;  (** journal records undone to their old values *)
  torn_discarded : int;  (** half-written journal tails dropped *)
  tmp_removed : int;  (** orphan [.tmp] files swept *)
}

(** What recovery-on-open did, if this store has a disk tier and was
    opened with [~recover:true]. *)
val recovery : t -> recovery_report option

type fsck_issue =
  | Orphan_tmp of string
  | Corrupt_blob of { digest : digest; reason : string }
  | Dangling_ref of { name : string; digest : digest }
  | Unreadable_ref of { path : string; reason : string }
  | Pending_journal of int

val pp_fsck_issue : Format.formatter -> fsck_issue -> unit

type fsck_report = {
  f_blobs : int;  (** blobs checked *)
  f_refs : int;  (** refs checked *)
  f_issues : fsck_issue list;
}

(** Read-only integrity check: every blob re-digests clean, every ref
    parses and resolves to a present blob, no orphan temp files, no
    unreplayed journal. [Ok] when no issues were found. Never modifies
    the store. *)
val fsck : t -> (fsck_report, fsck_report) result

type gc_report = {
  gc_live : int;  (** blobs reachable from the roots *)
  gc_swept : int;  (** unreachable blobs deleted *)
  gc_bytes : int;  (** bytes reclaimed by this run *)
  gc_pinned : int;  (** in-flight transaction pins treated as roots *)
}

(** [gc ?expand t] mark-and-sweeps unreachable blobs. Roots are every
    ref (memory and disk) plus the pins of in-flight {!with_txn}
    transactions; [expand digest bytes] returns the digests a live blob
    references, closing the reachability relation over encodings the
    store cannot parse itself (default: none). Deleting only unreachable
    blobs is crash-safe without journalling — a crash mid-sweep merely
    leaves some garbage for the next run. Returns [Error] without
    collecting anything if a blob on a live path is missing or corrupt
    (the live set cannot be trusted; run {!fsck}). *)
val gc : ?expand:(digest -> string -> digest list) -> t -> (gc_report, string) result

(** {2 Cache-style combined operations} *)

(** [lookup t key] resolves ref [key] and loads its blob, counting one
    hit (both succeed) or one miss. *)
val lookup : t -> string -> string option

(** [remember t ~key blob] interns [blob] and points ref [key] at it. *)
val remember : t -> key:string -> string -> digest

(** {2 Capacity and lifecycle} *)

(** Bounds the in-memory tier to [max 1 n] entries, evicting
    least-recently-used entries immediately if over. In a memory-only
    store, refs left dangling by an eviction are dropped with it. *)
val set_capacity : t -> int -> unit

val capacity : t -> int

(** Drops every in-memory blob, ref and transaction pin. Counters are
    kept (cumulative process-level statistics); the disk tier is
    untouched. *)
val reset : t -> unit

(** {2 Statistics} *)

type stats = {
  hits : int;  (** lookups served (memory or verified disk) *)
  misses : int;  (** lookups that found nothing *)
  evictions : int;  (** memory entries dropped by the LRU bound *)
  entries : int;  (** memory entries resident now *)
  capacity : int;  (** memory-tier bound *)
  puts : int;  (** blob interns requested *)
  dedup_hits : int;  (** interns that found the blob already present *)
  bytes_put : int;  (** bytes of distinct blobs accepted *)
  bytes_deduped : int;  (** duplicate bytes never stored again *)
  disk_reads : int;
  disk_writes : int;
  corrupt : int;  (** disk blobs rejected by the re-digest check *)
  gc_runs : int;  (** garbage collections attempted *)
  gc_collected : int;  (** unreachable blobs deleted, cumulative *)
  gc_reclaimed_bytes : int;  (** bytes reclaimed, cumulative *)
}

val stats : t -> stats

(** Digest of the canonical store contents: the sorted set of blob
    digests (memory and disk) plus the sorted refs. Two runs that
    performed the same puts and ref writes — in any order — fingerprint
    identically. *)
val fingerprint : t -> digest

(** {2 Typed codecs} *)

module type VALUE = sig
  type v

  (** Versioned codec label, e.g. ["kbuild-unit/1"]. *)
  val codec_id : string

  val codec : v Codec.t
end

(** Blob access through a codec, with the decoded value memoised on the
    in-memory entry (a second [get]/[lookup] of the same resident blob
    re-decodes nothing). Apply the functor once per value type. *)
module Typed (V : VALUE) : sig
  val put : t -> V.v -> digest

  val get :
    t -> digest ->
    (V.v, [ `Missing | `Corrupt of string | `Decode of string ]) result

  (** [lookup t key] is ref-resolve + typed load, counting one hit or
      miss; a decode failure yields [None]. *)
  val lookup : t -> string -> V.v option

  val remember : t -> key:string -> V.v -> digest
end
