(** A small domain pool for data-parallel work (OCaml 5 [Domain]).

    The pool is a shared chunked task queue — no work stealing: a batch is
    split into index chunks, every chunk is enqueued once, and worker
    domains (plus the submitting thread itself) pull chunks until the
    batch drains. A thread waiting for its batch helps execute queued
    chunks — including chunks of {e other} batches — so nested
    [map]-inside-[map] cannot deadlock the fixed-size pool.

    Sequential fallback: when [Domain.recommended_domain_count () = 1]
    and the caller does not explicitly ask for parallelism (or asks for
    [domains <= 1]), no domain is ever spawned and [map] is exactly
    [List.map]. An explicit [~domains:n] with [n > 1] always takes the
    pool path, even on a single-core host — that is what lets the test
    suite exercise the concurrent machinery anywhere.

    Worker domains are spawned lazily on first use and joined at exit. *)

val default_domains : unit -> int
(** Domain budget used when [?domains] is omitted: the
    [KSPLICE_DOMAINS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val map : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains ?chunk f xs] is [List.map f xs] computed with up to
    [domains] (default {!default_domains}) threads of execution. Results
    keep list order. [chunk] is the number of consecutive items one queue
    pull claims (default: [length xs / (4 * domains)], at least 1).

    If [f] raises, the exception of the {e smallest} list index that
    failed is re-raised in the caller (with its backtrace), so error
    reporting is deterministic regardless of scheduling. Chunks already
    queued still run to completion first. *)

val iter : ?domains:int -> ?chunk:int -> ('a -> unit) -> 'a list -> unit
(** [iter ?domains ?chunk f xs] is [map] for side effects only. *)
