(** Minimal JSON tree, writer, and parser — enough for the sweep
    reports, trace and metrics exports without an external
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Pretty-printed (2-space indent) pure-ASCII JSON text with a
    trailing newline. Numbers that are integral print without a
    fraction part; non-finite floats ([nan], [infinity]) print as
    [null] — they have no JSON spelling, and a silently invalid
    document is worse than a lossy one. Strings are escaped so the
    output is valid JSON for {e any} byte content: valid UTF-8
    becomes [\uXXXX] escapes, and bytes that are not part of a valid
    UTF-8 sequence are escaped as lone low surrogates [\udcXX]
    (Python's "surrogateescape" convention), which {!parse} folds
    back to the raw byte. Hence [parse (to_string v) = v] for every
    value whose floats are finite. *)
val to_string : t -> string

(** Parse a complete JSON document; [Error msg] names the offending
    offset (never raises, on any input — truncated escapes included).
    Accepts exactly what {!to_string} emits plus ordinary whitespace,
    escapes ([\uXXXX] requires exactly 4 hex digits), and
    scientific-notation numbers. *)
val parse : string -> (t, string) result

(** Write {!to_string} output to [path]. [Error msg] on any I/O
    failure (never raises). *)
val to_file : string -> t -> (unit, string) result

(** Read and parse [path]. [Error msg] on a missing/unreadable file or
    malformed JSON (never raises) — the message names the path, so CLI
    callers can print it verbatim and exit nonzero. *)
val of_file : string -> (t, string) result

(** {2 Accessors} — all total; [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
