(** Ksplice update files.

    An update bundles the {e primary} object (replacement code: the post
    versions of every changed function, any new functions and data the
    patch introduced, copies of referenced read-only data, and the
    [.ksplice.*] hook sections) with one {e helper} object per patched
    compilation unit (the complete pre build of that unit, §5.1). The
    helper is what run-pre matching checks against the running kernel; it
    can be discarded once the update is applied.

    A {e cumulative} update additionally records the update ids it
    supersedes ([supersedes]) — applying it atomically replaces that
    whole applied stack (§5's atomic-replace sketch) — and its
    shadow-variable hooks: constructor functions run once the new code
    is live (attaching per-object side-table state for patches that
    extend a struct layout) and destructor functions run at unpatch.

    Symbol namespace: unit-local (static) symbols are canonicalised to
    [name@unit] throughout the update so that two units' identically-named
    statics never collide — the object-level answer to the ambiguous
    symbol problem of §4.1. *)

type t = {
  update_id : string;
  description : string;
  (* units the patch touched, in build order *)
  patched_units : string list;
  (* functions to be redirected with trampolines: (unit, function) with
     the function name in canonical form *)
  replaced_functions : (string * string) list;
  primary : Objfile.t;
  helpers : Objfile.t list;
  (* defining unit of every symbol the primary defines *)
  primary_sym_units : (string * string) list;
  (* update ids this cumulative update atomically replaces, oldest
     first; [] for an ordinary update *)
  supersedes : string list;
  (* canonical names of shadow-variable constructor functions, run (in
     order) once the replacement code is live *)
  shadow_ctors : string list;
  (* canonical names of shadow-variable destructor functions, run (in
     reverse order) when the update is removed *)
  shadow_dtors : string list;
}

(** Does this update atomically replace a stack ([supersedes <> []])? *)
val is_cumulative : t -> bool

(** [canonical ~binding ~unit name] is the update-namespace symbol name:
    [name@unit] for local symbols, [name] for globals. *)
val canonical :
  binding:Objfile.Symbol.binding -> unit_name:string -> string -> string

(** [split_canonical n] recovers [(original_name, unit option)]. *)
val split_canonical : string -> string * string option

(** {2 Serialisation}

    Three formats, one field sequence in {!Codec}'s binary framing:
    the magic, the id, the description, the patched units, the replaced
    functions, the primary object, the helper objects, the primary's
    symbol units, and — in [KSPL1] and [KSPL3] only — the superseded
    ids and the shadow constructors and destructors. Decoding is
    {e total}: arbitrary bytes, trailing garbage included, yield
    [Error], never an exception. *)

type decode_error = Codec.error

val decode_error_to_string : decode_error -> string

(** Self-contained serialisation (format [KSPL1]): every object payload
    is embedded. [of_bytes] refuses store-backed [KSPL2]/[KSPL3] files
    with an error naming {!of_bytes_store}. *)

val to_bytes : t -> Bytes.t
val of_bytes : Bytes.t -> (t, decode_error) result

(** Store-backed serialisation (formats [KSPL2] and [KSPL3]): the
    primary and helper objects are interned in the artifact store and the
    file carries only their digests, so stacked updates sharing a base
    kernel share one physical copy of each common helper. The writer
    emits [KSPL3] only when the update carries cumulative records
    ([supersedes] or shadow hooks), so ordinary updates stay
    byte-identical to their [KSPL2] encoding, and a [KSPL3] blob without
    them is rejected. [of_bytes_store] reads all three formats — a [KSPL1] file decodes without touching the store; a
    store-backed file resolves its digests through [store], failing
    cleanly if a referenced blob is missing or corrupt. *)

val to_bytes_store : Store.t -> t -> Bytes.t
val of_bytes_store : Store.t -> Bytes.t -> (t, decode_error) result

(** The store digests a serialised update references (primary first,
    then helpers), read from the blob alone — the objects are never
    fetched. A self-contained [KSPL1] file, or an undecodable one,
    references nothing. This is the GC's reachability edge from an
    update blob to the object blobs it shares with other updates. *)
val store_digests : Bytes.t -> string list

(** The update ids a serialised [KSPL3] blob supersedes, read from the
    bytes alone (no store): how a subscriber recognises a cumulative
    entry in what it actually received. Anything non-cumulative or
    undecodable supersedes nothing. *)
val supersedes_of_bytes : Bytes.t -> string list
