(** Pre-post differencing (§3): compare the object code of the kernel
    built before and after the patch, per compilation unit, to find what
    actually changed — including functions changed only indirectly (a
    callee was re-inlined, a prototype ripple changed the caller's
    code). This is the engine behind {!Create}; it does what kpatch's
    [create-diff-object] does, in four passes over a unit's pre/post
    objects.

    {ol
    {- {b Symbol correlation} — stable names correlate by name; MiniC
       temp-named read-only slices ([.Lstr<n>] in [.rodata.str])
       correlate by {e content}, cancelling the renumbering noise an
       unrelated edit introduces (the analogue of kpatch's line-number
       and local-suffix filtering).}
    {- {b Function-granular change detection} — per-symbol instruction
       walks with alignment no-ops skipped on each side independently,
       jump displacements equated through a boundary map, and
       relocation holes compared modulo the rename map, so layout and
       padding drift produce zero diffs.}
    {- {b Dependency closure} — replaced and new code seeds the shipping
       set; relocations from anything included pull in, transitively,
       the definitions the running kernel cannot resolve (new and
       changed read-only slices, new data), each recorded with a
       per-symbol inclusion {!reason}.}
    {- {b Changed-data detection} — per-symbol data comparison:
       read-only initializer changes are shippable, data/bss initial
       image changes are the §2 persistent-semantics signal the caller
       must gate on.}} *)

(** Why a symbol ships in the update's primary object. *)
type reason =
  | Changed  (** its own code genuinely changed *)
  | New  (** no pre counterpart *)
  | Closure_of of string
      (** required by the named included symbol's relocations *)
  | Data_referent of string
      (** code unchanged, but it references the named changed read-only
          datum and must be replaced to pick up the new reference *)

val reason_to_string : reason -> string

type unit_diff = {
  unit_name : string;
  changed_functions : string list;
      (** functions to replace: genuinely changed code plus unchanged
          code whose data references moved (see [inclusion]) *)
  new_functions : string list;  (** present only post *)
  removed_functions : string list;  (** present only pre *)
  changed_data : string list;
      (** persistent data/bss whose initial image changed: the §2
          "semantic change" signal, never shipped *)
  changed_rodata : string list;
      (** read-only slices with changed or new content (post names):
          shippable copies *)
  new_data : string list;  (** data/bss present only post *)
  renames : (string * string) list;
      (** non-identity post → pre temp-symbol correlations *)
  inclusion : (string * reason) list;
      (** every symbol the minimal primary ships, with why *)
}

val pp_unit_diff : Format.formatter -> unit_diff -> unit

(** [is_empty d] holds when the patch had no object-code effect on the
    unit — including when the rebuild only renumbered temporaries or
    moved padding. *)
val is_empty : unit_diff -> bool

(** The all-empty diff for [unit_name]. *)
val empty : string -> unit_diff

(** The [unit-diff/2] format ([UDF2]), in which {!Create} caches unit
    diffs in the artifact store: the magic, then {!Codec} netstrings.
    Decoding is total — truncations, bit flips and blobs of the retired
    [unit-diff/1] format yield an error, never an exception. *)
val codec : unit_diff Codec.t

(** [fname_of_section s] extracts the function name from a [.text.<f>]
    section. *)
val fname_of_section : Objfile.Section.t -> string option

(** [dataname_of_section s] extracts the datum name from a [.data.<n>]
    or [.bss.<n>] section. *)
val dataname_of_section : Objfile.Section.t -> string option

(** [is_temp name] holds for compiler-generated local symbol names
    ([.L*]), whose numbering carries no identity across builds. *)
val is_temp : string -> bool

(** A defined symbol's byte range within its section. *)
type slice = {
  sl_sym : Objfile.Symbol.t;
  sl_section : Objfile.Section.t;
  sl_off : int;
  sl_size : int;
}

val slice_of : Objfile.t -> Objfile.Symbol.t -> slice option
val slice_bytes : slice -> Bytes.t

(** Relocations inside the slice, rebased to slice-relative offsets. *)
val slice_relocs : slice -> Objfile.Reloc.t list

(** [diff_unit ~pre ~post] runs all four passes over one unit (both
    objects built with function sections). *)
val diff_unit : pre:Objfile.t -> post:Objfile.t -> unit_diff
