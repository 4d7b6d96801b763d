(** The one byte codec every on-disk and on-wire format is written in:
    object files, update files, unit diffs, compile-cache units,
    repository entries, the store's ref journal and fleet frames.

    A format is a field sequence: the writer appends fields to a
    [Buffer.t], the reader takes them back off a string. The reader is
    {e total}: a short, negative, overlong or non-canonical field, or a
    trailing byte, is an {!error}, never an exception. {!R.run} is the
    only place its failure becomes a result, so a decoder is a plain
    sequence of reads. Every field has one spelling, so whatever a
    reader accepts re-encodes to the bytes it consumed. *)

(** Where a decode failed, and why. *)
type error = { off : int; reason : string }

(** ["<reason> at byte <off>"] *)
val error_to_string : error -> string

module W : sig
  val u8 : Buffer.t -> int -> unit

  (** little-endian *)
  val i32 : Buffer.t -> int32 -> unit

  (** a non-negative int, as {!i32} *)
  val int : Buffer.t -> int -> unit

  (** the length as {!int}, then the bytes *)
  val str : Buffer.t -> string -> unit

  (** the count as {!int}, then the elements *)
  val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

  (** a netstring: the length in decimal, [':'], then the bytes *)
  val ns : Buffer.t -> string -> unit

  (** the count as a netstring of its decimal, then the elements *)
  val ns_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
end

module R : sig
  type t

  (** Abandon the decode, at [off] (default: the current position). *)
  val fail : ?off:int -> t -> string -> 'a

  (** The next bytes are exactly this string, else ["bad magic"]. *)
  val magic : t -> string -> unit

  (** The next [n] bytes, verbatim. *)
  val take : t -> int -> string

  val u8 : t -> int
  val i32 : t -> int32

  (** A negative value is ["negative length"]. *)
  val int : t -> int

  val str : t -> string

  (** Every element takes at least a byte, so a count above the bytes
      left is rejected before any element is read. *)
  val list : t -> (t -> 'a) -> 'a list

  (** The length must be canonical decimal: digits only, no sign, no
      leading zero, at most nine digits. *)
  val ns : t -> string

  val ns_list : t -> (t -> 'a) -> 'a list

  (** [nested r decode s] decodes the field [s] just read with another
      format's decoder; its failure is reported at the offset in the
      outer input, with [prefix] before the reason. *)
  val nested :
    ?prefix:string -> t -> (string -> ('a, error) result) -> string -> 'a

  (** No byte is left, else ["trailing bytes"]. *)
  val finish : t -> unit

  (** [run ?pos read s] reads [s] from [pos] (default 0) and returns the
      value with the position the reader stopped at. It does not
      {!finish}: a stream decoder reads one record at a time. *)
  val run : ?pos:int -> (t -> 'a) -> string -> ('a * int, error) result
end

(** A whole format: its writer and its reader. *)
type 'a t = { write : Buffer.t -> 'a -> unit; read : R.t -> 'a }

val encode : 'a t -> 'a -> string

(** Reads all of the input: a trailing byte is an error. *)
val decode : 'a t -> string -> ('a, error) result
