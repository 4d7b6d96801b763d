(** The fleet wire protocol's frame codec.

    A frame is [magic(4) · payload_len(u32le) · payload · md5(16)]: the
    checksum is over the payload, so a torn or bit-flipped frame is
    rejected before any field is believed. The decoder is {e total}: any
    byte string yields a frame, [`Incomplete] (a prefix of a valid
    frame — wait for more bytes), or a typed [`Fail] — never an
    exception. That totality is what lets the transport's fault plans
    (torn frames, corrupted payloads) surface as clean typed errors the
    subscriber can retry through.

    The conversation is: [Hello]/[Hello_ack] (version gate), [Head]
    (subscriber announces its chain position), [Manifest] (server
    describes the pending chain as digests), [Want] (subscriber lists
    only the digests it is missing — CAS delta sync), a [Blob] stream,
    and [Done] carrying the server's chain head. [Err] aborts. *)

(** Protocol version spoken by this implementation. *)
val version : int

(** One chain hop, as digests plus sizes (sizes let a subscriber
    account bytes saved by delta sync without fetching anything). *)
type manifest_item = {
  mi_base : string;
  mi_next : string;
  mi_blob : string;
  mi_size : int;
  mi_objects : (string * int) list;
}

type frame =
  | Hello of { version : int; peer : string }
  | Hello_ack of { version : int; peer : string }
  | Head of { digest : string }
  | Manifest of manifest_item list
  | Want of string list
  | Blob of { digest : string; bytes : string }
  | Done of { head : string }
  | Err of { code : string; msg : string }

(** Short human-readable form, for logs and sweep notes. *)
val pp_frame : Format.formatter -> frame -> unit

val encode : frame -> string

(** [decode buf ~pos] parses one frame starting at [pos]. [Ok (f, p)]
    is the frame and the position just past it. [`Fail] carries the
    offset in [buf] and one of: a bad magic, a length that is negative
    or beyond the frame size bound, a checksum mismatch, an unknown tag,
    or a malformed payload. Total: never raises. *)
val decode :
  string -> pos:int ->
  (frame * int, [ `Incomplete | `Fail of Codec.error ]) result
