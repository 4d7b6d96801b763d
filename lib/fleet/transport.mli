(** Injectable byte transports, in the style of {!Vfs}: the server and
    subscriber speak {!Wire} frames over this record, so the same
    protocol code runs over a real Unix-domain socket and over a
    deterministic in-process simulation whose fault plans tear, corrupt,
    drop, stall, or duplicate exactly the [at]-th frame on the wire.

    Transports raise; the frame layer ({!recv_frame}/{!send_frame})
    catches into typed results, which is what the subscriber's retry
    loop consumes. *)

(** The connection is gone (peer closed, or a simulated disconnect). *)
exception Closed

(** The peer stopped making progress and the receive budget ran out —
    the wire analogue of the manager's instruction-budget deadline. *)
exception Stalled of string

type t = {
  send : string -> unit;  (** one frame's bytes; raises {!Closed} *)
  recv : unit -> string;
      (** next delivered chunk (not necessarily a whole frame); raises
          {!Closed} or {!Stalled} *)
  close : unit -> unit;
}

(** {2 Fault plans} *)

type fault_kind =
  | Disconnect  (** the frame is dropped and the connection dies *)
  | Torn  (** a seed-chosen prefix of the frame arrives, then the
              connection dies — the wire analogue of a torn write *)
  | Corrupt  (** one seed-chosen bit of the frame flips; delivery
                 continues (the frame checksum must catch it) *)
  | Stall  (** the frame never arrives and the peer hangs; the receiver
               hits its budget and {!Stalled} fires *)
  | Duplicate  (** the frame is delivered twice *)

val fault_kind_to_string : fault_kind -> string
val all_fault_kinds : fault_kind list

(** Fire [kind] on the [at]-th frame crossing the wire (1-based,
    counting both directions — so [at] indexes protocol steps). [seed]
    picks the torn prefix length and the flipped bit. *)
type plan = { at : int; kind : fault_kind; seed : int }

(** {2 Deterministic in-process simulation} *)

type sim_stats = {
  mutable frames : int;  (** frames that crossed the wire *)
  mutable wire_bytes : int;
  mutable fired : bool;  (** did the plan trigger? *)
}

(** [sim ?plan ~serve ()] is a client-side transport whose peer is the
    function [serve]: each frame the client sends is pumped through
    [serve] (which may buffer partial input) and the response frames are
    queued for [recv]. No threads, no clocks — a given [plan] and seed
    replay bit-identically. *)
val sim : ?plan:plan -> serve:(string -> string list) -> unit -> t * sim_stats

(** {2 Real sockets} *)

(** [of_fd fd] wraps a connected stream socket. [recv] waits up to
    [recv_timeout] seconds (default 30) and raises {!Stalled} on expiry
    — a stalled peer cannot wedge a subscriber. *)
val of_fd : ?recv_timeout:float -> Unix.file_descr -> t

(** Connect to a Unix-domain socket path. Raises [Unix.Unix_error]. *)
val connect_unix : ?recv_timeout:float -> string -> t

(** A connected socketpair, both ends wrapped — a real-kernel-buffer
    loopback for tests. *)
val pair : ?recv_timeout:float -> unit -> t * t

(** {2 Frame layer} *)

type recv_error =
  | Decode of Codec.error
  | Disconnected
  | Stalled_out of string

val pp_recv_error : Format.formatter -> recv_error -> unit

(** Buffers stream chunks and yields whole frames. *)
type reader

val reader : t -> reader

(** Next frame, pulling chunks as needed. A decode failure is returned,
    not raised — a corrupt frame is data, and the caller decides to
    abort the session and retry. *)
val recv_frame : reader -> (Wire.frame, recv_error) result

val send_frame : t -> Wire.frame -> (unit, recv_error) result
