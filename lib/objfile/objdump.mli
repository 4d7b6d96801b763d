(** Object-file disassembly and dumping (the reproduction's objdump).

    Used by `ksplice-tool objdump` and invaluable when diagnosing run-pre
    mismatches: it renders text sections instruction by instruction with
    relocation annotations, so the pre/run divergence the matcher reports
    can be inspected by eye. *)

(** One disassembled instruction. *)
type line = {
  offset : int;
  bytes : string;  (** raw encoding, hex *)
  text : string;  (** rendered mnemonic and operands *)
  reloc : Reloc.t option;  (** relocation landing in this instruction *)
  target : int option;  (** resolved target offset for local jumps *)
}

(** [disassemble section] decodes an entire text section.
    Undecodable bytes produce a [.byte 0x..] line and resynchronise at the
    next offset. *)
val disassemble : Section.t -> line list

(** [pp ppf obj] dumps a whole object file, symbols included. *)
val pp : Format.formatter -> Unitfile.t -> unit
