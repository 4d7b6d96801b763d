type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | SP

let reg_to_int = function
  | R0 -> 0 | R1 -> 1 | R2 -> 2 | R3 -> 3
  | R4 -> 4 | R5 -> 5 | R6 -> 6 | R7 -> 7
  | SP -> 8

let reg_of_int = function
  | 0 -> Some R0 | 1 -> Some R1 | 2 -> Some R2 | 3 -> Some R3
  | 4 -> Some R4 | 5 -> Some R5 | 6 -> Some R6 | 7 -> Some R7
  | 8 -> Some SP
  | _ -> None

let pp_reg ppf r =
  match r with
  | SP -> Format.fprintf ppf "sp"
  | r -> Format.fprintf ppf "r%d" (reg_to_int r)

type cond = Eq | Ne | Lt | Ge | Gt | Le

let cond_to_int = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Ge -> 3 | Gt -> 4 | Le -> 5

let cond_of_int = function
  | 0 -> Some Eq | 1 -> Some Ne | 2 -> Some Lt
  | 3 -> Some Ge | 4 -> Some Gt | 5 -> Some Le
  | _ -> None

let cond_name = function
  | Eq -> "e" | Ne -> "ne" | Lt -> "l" | Ge -> "ge" | Gt -> "g" | Le -> "le"

let pp_cond ppf c = Format.pp_print_string ppf (cond_name c)

type width = W8 | W16 | W32

let width_name = function W8 -> "b" | W16 -> "h" | W32 -> "w"

type insn =
  | Hlt
  | Nop of int
  | Mov_rr of reg * reg
  | Mov_ri of reg * int32
  | Load of width * reg * reg * int
  | Store of width * reg * int * reg
  | Load_abs of width * reg * int32
  | Store_abs of width * int32 * reg
  | Add of reg * reg
  | Sub of reg * reg
  | Mul of reg * reg
  | Div of reg * reg
  | Mod of reg * reg
  | And of reg * reg
  | Or of reg * reg
  | Xor of reg * reg
  | Shl of reg * reg
  | Shr of reg * reg
  | Sar of reg * reg
  | Addi of reg * int32
  | Cmp of reg * reg
  | Cmpi of reg * int32
  | Neg of reg
  | Not of reg
  | Setcc of cond * reg
  | Jmp of int32
  | Jmp_s of int
  | Jcc of cond * int32
  | Jcc_s of cond * int
  | Call of int32
  | Call_r of reg
  | Ret
  | Push of reg
  | Pop of reg
  | Sext8 of reg
  | Sext16 of reg
  | Zext8 of reg
  | Zext16 of reg
  | Int of int

let pp_insn ppf i =
  let f fmt = Format.fprintf ppf fmt in
  let alu name a b = f "%s %a, %a" name pp_reg a pp_reg b in
  match i with
  | Hlt -> f "hlt"
  | Nop n -> f "nop%d" n
  | Mov_rr (a, b) -> alu "mov" a b
  | Mov_ri (a, v) -> f "mov %a, %ld" pp_reg a v
  | Load (w, rd, rb, off) ->
    f "load%s %a, [%a%+d]" (width_name w) pp_reg rd pp_reg rb off
  | Store (w, rb, off, rs) ->
    f "store%s [%a%+d], %a" (width_name w) pp_reg rb off pp_reg rs
  | Load_abs (w, rd, a) -> f "load%s %a, [0x%lx]" (width_name w) pp_reg rd a
  | Store_abs (w, a, rs) -> f "store%s [0x%lx], %a" (width_name w) a pp_reg rs
  | Add (a, b) -> alu "add" a b
  | Sub (a, b) -> alu "sub" a b
  | Mul (a, b) -> alu "mul" a b
  | Div (a, b) -> alu "div" a b
  | Mod (a, b) -> alu "mod" a b
  | And (a, b) -> alu "and" a b
  | Or (a, b) -> alu "or" a b
  | Xor (a, b) -> alu "xor" a b
  | Shl (a, b) -> alu "shl" a b
  | Shr (a, b) -> alu "shr" a b
  | Sar (a, b) -> alu "sar" a b
  | Addi (a, v) -> f "addi %a, %ld" pp_reg a v
  | Cmp (a, b) -> alu "cmp" a b
  | Cmpi (a, v) -> f "cmpi %a, %ld" pp_reg a v
  | Neg r -> f "neg %a" pp_reg r
  | Not r -> f "not %a" pp_reg r
  | Setcc (c, r) -> f "set%s %a" (cond_name c) pp_reg r
  | Jmp d -> f "jmp %+ld" d
  | Jmp_s d -> f "jmps %+d" d
  | Jcc (c, d) -> f "j%s %+ld" (cond_name c) d
  | Jcc_s (c, d) -> f "j%ss %+d" (cond_name c) d
  | Call d -> f "call %+ld" d
  | Call_r r -> f "callr %a" pp_reg r
  | Ret -> f "ret"
  | Push r -> f "push %a" pp_reg r
  | Pop r -> f "pop %a" pp_reg r
  | Sext8 r -> f "sext8 %a" pp_reg r
  | Sext16 r -> f "sext16 %a" pp_reg r
  | Zext8 r -> f "zext8 %a" pp_reg r
  | Zext16 r -> f "zext16 %a" pp_reg r
  | Int n -> f "int 0x%x" n

let insn_to_string i = Format.asprintf "%a" pp_insn i

let length = function
  | Hlt | Ret -> 1
  | Nop n -> n
  | Mov_rr _ | Add _ | Sub _ | Mul _ | Div _ | Mod _ | And _ | Or _ | Xor _
  | Shl _ | Shr _ | Sar _ | Cmp _ | Setcc _ -> 3
  | Mov_ri _ | Addi _ | Cmpi _ | Load_abs _ | Store_abs _ -> 6
  | Load _ | Store _ -> 5
  | Neg _ | Not _ | Jmp_s _ | Jcc_s _ | Call_r _ | Push _ | Pop _
  | Sext8 _ | Sext16 _ | Zext8 _ | Zext16 _ | Int _ -> 2
  | Jmp _ | Jcc _ | Call _ -> 5

let max_length = 6

(* Opcode map; see isa.mli for the instruction set overview. *)
let op_hlt = 0x00
let op_nop1 = 0x01
let op_nop2 = 0x02
let op_nop3 = 0x03
let op_mov_rr = 0x10
let op_mov_ri = 0x11
let op_load_w32 = 0x12
let op_store_w32 = 0x13
let op_load_w8 = 0x14
let op_store_w8 = 0x15
let op_load_abs_w32 = 0x16
let op_store_abs_w32 = 0x17
let op_load_w16 = 0x18
let op_store_w16 = 0x19
let op_load_abs_w8 = 0x1A
let op_store_abs_w8 = 0x1B
let op_load_abs_w16 = 0x1C
let op_store_abs_w16 = 0x1D
let op_add = 0x20
let op_addi = 0x2B
let op_cmp = 0x2C
let op_cmpi = 0x2D
let op_neg = 0x2E
let op_not = 0x2F
let op_jmp = 0x30
let op_jmp_s = 0x31
let op_jcc = 0x32 (* .. 0x37 *)
let op_jcc_s = 0x38 (* .. 0x3D *)
let op_call = 0x40
let op_call_r = 0x41
let op_ret = 0x42
let op_push = 0x43
let op_pop = 0x44
let op_setcc = 0x46
let op_sext8 = 0x50
let op_sext16 = 0x51
let op_zext8 = 0x52
let op_zext16 = 0x53
let op_int = 0x60

let alu_index = function
  | Add _ -> 0 | Sub _ -> 1 | Mul _ -> 2 | Div _ -> 3 | Mod _ -> 4
  | And _ -> 5 | Or _ -> 6 | Xor _ -> 7 | Shl _ -> 8 | Shr _ -> 9
  | Sar _ -> 10
  | _ -> invalid_arg "alu_index"

let fits_i8 d = d >= -128 && d <= 127
let fits_i16 d = d >= -32768 && d <= 32767

let encode buf pos i =
  let b8 off v = Bytes.set_uint8 buf (pos + off) (v land 0xff) in
  let b16 off v =
    if not (fits_i16 v) then invalid_arg "Isa.encode: off16 overflow";
    Bytes.set_uint16_le buf (pos + off) (v land 0xffff)
  in
  let b32 off v = Bytes.set_int32_le buf (pos + off) v in
  let r off reg = b8 off (reg_to_int reg) in
  (match i with
   | Hlt -> b8 0 op_hlt
   | Nop 1 -> b8 0 op_nop1
   | Nop 2 -> b8 0 op_nop2; b8 1 0
   | Nop 3 -> b8 0 op_nop3; b8 1 0; b8 2 0
   | Nop _ -> invalid_arg "Isa.encode: nop width must be 1..3"
   | Mov_rr (a, b) -> b8 0 op_mov_rr; r 1 a; r 2 b
   | Mov_ri (a, v) -> b8 0 op_mov_ri; r 1 a; b32 2 v
   | Load (w, rd, rb, off) ->
     let op = match w with
       | W32 -> op_load_w32 | W8 -> op_load_w8 | W16 -> op_load_w16 in
     b8 0 op; r 1 rd; r 2 rb; b16 3 off
   | Store (w, rb, off, rs) ->
     let op = match w with
       | W32 -> op_store_w32 | W8 -> op_store_w8 | W16 -> op_store_w16 in
     b8 0 op; r 1 rb; b16 2 off; r 4 rs
   | Load_abs (w, rd, a) ->
     let op = match w with
       | W32 -> op_load_abs_w32 | W8 -> op_load_abs_w8
       | W16 -> op_load_abs_w16 in
     b8 0 op; r 1 rd; b32 2 a
   | Store_abs (w, a, rs) ->
     let op = match w with
       | W32 -> op_store_abs_w32 | W8 -> op_store_abs_w8
       | W16 -> op_store_abs_w16 in
     b8 0 op; b32 1 a; r 5 rs
   | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
   | And (a, b) | Or (a, b) | Xor (a, b) | Shl (a, b) | Shr (a, b)
   | Sar (a, b) ->
     b8 0 (op_add + alu_index i); r 1 a; r 2 b
   | Addi (a, v) -> b8 0 op_addi; r 1 a; b32 2 v
   | Cmp (a, b) -> b8 0 op_cmp; r 1 a; r 2 b
   | Cmpi (a, v) -> b8 0 op_cmpi; r 1 a; b32 2 v
   | Neg a -> b8 0 op_neg; r 1 a
   | Not a -> b8 0 op_not; r 1 a
   | Setcc (c, a) -> b8 0 op_setcc; b8 1 (cond_to_int c); r 2 a
   | Jmp d -> b8 0 op_jmp; b32 1 d
   | Jmp_s d ->
     if not (fits_i8 d) then invalid_arg "Isa.encode: short jump overflow";
     b8 0 op_jmp_s; b8 1 d
   | Jcc (c, d) -> b8 0 (op_jcc + cond_to_int c); b32 1 d
   | Jcc_s (c, d) ->
     if not (fits_i8 d) then invalid_arg "Isa.encode: short jump overflow";
     b8 0 (op_jcc_s + cond_to_int c); b8 1 d
   | Call d -> b8 0 op_call; b32 1 d
   | Call_r a -> b8 0 op_call_r; r 1 a
   | Ret -> b8 0 op_ret
   | Push a -> b8 0 op_push; r 1 a
   | Pop a -> b8 0 op_pop; r 1 a
   | Sext8 a -> b8 0 op_sext8; r 1 a
   | Sext16 a -> b8 0 op_sext16; r 1 a
   | Zext8 a -> b8 0 op_zext8; r 1 a
   | Zext16 a -> b8 0 op_zext16; r 1 a
   | Int n -> b8 0 op_int; b8 1 n);
  length i

let encode_to_bytes i =
  let b = Bytes.create (length i) in
  ignore (encode b 0 i : int);
  b

exception Decode_error of int

let decode get pos =
  let u8 off = get (pos + off) land 0xff in
  let i8 off = let v = u8 off in if v >= 0x80 then v - 0x100 else v in
  let i16 off =
    let v = u8 off lor (u8 (off + 1) lsl 8) in
    if v >= 0x8000 then v - 0x10000 else v
  in
  let i32 off =
    let a = u8 off and b = u8 (off + 1) and c = u8 (off + 2)
    and d = u8 (off + 3) in
    Int32.logor
      (Int32.of_int (a lor (b lsl 8) lor (c lsl 16)))
      (Int32.shift_left (Int32.of_int d) 24)
  in
  let reg off =
    match reg_of_int (u8 off) with
    | Some r -> r
    | None -> raise (Decode_error pos)
  in
  let op = u8 0 in
  let i =
    if op = op_hlt then Hlt
    else if op = op_nop1 then Nop 1
    else if op = op_nop2 then Nop 2
    else if op = op_nop3 then Nop 3
    else if op = op_mov_rr then Mov_rr (reg 1, reg 2)
    else if op = op_mov_ri then Mov_ri (reg 1, i32 2)
    else if op = op_load_w32 then Load (W32, reg 1, reg 2, i16 3)
    else if op = op_load_w8 then Load (W8, reg 1, reg 2, i16 3)
    else if op = op_load_w16 then Load (W16, reg 1, reg 2, i16 3)
    else if op = op_store_w32 then Store (W32, reg 1, i16 2, reg 4)
    else if op = op_store_w8 then Store (W8, reg 1, i16 2, reg 4)
    else if op = op_store_w16 then Store (W16, reg 1, i16 2, reg 4)
    else if op = op_load_abs_w32 then Load_abs (W32, reg 1, i32 2)
    else if op = op_load_abs_w8 then Load_abs (W8, reg 1, i32 2)
    else if op = op_load_abs_w16 then Load_abs (W16, reg 1, i32 2)
    else if op = op_store_abs_w32 then Store_abs (W32, i32 1, reg 5)
    else if op = op_store_abs_w8 then Store_abs (W8, i32 1, reg 5)
    else if op = op_store_abs_w16 then Store_abs (W16, i32 1, reg 5)
    else if op >= op_add && op <= op_add + 10 then begin
      let a = reg 1 and b = reg 2 in
      match op - op_add with
      | 0 -> Add (a, b) | 1 -> Sub (a, b) | 2 -> Mul (a, b)
      | 3 -> Div (a, b) | 4 -> Mod (a, b) | 5 -> And (a, b)
      | 6 -> Or (a, b) | 7 -> Xor (a, b) | 8 -> Shl (a, b)
      | 9 -> Shr (a, b) | _ -> Sar (a, b)
    end
    else if op = op_addi then Addi (reg 1, i32 2)
    else if op = op_cmp then Cmp (reg 1, reg 2)
    else if op = op_cmpi then Cmpi (reg 1, i32 2)
    else if op = op_neg then Neg (reg 1)
    else if op = op_not then Not (reg 1)
    else if op = op_setcc then begin
      match cond_of_int (u8 1) with
      | Some c -> Setcc (c, reg 2)
      | None -> raise (Decode_error pos)
    end
    else if op = op_jmp then Jmp (i32 1)
    else if op = op_jmp_s then Jmp_s (i8 1)
    else if op >= op_jcc && op < op_jcc + 6 then begin
      match cond_of_int (op - op_jcc) with
      | Some c -> Jcc (c, i32 1)
      | None -> raise (Decode_error pos)
    end
    else if op >= op_jcc_s && op < op_jcc_s + 6 then begin
      match cond_of_int (op - op_jcc_s) with
      | Some c -> Jcc_s (c, i8 1)
      | None -> raise (Decode_error pos)
    end
    else if op = op_call then Call (i32 1)
    else if op = op_call_r then Call_r (reg 1)
    else if op = op_ret then Ret
    else if op = op_push then Push (reg 1)
    else if op = op_pop then Pop (reg 1)
    else if op = op_sext8 then Sext8 (reg 1)
    else if op = op_sext16 then Sext16 (reg 1)
    else if op = op_zext8 then Zext8 (reg 1)
    else if op = op_zext16 then Zext16 (reg 1)
    else if op = op_int then Int (u8 1)
    else raise (Decode_error pos)
  in
  (i, length i)

let decode_bytes b pos =
  if pos < 0 || pos >= Bytes.length b then raise (Decode_error pos);
  let get off =
    if off >= Bytes.length b then raise (Decode_error pos)
    else Bytes.get_uint8 b off
  in
  decode get pos

let is_nop = function Nop _ -> true | _ -> false

type jump_class = Cjmp | Cjcc of cond | Ccall

let pc_rel = function
  | Jmp d -> Some (Cjmp, Int32.to_int d, 1, 4)
  | Jmp_s d -> Some (Cjmp, d, 1, 1)
  | Jcc (c, d) -> Some (Cjcc c, Int32.to_int d, 1, 4)
  | Jcc_s (c, d) -> Some (Cjcc c, d, 1, 1)
  | Call d -> Some (Ccall, Int32.to_int d, 1, 4)
  | _ -> None

let with_disp i disp =
  match i with
  | Jmp _ -> Jmp (Int32.of_int disp)
  | Jcc (c, _) -> Jcc (c, Int32.of_int disp)
  | Call _ -> Call (Int32.of_int disp)
  | Jmp_s _ ->
    if fits_i8 disp then Jmp_s disp
    else invalid_arg "Isa.with_disp: short jump overflow"
  | Jcc_s (c, _) ->
    if fits_i8 disp then Jcc_s (c, disp)
    else invalid_arg "Isa.with_disp: short jump overflow"
  | _ -> invalid_arg "Isa.with_disp: not a pc-relative instruction"

let same_shape a b =
  match pc_rel a, pc_rel b with
  | Some (ca, _, _, _), Some (cb, _, _, _) -> ca = cb
  | None, None -> a = b
  | _ -> false

let imm_field = function
  | Mov_ri _ | Addi _ | Cmpi _ | Load_abs _ -> Some (2, 4)
  | Store_abs _ -> Some (1, 4)
  | _ -> None
