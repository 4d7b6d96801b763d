(* Tests for the KVX-32 ISA: encode/decode round-trips, lengths,
   classification helpers, and decode robustness. *)

module Isa = Vmisa.Isa

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let all_regs = [ Isa.R0; R1; R2; R3; R4; R5; R6; R7; SP ]
let all_conds = [ Isa.Eq; Ne; Lt; Ge; Gt; Le ]

(* A representative instruction of every constructor. *)
let sample_insns =
  let open Isa in
  [
    Hlt; Nop 1; Nop 2; Nop 3;
    Mov_rr (R0, R1); Mov_ri (R3, 0xdeadbeefl);
    Load (W32, R0, R6, -8); Load (W8, R2, SP, 12); Load (W16, R1, R4, 0);
    Store (W32, R6, -12, R0); Store (W8, SP, 3, R7); Store (W16, R1, 100, R2);
    Load_abs (W32, R5, 0x101234l); Load_abs (W8, R0, 1l);
    Load_abs (W16, R1, 0x7fffffffl);
    Store_abs (W32, 0x200000l, R3); Store_abs (W8, 0l, R0);
    Store_abs (W16, 16l, R7);
    Add (R0, R1); Sub (R2, R3); Mul (R4, R5); Div (R6, R7); Mod (R0, R7);
    And (R1, R1); Or (R2, R0); Xor (R3, R3); Shl (R0, R1); Shr (R1, R2);
    Sar (R2, R3);
    Addi (SP, -16l); Cmp (R0, R1); Cmpi (R0, 255l); Neg R4; Not R5;
    Setcc (Eq, R0); Setcc (Le, R7);
    Jmp 1024l; Jmp (-5l); Jmp_s 4; Jmp_s (-128);
    Jcc (Eq, 300l); Jcc (Le, -300l); Jcc_s (Ne, 127); Jcc_s (Gt, -2);
    Call 0x4000l; Call (-100l); Call_r R1; Ret;
    Push R6; Pop R6;
    Sext8 R0; Sext16 R1; Zext8 R2; Zext16 R3;
    Int 0x80; Int 0;
  ]

let test_roundtrip () =
  List.iter
    (fun i ->
      let b = Isa.encode_to_bytes i in
      check int_c
        (Printf.sprintf "length of %s" (Isa.insn_to_string i))
        (Isa.length i) (Bytes.length b);
      check bool_c
        (Printf.sprintf "%s within max_length" (Isa.insn_to_string i))
        true
        (Isa.length i <= Isa.max_length);
      let i', len = Isa.decode_bytes b 0 in
      check bool_c
        (Printf.sprintf "roundtrip %s" (Isa.insn_to_string i))
        true (i = i');
      check int_c "decoded length" (Bytes.length b) len)
    sample_insns

let test_roundtrip_all_regs () =
  List.iter
    (fun r ->
      List.iter
        (fun r2 ->
          let i = Isa.Mov_rr (r, r2) in
          let i', _ = Isa.decode_bytes (Isa.encode_to_bytes i) 0 in
          check bool_c "mov regs roundtrip" true (i = i'))
        all_regs)
    all_regs

let test_roundtrip_all_conds () =
  List.iter
    (fun c ->
      List.iter
        (fun i ->
          let i', _ = Isa.decode_bytes (Isa.encode_to_bytes i) 0 in
          check bool_c "cond roundtrip" true (i = i'))
        [ Isa.Jcc (c, 77l); Isa.Jcc_s (c, -77); Isa.Setcc (c, Isa.R3) ])
    all_conds

let test_decode_error () =
  let b = Bytes.make 4 '\xff' in
  Alcotest.check_raises "bad opcode" (Isa.Decode_error 0) (fun () ->
      ignore (Isa.decode_bytes b 0))

let test_truncated () =
  (* A Mov_ri is 6 bytes; give only 3. *)
  let full = Isa.encode_to_bytes (Isa.Mov_ri (Isa.R0, 0x11223344l)) in
  let b = Bytes.sub full 0 3 in
  check bool_c "truncated raises" true
    (try
       ignore (Isa.decode_bytes b 0);
       false
     with Isa.Decode_error _ -> true)

let test_nop_recognition () =
  check bool_c "nop1" true (Isa.is_nop (Isa.Nop 1));
  check bool_c "nop3" true (Isa.is_nop (Isa.Nop 3));
  check bool_c "ret is not nop" false (Isa.is_nop Isa.Ret);
  check bool_c "mov is not nop" false (Isa.is_nop (Isa.Mov_rr (R0, R0)))

let test_pc_rel () =
  (match Isa.pc_rel (Isa.Jmp 10l) with
   | Some (Isa.Cjmp, 10, 1, 4) -> ()
   | _ -> Alcotest.fail "jmp pc_rel");
  (match Isa.pc_rel (Isa.Jcc_s (Isa.Ne, -3)) with
   | Some (Isa.Cjcc Isa.Ne, -3, 1, 1) -> ()
   | _ -> Alcotest.fail "jccs pc_rel");
  (match Isa.pc_rel (Isa.Call 0l) with
   | Some (Isa.Ccall, 0, 1, 4) -> ()
   | _ -> Alcotest.fail "call pc_rel");
  check bool_c "add has no pc_rel" true (Isa.pc_rel (Isa.Add (R0, R1)) = None)

let test_same_shape () =
  check bool_c "short/long jmp same shape" true
    (Isa.same_shape (Isa.Jmp 500l) (Isa.Jmp_s 4));
  check bool_c "jcc same cond same shape" true
    (Isa.same_shape (Isa.Jcc (Isa.Lt, 0l)) (Isa.Jcc_s (Isa.Lt, 1)));
  check bool_c "jcc different cond differ" false
    (Isa.same_shape (Isa.Jcc (Isa.Lt, 0l)) (Isa.Jcc (Isa.Gt, 0l)));
  check bool_c "call vs jmp differ" false
    (Isa.same_shape (Isa.Call 0l) (Isa.Jmp 0l));
  check bool_c "identical alu" true
    (Isa.same_shape (Isa.Add (R0, R1)) (Isa.Add (R0, R1)));
  check bool_c "different alu regs differ" false
    (Isa.same_shape (Isa.Add (R0, R1)) (Isa.Add (R0, R2)))

let test_with_disp () =
  check bool_c "with_disp jmp" true (Isa.with_disp (Isa.Jmp 0l) 42 = Isa.Jmp 42l);
  check bool_c "with_disp short ok" true
    (Isa.with_disp (Isa.Jmp_s 0) 100 = Isa.Jmp_s 100);
  Alcotest.check_raises "with_disp short overflow"
    (Invalid_argument "Isa.with_disp: short jump overflow") (fun () ->
      ignore (Isa.with_disp (Isa.Jmp_s 0) 1000))

let test_imm_field () =
  check bool_c "mov_ri imm field" true
    (Isa.imm_field (Isa.Mov_ri (R0, 0l)) = Some (2, 4));
  check bool_c "store_abs imm field" true
    (Isa.imm_field (Isa.Store_abs (Isa.W32, 0l, R0)) = Some (1, 4));
  check bool_c "ret no imm field" true (Isa.imm_field Isa.Ret = None)

let test_encode_offsets () =
  (* encode at a nonzero position *)
  let b = Bytes.make 16 '\xAA' in
  let n = Isa.encode b 5 (Isa.Addi (Isa.SP, -4l)) in
  check int_c "written length" 6 n;
  let i, _ = Isa.decode_bytes b 5 in
  check bool_c "decode at offset" true (i = Isa.Addi (Isa.SP, -4l))

let test_short_jump_bounds () =
  Alcotest.check_raises "encode short overflow"
    (Invalid_argument "Isa.encode: short jump overflow") (fun () ->
      ignore (Isa.encode_to_bytes (Isa.Jmp_s 200)))

(* Property: decoding any sample instruction sequence recovers it. *)
let prop_stream_roundtrip =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 40) (oneofl sample_insns))
  in
  QCheck2.Test.make ~name:"instruction stream roundtrip" ~count:200 gen
    (fun insns ->
      let total = List.fold_left (fun a i -> a + Isa.length i) 0 insns in
      let buf = Bytes.create total in
      let _ =
        List.fold_left (fun pos i -> pos + Isa.encode buf pos i) 0 insns
      in
      let rec decode_all pos acc =
        if pos >= total then List.rev acc
        else
          let i, len = Isa.decode_bytes buf pos in
          decode_all (pos + len) (i :: acc)
      in
      decode_all 0 [] = insns)

let suite =
  [
    ( "isa",
      [
        Alcotest.test_case "roundtrip samples" `Quick test_roundtrip;
        Alcotest.test_case "roundtrip all regs" `Quick test_roundtrip_all_regs;
        Alcotest.test_case "roundtrip all conds" `Quick
          test_roundtrip_all_conds;
        Alcotest.test_case "decode error" `Quick test_decode_error;
        Alcotest.test_case "truncated decode" `Quick test_truncated;
        Alcotest.test_case "nop recognition" `Quick test_nop_recognition;
        Alcotest.test_case "pc_rel classification" `Quick test_pc_rel;
        Alcotest.test_case "same_shape equivalence" `Quick test_same_shape;
        Alcotest.test_case "with_disp" `Quick test_with_disp;
        Alcotest.test_case "imm_field" `Quick test_imm_field;
        Alcotest.test_case "encode at offset" `Quick test_encode_offsets;
        Alcotest.test_case "short jump bounds" `Quick test_short_jump_bounds;
        QCheck_alcotest.to_alcotest prop_stream_roundtrip;
      ] );
  ]
