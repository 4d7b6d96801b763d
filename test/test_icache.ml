(* Instruction-cache coherence: every case runs an instruction first, so
   its decode is cached, then changes its bytes and runs it again. The
   property compares a machine whose cache is warm against a fresh
   machine holding the same bytes. *)

module Isa = Vmisa.Isa
module Image = Klink.Image
module Machine = Kernel.Machine
module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let t name f = Alcotest.test_case name `Quick f
let page = 0x1000

(* an address far from the image, the module area and the stacks *)
let untouched = 0x80_0000

let boot src =
  let obj =
    Asm.Assembler.assemble ~unit_name:"k.s" ~function_sections:false src
  in
  let img = Result.get_ok (Image.link ~base:0x100000 [ obj ]) in
  (img, Machine.create img)

let addr img name = (Option.get (Image.lookup_global img name)).Image.addr

let call m a =
  match Machine.call_function m ~addr:a ~args:[] with
  | Ok v -> v
  | Error f -> Alcotest.failf "call at %#x faulted: %a" a Machine.pp_fault f

let encode_at m a insns =
  ignore
    (List.fold_left
       (fun a i ->
         let b = Isa.encode_to_bytes i in
         Machine.write_bytes m a b;
         a + Bytes.length b)
       a insns
      : int)

(* (a) an interpreted store rewrites the immediate of the instruction that
   follows it; the first pass leaves the byte as it is, the second makes
   [addi r0, 1] into [addi r0, 100] *)
let test_interpreted_store () =
  let img, m =
    boot
      {|
.text
.global smc
smc:
  mov r0, 0
  mov r1, site
  mov r3, 1
  mov r4, 2
.Lagain:
  storeb [r1+2], r3
.global site
site:
  addi r0, 1
  mov r3, 100
  addi r4, -1
  cmpi r4, 0
  jne .Lagain
  ret
|}
  in
  Alcotest.(check int32) "second pass runs the rewritten addi" 101l
    (call m (addr img "smc"))

(* (b) [mov r0, imm32] starts three bytes before a page boundary; the host
   rewrites its last immediate byte, which lies on the next page *)
let test_straddling_tail () =
  let _, m = boot ".text\n.global f\nf:\n  ret\n" in
  let x = untouched + page - 3 in
  encode_at m x [ Isa.Mov_ri (Isa.R0, 0x11223344l); Isa.Ret ];
  Alcotest.(check int32) "before" 0x11223344l (call m x);
  Machine.write_u8 m (x + 5) 0x55;
  Alcotest.(check int32) "tail byte rewritten" 0x55223344l (call m x)

(* (c) a kernel function runs, is trampolined by an update, and the next
   call lands in the replacement; undo brings the old code back *)
let test_trampoline () =
  let src = "int answer() {\n  return 1;\n}\n" in
  let tree = Tree.of_list [ ("k/a.c", src) ] in
  let build =
    Result.get_ok (Kbuild.build_tree ~options:Minic.Driver.run_build tree)
  in
  let img = Result.get_ok (Image.link ~base:0x100000 (Kbuild.objects build)) in
  let m = Machine.create img in
  let answer = addr img "answer" in
  Alcotest.(check int32) "before apply" 1l (call m answer);
  let tree' = Tree.add tree "k/a.c" "int answer() {\n  return 2;\n}\n" in
  let u =
    match
      Create.create
        { source = tree; patch = Diff.diff_trees tree tree';
          update_id = "answer"; description = "answer" }
    with
    | Ok c -> c.update
    | Error e -> Alcotest.failf "create: %a" Create.pp_error e
  in
  let mgr = Apply.init m in
  (match Apply.apply mgr u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  Alcotest.(check int32) "after apply" 2l (call m answer);
  (match Apply.undo mgr "answer" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo: %a" Apply.pp_error e);
  Alcotest.(check int32) "after undo" 1l (call m answer)

(* --- warm cache against a fresh machine --- *)

(* A straight-line program is laid out [lead] bytes below a page boundary.
   Its stores write either the data area or bytes of instructions already
   run (so the first run goes as generated, and the second runs what the
   stores left); its loads read anywhere in the program or data. *)
type item =
  | I of Isa.insn
  | Store_back of Isa.width * int * Isa.reg  (* pick among executed bytes *)
  | Store_data of Isa.width * int * Isa.reg

(* host writes between the runs, at offsets into the program *)
type overwrite =
  | Ow_u8 of int * int
  | Ow_i32 of int * int32
  | Ow_bytes of int * string

let boundary = untouched + page
let data = boundary + 0x100
let data_len = 64

(* every byte a program can load or the host overwrite: loads reach 200
   bytes below [boundary], a program starts at most 120 bytes below it and
   is at most 31 × 6 bytes long, and the data area comes next *)
let region = boundary - 200
let region_len = data + data_len - region

(* the fresh machine burns its first run's instructions here: 15 pages
   above [boundary], so it shares cache slots with the program *)
let burn = boundary + (15 * page)
let width_bytes = function Isa.W8 -> 1 | Isa.W16 -> 2 | Isa.W32 -> 4

let layout ~lead items =
  let code = boundary - lead in
  let _, rev =
    List.fold_left
      (fun (off, acc) item ->
        let insn =
          match item with
          | I i -> i
          | Store_back (w, k, rs) when off >= width_bytes w ->
            Store_abs
              (w, Int32.of_int (code + (k mod (off - width_bytes w + 1))), rs)
          | Store_back (w, k, rs) | Store_data (w, k, rs) ->
            Store_abs
              (w, Int32.of_int (data + (k mod (data_len - 3))), rs)
        in
        (off + Isa.length insn, insn :: acc))
      (0, []) items
  in
  (code, List.rev (Isa.Hlt :: rev))

let gen_case =
  let open QCheck2.Gen in
  let all_regs = Isa.[| R0; R1; R2; R3; R4; R5; R6; R7; SP |] in
  let dst = oneofa (Array.sub all_regs 0 8) and src = oneofa all_regs in
  let value =
    frequency [ (2, map Int32.of_int (int_range (-4) 4)); (1, int32) ]
  in
  let width = oneofl Isa.[ W8; W16; W32 ] in
  let cond = oneofl Isa.[ Eq; Ne; Lt; Ge; Gt; Le ] in
  let alu =
    let* k = int_range 0 10 in
    let+ a = dst and+ b = src in
    I
      Isa.(
        match k with
        | 0 -> Add (a, b) | 1 -> Sub (a, b) | 2 -> Mul (a, b)
        | 3 -> Div (a, b) | 4 -> Mod (a, b) | 5 -> And (a, b)
        | 6 -> Or (a, b) | 7 -> Xor (a, b) | 8 -> Shl (a, b)
        | 9 -> Shr (a, b) | _ -> Sar (a, b))
  in
  let unary =
    let* k = int_range 0 5 in
    let+ r = dst in
    I
      Isa.(
        match k with
        | 0 -> Neg r | 1 -> Not r | 2 -> Sext8 r | 3 -> Sext16 r
        | 4 -> Zext8 r | _ -> Zext16 r)
  in
  let item =
    frequency
      [
        (2, map2 (fun a b -> I (Isa.Mov_rr (a, b))) dst src);
        (3, map2 (fun a v -> I (Isa.Mov_ri (a, v))) dst value);
        (4, alu);
        (2, map2 (fun a v -> I (Isa.Addi (a, v))) dst value);
        (1, map2 (fun a b -> I (Isa.Cmp (a, b))) src src);
        (1, map2 (fun a v -> I (Isa.Cmpi (a, v))) src value);
        (2, map2 (fun c r -> I (Isa.Setcc (c, r))) cond dst);
        (2, unary);
        (1, map (fun n -> I (Isa.Nop n)) (int_range 1 3));
        (1, map (fun r -> I (Isa.Push r)) src);
        (1, map (fun r -> I (Isa.Pop r)) dst);
        ( 2,
          map3
            (fun w r o -> I (Isa.Load_abs (w, r, Int32.of_int (boundary + o))))
            width dst
            (int_range (-200) (0x100 + data_len - 4)) );
        ( 1,
          map3
            (fun w r o -> I (Isa.Load (w, r, Isa.SP, o)))
            width dst (int_range (-16) 16) );
        (3, map3 (fun w k r -> Store_back (w, k, r)) width nat src);
        (1, map3 (fun w k r -> Store_data (w, k, r)) width nat src);
      ]
  in
  let* lead = int_range 1 120 in
  let* items = list_size (int_range 1 30) item in
  let code, insns = layout ~lead items in
  let len = List.fold_left (fun a i -> a + Isa.length i) 0 insns in
  (* anywhere in the program, or on the first bytes past the boundary,
     where an instruction begun on the page below may end *)
  let at =
    frequency [ (3, int_range 0 (len + 7)); (1, int_range lead (lead + 5)) ]
  in
  let overwrite =
    frequency
      [
        (2, map2 (fun o v -> Ow_u8 (o, v)) at (int_range 0 255));
        (1, map2 (fun o v -> Ow_i32 (o, v)) at int32);
        (1, map2 (fun o s -> Ow_bytes (o, s)) at (string_size (int_range 1 6)));
        ( 3,
          map2
            (fun o item ->
              let _, i = layout ~lead:0 [ item ] in
              Ow_bytes (o, Bytes.to_string (Isa.encode_to_bytes (List.hd i))))
            at item );
      ]
  in
  let+ ows = list_size (int_range 1 6) overwrite in
  (code, insns, ows)

let print_case (code, insns, ows) =
  let ow = function
    | Ow_u8 (o, v) -> Printf.sprintf "write_u8 +%d %#x" o v
    | Ow_i32 (o, v) -> Printf.sprintf "write_i32 +%d %#lx" o v
    | Ow_bytes (o, s) -> Printf.sprintf "write_bytes +%d %S" o s
  in
  Printf.sprintf "program at %#x:\n  %s\nthen:\n  %s" code
    (String.concat "\n  " (List.map Isa.insn_to_string insns))
    (String.concat "\n  " (List.map ow ows))

let run_second m code =
  let th = Machine.spawn m ~name:"second" ~uid:0 ~entry:code ~args:[] in
  ignore (Machine.run m ~steps:500 : int);
  ( Array.to_list th.regs, th.flag_eq, th.flag_lt, th.pc, th.state,
    Machine.instructions_retired m, Machine.tick m, Machine.console m,
    Machine.read_bytes m region region_len )

let prop_warm_equals_fresh =
  QCheck2.Test.make ~name:"a warm instruction cache agrees with a fresh one"
    ~count:300 ~print:print_case gen_case (fun (code, insns, ows) ->
      let _, warm = boot ".text\n.global f\nf:\n  ret\n" in
      encode_at warm code insns;
      let first =
        Machine.spawn warm ~name:"first" ~uid:0 ~entry:code ~args:[]
      in
      ignore (Machine.run warm ~steps:1000 : int);
      (* stopped, so only the second thread runs next *)
      first.state <- Machine.Exited 0l;
      let burnt = Machine.instructions_retired warm in
      List.iter
        (function
          | Ow_u8 (o, v) -> Machine.write_u8 warm (code + o) v
          | Ow_i32 (o, v) -> Machine.write_i32 warm (code + o) v
          | Ow_bytes (o, s) ->
            Machine.write_bytes warm (code + o) (Bytes.of_string s))
        ows;
      let bytes = Machine.read_bytes warm region region_len in
      (* the fresh machine retires as many instructions elsewhere, on a
         thread of its own, then takes the same bytes *)
      let _, fresh = boot ".text\n.global f\nf:\n  ret\n" in
      encode_at fresh burn [ Isa.Jmp_s (-2) ];
      let spin = Machine.spawn fresh ~name:"burn" ~uid:0 ~entry:burn ~args:[] in
      ignore (Machine.run fresh ~steps:burnt : int);
      spin.state <- Machine.Exited 0l;
      Machine.write_bytes fresh region bytes;
      run_second warm code = run_second fresh code)

let rand () = Random.State.make [| 0x1cac4e |]
let qt p = QCheck_alcotest.to_alcotest ~rand:(rand ()) p

let suite =
  [
    ( "icache",
      [
        t "an interpreted store rewrites the next instruction"
          test_interpreted_store;
        t "host rewrites the tail of an instruction across a page"
          test_straddling_tail;
        t "an update's trampoline and its undo" test_trampoline;
        qt prop_warm_equals_fresh;
      ] );
  ]
