(* Kernel VM tests: interpreter semantics, threads and scheduling,
   faults, privilege, shadow data structures, and stop_machine. *)

module Isa = Vmisa.Isa
module Image = Klink.Image
module Machine = Kernel.Machine
module Frag = Asm.Frag
module Section = Objfile.Section
module Symbol = Objfile.Symbol

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* build a machine whose kernel is a raw assembly unit *)
let boot_asm src =
  let obj = Asm.Assembler.assemble ~unit_name:"k.s" ~function_sections:false src in
  let img = Result.get_ok (Image.link ~base:0x100000 [ obj ]) in
  (img, Machine.create img)

let addr img name = (Option.get (Image.lookup_global img name)).Image.addr

let call m img name args =
  match Machine.call_function m ~addr:(addr img name) ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "%s faulted: %a" name Machine.pp_fault f

let test_alu_semantics () =
  let img, m =
    boot_asm
      {|
.text
.global alu
alu:
  loadw r0, [sp+4]
  loadw r1, [sp+8]
  mov r2, r0
  add r2, r1
  mov r3, r0
  sub r3, r1
  mul r3, r2
  mov r0, r3
  ret
|}
  in
  (* (a-b) * (a+b) *)
  check Alcotest.int32 "alu" 91l (call m img "alu" [ 10l; 3l ]);
  check Alcotest.int32 "alu negative" (-91l) (call m img "alu" [ 3l; 10l ])

let test_flags_and_conditions () =
  let img, m =
    boot_asm
      {|
.text
.global cmp3
cmp3:
  loadw r0, [sp+4]
  cmpi r0, 10
  jl .Lless
  jg .Lmore
  mov r0, 0
  ret
.Lless:
  mov r0, -1
  ret
.Lmore:
  mov r0, 1
  ret
|}
  in
  check Alcotest.int32 "less" (-1l) (call m img "cmp3" [ 5l ]);
  check Alcotest.int32 "equal" 0l (call m img "cmp3" [ 10l ]);
  check Alcotest.int32 "more" 1l (call m img "cmp3" [ 99l ]);
  check Alcotest.int32 "signed less" (-1l) (call m img "cmp3" [ -3l ])

let test_memory_widths () =
  let img, m =
    boot_asm
      {|
.text
.global poke
poke:
  mov r1, scratch
  mov r2, 0x11223344
  storew [r1+0], r2
  loadb r0, [r1+1]
  mov r3, 16
  loadh r1, [r1+0]
  shl r0, r3
  or r0, r1
  ret
.bss
.global scratch
scratch:
  .space 8
|}
  in
  (* byte 1 = 0x33, halfword = 0x3344 (little endian) *)
  let v = call m img "poke" [] in
  check Alcotest.int32 "byte and half extraction"
    (Int32.logor (Int32.shift_left 0x33l 16) 0x3344l)
    v

let test_shift_mask_semantics () =
  let img, m =
    boot_asm
      {|
.text
.global sh
sh:
  loadw r0, [sp+4]
  loadw r1, [sp+8]
  shr r0, r1
  ret
.global sar_f
sar_f:
  loadw r0, [sp+4]
  loadw r1, [sp+8]
  sar r0, r1
  ret
|}
  in
  check Alcotest.int32 "logical shift" 0x7fffffffl
    (call m img "sh" [ -2l; 1l ]);
  check Alcotest.int32 "arithmetic shift" (-1l)
    (call m img "sar_f" [ -2l; 1l ]);
  (* shift amounts are masked to 31 *)
  check Alcotest.int32 "shift mask" 1l (call m img "sh" [ 2l; 33l ])

let test_fault_memory_violation () =
  let img, m = boot_asm {|
.text
.global bad
bad:
  mov r1, 16
  loadw r0, [r1+0]
  ret
|} in
  match Machine.call_function m ~addr:(addr img "bad") ~args:[] with
  | Error (Machine.Memory_violation 16) -> ()
  | _ -> Alcotest.fail "expected memory violation at 16"

let test_fault_illegal_instruction () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  (* write garbage over f *)
  Machine.write_bytes m (addr img "f") (Bytes.make 1 '\xEE');
  match Machine.call_function m ~addr:(addr img "f") ~args:[] with
  | Error (Machine.Illegal_instruction _) -> ()
  | _ -> Alcotest.fail "expected illegal instruction"

let test_privileged_escape () =
  (* INT 5 (setuid) from kernel text is allowed; patching the same code
     into user-reachable memory must fault *)
  let img, m =
    boot_asm {|
.text
.global elevate
elevate:
  mov r1, 0
  int 5
  mov r0, 0
  ret
|}
  in
  let th =
    Machine.spawn m ~name:"u" ~uid:1000 ~entry:(addr img "elevate") ~args:[]
  in
  ignore (Machine.run m ~steps:100 : int);
  check Alcotest.int "kernel text may set uid" 0 th.uid;
  (* copy the same code into unprivileged memory *)
  let code = Machine.read_bytes m (addr img "elevate") 16 in
  let user_at = Machine.alloc_module m ~size:16 ~align:4 in
  Machine.write_bytes m user_at code;
  let th2 = Machine.spawn m ~name:"u2" ~uid:1000 ~entry:user_at ~args:[] in
  ignore (Machine.run m ~steps:100 : int);
  (match th2.state with
   | Machine.Faulted (Machine.Privilege_violation _) -> ()
   | s ->
     Alcotest.failf "expected privilege fault, got %s"
       (match s with
        | Machine.Exited _ -> "exit"
        | Machine.Runnable -> "runnable"
        | _ -> "other"));
  check Alcotest.int "uid unchanged" 1000 th2.uid

let test_round_robin_fairness () =
  (* two spinning threads both make progress *)
  let img, m =
    boot_asm
      {|
.text
.global spin
spin:
  loadw r1, [sp+4]
.Lloop:
  loadw r2, [r1+0]
  addi r2, 1
  storew [r1+0], r2
  jmp .Lloop
.bss
.global cell_a
cell_a:
  .space 4
.global cell_b
cell_b:
  .space 4
|}
  in
  let a = addr img "cell_a" and b = addr img "cell_b" in
  ignore
    (Machine.spawn m ~name:"a" ~uid:0 ~entry:(addr img "spin")
       ~args:[ Int32.of_int a ]);
  ignore
    (Machine.spawn m ~name:"b" ~uid:0 ~entry:(addr img "spin")
       ~args:[ Int32.of_int b ]);
  ignore (Machine.run m ~steps:4000 : int);
  let va = Int32.to_int (Machine.read_i32 m a) in
  let vb = Int32.to_int (Machine.read_i32 m b) in
  Alcotest.(check bool) "both progressed" true (va > 10 && vb > 10);
  Alcotest.(check bool) "roughly fair" true
    (abs (va - vb) < (va + vb) / 2)

let test_sleep_wakes () =
  let img, m =
    boot_asm
      {|
.text
.global sleeper
sleeper:
  mov r1, 500
  int 6
  mov r0, 42
  mov r1, r0
  int 1
.global spin
spin:
  jmp spin
|}
  in
  let th =
    Machine.spawn m ~name:"s" ~uid:0 ~entry:(addr img "sleeper") ~args:[]
  in
  (* a busy thread keeps virtual time ticking one instruction at a time *)
  ignore (Machine.spawn m ~name:"spin" ~uid:0 ~entry:(addr img "spin") ~args:[]);
  ignore (Machine.run m ~steps:100 : int);
  (match th.state with
   | Machine.Sleeping _ -> ()
   | _ -> Alcotest.fail "expected sleeping");
  ignore (Machine.run m ~steps:2000 : int);
  match th.state with
  | Machine.Exited 42l -> ()
  | _ -> Alcotest.fail "expected exit 42 after wake"

let test_exit_gadget () =
  (* a spawned entry can simply return; its r0 becomes the exit status *)
  let img, m = boot_asm ".text\n.global f\nf:\n  mov r0, 7\n  ret\n" in
  let th = Machine.spawn m ~name:"f" ~uid:0 ~entry:(addr img "f") ~args:[] in
  ignore (Machine.run m ~steps:100 : int);
  match th.state with
  | Machine.Exited 7l -> ()
  | _ -> Alcotest.fail "expected exit 7"

let test_shadow_store () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  ignore img;
  (* exercise the host shadow escapes through a thread *)
  let frag = Frag.create () in
  List.iter (Frag.insn frag)
    [ Isa.Mov_ri (Isa.R1, 0x1234l) (* object *);
      Isa.Mov_ri (Isa.R2, 7l) (* key *);
      Isa.Mov_ri (Isa.R3, 8l) (* size *);
      Isa.Int 8 (* attach -> r0 *);
      Isa.Mov_rr (Isa.R4, Isa.R0);
      Isa.Mov_ri (Isa.R5, 99l);
      Isa.Store (Isa.W32, Isa.R4, 0, Isa.R5);
      Isa.Mov_ri (Isa.R1, 0x1234l);
      Isa.Mov_ri (Isa.R2, 7l);
      Isa.Int 9 (* get -> r0 *);
      Isa.Load (Isa.W32, Isa.R0, Isa.R0, 0);
      Isa.Ret ];
  let img2 = Frag.assemble frag ~text:true in
  let at = Machine.alloc_module m ~size:(Bytes.length img2.data) ~align:4 in
  Machine.write_bytes m at img2.data;
  Machine.add_privileged_range m (at, at + Bytes.length img2.data);
  (match Machine.call_function m ~addr:at ~args:[] with
   | Ok 99l -> ()
   | Ok v -> Alcotest.failf "shadow readback %ld" v
   | Error f -> Alcotest.failf "fault: %a" Machine.pp_fault f);
  (* idempotent attach, detach removes *)
  (match Machine.call_function m ~addr:at ~args:[] with
   | Ok 99l -> () (* same shadow, value persists *)
   | _ -> Alcotest.fail "shadow not persistent")

let test_stop_machine_pause_model () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  let r, pause0 = Machine.stop_machine m (fun () -> 42) in
  check Alcotest.int "result passes through" 42 r;
  (* more live threads -> longer simulated pause *)
  for i = 1 to 4 do
    ignore
      (Machine.spawn m
         ~name:(Printf.sprintf "t%d" i)
         ~uid:0 ~entry:(addr img "f") ~args:[])
  done;
  let _, pause4 = Machine.stop_machine m (fun () -> ()) in
  Alcotest.(check bool) "pause grows with CPUs" true (pause4 > pause0)

let test_console_output () =
  let img, m =
    boot_asm
      {|
.text
.global hello
hello:
  mov r1, 72
  int 0
  mov r1, 105
  int 0
  ret
|}
  in
  ignore (call m img "hello" []);
  check Alcotest.string "console" "Hi" (Machine.console m)

let test_module_alloc_distinct () =
  let _, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  let a = Machine.alloc_module m ~size:100 ~align:16 in
  let b = Machine.alloc_module m ~size:100 ~align:16 in
  Alcotest.(check bool) "aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check bool) "disjoint" true (b >= a + 100)

let test_reentrant_call_function_rejected () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  ignore img;
  ignore m;
  (* covered implicitly: call_function guards reentrancy with
     Invalid_argument; exercise via stop_machine nesting *)
  let _, _ =
    Machine.stop_machine m (fun () ->
        match Machine.call_function m ~addr:(addr img "f") ~args:[] with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "inner call failed: %a" Machine.pp_fault f)
  in
  ()

let test_backtrace () =
  let img, m =
    boot_asm
      {|
.text
.global leaf
leaf:
  int 2
  jmp leaf
.global middle
middle:
  call leaf
  ret
.global outer
outer:
  call middle
  ret
|}
  in
  let th =
    Machine.spawn m ~name:"bt" ~uid:0 ~entry:(addr img "outer") ~args:[]
  in
  ignore (Machine.run m ~steps:64 : int);
  let frames = Machine.backtrace m th in
  let mentions name =
    List.exists
      (fun f ->
        String.length f >= String.length name
        && String.sub f 0 (String.length name) = name)
      frames
  in
  Alcotest.(check bool) "leaf on stack" true (mentions "leaf");
  Alcotest.(check bool) "middle on stack" true (mentions "middle");
  Alcotest.(check bool) "outer on stack" true (mentions "outer")

let test_backtrace_sleeping () =
  (* §5.2 diagnostics and the transition manager both walk stacks of
     threads that are NOT running: a sleeper's chain must still resolve *)
  let img, m =
    boot_asm
      {|
.text
.global naplet
naplet:
  mov r1, 1000
  int 6
  ret
.global middle
middle:
  call naplet
  ret
.global outer
outer:
  call middle
  ret
.global spinner
spinner:
  jmp spinner
|}
  in
  let th =
    Machine.spawn m ~name:"sleeper" ~uid:0 ~entry:(addr img "outer") ~args:[]
  in
  (* a busy thread keeps the clock honest: with only a sleeper the
     scheduler would time-teleport straight past the nap *)
  ignore
    (Machine.spawn m ~name:"spinner" ~uid:0 ~entry:(addr img "spinner")
       ~args:[]
      : Machine.thread);
  ignore (Machine.run m ~steps:64 : int);
  (match th.Machine.state with
   | Machine.Sleeping wake ->
     Alcotest.(check bool) "wake in the future" true (wake > Machine.tick m)
   | _ -> Alcotest.fail "thread should be sleeping");
  let frames = Machine.backtrace m th in
  let mentions name =
    List.exists
      (fun f ->
        String.length f >= String.length name
        && String.sub f 0 (String.length name) = name)
      frames
  in
  Alcotest.(check bool) "pc frame resolves into naplet" true
    (mentions "naplet");
  Alcotest.(check bool) "middle on sleeping stack" true (mentions "middle");
  Alcotest.(check bool) "outer on sleeping stack" true (mentions "outer")

let test_backtrace_not_started_and_exited () =
  let img, m =
    boot_asm
      {|
.text
.global solo
solo:
  ret
|}
  in
  (* never stepped: the only honest frame is the entry pc itself *)
  let fresh =
    Machine.spawn m ~name:"fresh" ~uid:0 ~entry:(addr img "solo") ~args:[]
  in
  let frames = Machine.backtrace m fresh in
  Alcotest.(check bool) "at least the pc frame" true (frames <> []);
  Alcotest.(check bool) "pc frame is solo" true
    (match frames with
     | f :: _ ->
       String.length f >= 4 && String.sub f 0 4 = "solo"
     | [] -> false);
  (* exited: backtrace must not raise, whatever it reports *)
  ignore (Machine.run m ~steps:64 : int);
  (match fresh.Machine.state with
   | Machine.Exited _ -> ()
   | _ -> Alcotest.fail "thread should have exited");
  ignore (Machine.backtrace m fresh : string list)

let suite =
  [
    ( "machine",
      [
        t "alu semantics" test_alu_semantics;
        t "flags and conditions" test_flags_and_conditions;
        t "memory widths" test_memory_widths;
        t "shift semantics" test_shift_mask_semantics;
        t "memory violation fault" test_fault_memory_violation;
        t "illegal instruction fault" test_fault_illegal_instruction;
        t "privileged escape" test_privileged_escape;
        t "round robin fairness" test_round_robin_fairness;
        t "sleep and wake" test_sleep_wakes;
        t "exit gadget" test_exit_gadget;
        t "shadow store" test_shadow_store;
        t "stop_machine pause model" test_stop_machine_pause_model;
        t "console output" test_console_output;
        t "module alloc" test_module_alloc_distinct;
        t "call_function inside stop_machine"
          test_reentrant_call_function_rejected;
        t "backtrace" test_backtrace;
        t "backtrace of a sleeping thread" test_backtrace_sleeping;
        t "backtrace of not-started and exited threads"
          test_backtrace_not_started_and_exited;
      ] );
  ]
