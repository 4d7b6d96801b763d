(* Paged machine memory: host-side range errors, interpreted accesses
   straddling a page boundary, diff_snapshot over pages, and a property
   that paged memory agrees with a flat reference model. *)

module Isa = Vmisa.Isa
module Image = Klink.Image
module Machine = Kernel.Machine

let t name f = Alcotest.test_case name `Quick f
let page = 0x1000
let default_mem_size = 0x0200_0000

(* an address far from the image, the module area and the stacks: its
   page is never touched unless a test writes it *)
let untouched = 0x80_0000

let boot src =
  let obj =
    Asm.Assembler.assemble ~unit_name:"k.s" ~function_sections:false src
  in
  let img = Image.link_exn ~base:0x100000 [ obj ] in
  (img, Machine.create img)

let addr img name = (Option.get (Image.lookup_global img name)).Image.addr

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* --- host-side range errors --- *)

let test_host_range_errors () =
  let _, m = boot ".text\n.global f\nf:\n  ret\n" in
  let seen = ref [] in
  Machine.set_write_observer m (Some (fun a n -> seen := (a, n) :: !seen));
  Alcotest.(check bool) "read_u8 at 0x0" true
    (raises_invalid (fun () -> Machine.read_u8 m 0x0));
  Alcotest.(check bool) "write_i32 at mem_size - 2" true
    (raises_invalid (fun () ->
         Machine.write_i32 m (default_mem_size - 2) 0x11223344l));
  Alcotest.(check bool) "read_bytes past the end" true
    (raises_invalid (fun () ->
         Machine.read_bytes m (default_mem_size - 2) 4));
  Alcotest.(check bool) "write_bytes below 0x1000" true
    (raises_invalid (fun () -> Machine.write_bytes m 0xfff (Bytes.make 2 'x')));
  Alcotest.(check (list (pair int int))) "a refused write is not observed" []
    !seen;
  (* the last in-range word still works *)
  Machine.write_i32 m (default_mem_size - 4) 0x11223344l;
  Alcotest.(check int32) "last word" 0x11223344l
    (Machine.read_i32 m (default_mem_size - 4))

(* --- interpreted accesses across a page boundary --- *)

let test_interpreter_straddles () =
  let img, m =
    boot
      {|
.text
.global putw
putw:
  loadw r1, [sp+4]
  loadw r2, [sp+8]
  storew [r1+0], r2
  loadw r0, [r1+0]
  ret
.global puth
puth:
  loadw r1, [sp+4]
  loadw r2, [sp+8]
  storeh [r1+0], r2
  loadh r0, [r1+0]
  ret
|}
  in
  let call name args =
    match Machine.call_function m ~addr:(addr img name) ~args with
    | Ok v -> v
    | Error f -> Alcotest.failf "%s faulted: %a" name Machine.pp_fault f
  in
  List.iter
    (fun a ->
      let a = untouched + page + a in
      Alcotest.(check int32)
        (Printf.sprintf "word at %#x" a)
        0x11223344l
        (call "putw" [ Int32.of_int a; 0x11223344l ]);
      Alcotest.(check string)
        (Printf.sprintf "word bytes at %#x" a)
        "\x44\x33\x22\x11"
        (Bytes.to_string (Machine.read_bytes m a 4)))
    [ -4; -3; -2; -1; 0 ];
  List.iter
    (fun a ->
      let a = untouched + (3 * page) + a in
      Alcotest.(check int32)
        (Printf.sprintf "half at %#x" a)
        0xbeefl
        (call "puth" [ Int32.of_int a; 0xcafebeefl ]);
      Alcotest.(check int32)
        (Printf.sprintf "half bytes at %#x" a)
        0xbeefl
        (Int32.of_int
           (Bytes.get_uint16_le (Machine.read_bytes m a 2) 0)))
    [ -2; -1; 0 ]

(* --- diff_snapshot over pages --- *)

let check_diff what expected m snap =
  Alcotest.(check (list string)) what expected (Machine.diff_snapshot m snap)

let test_diff_untouched_page () =
  let _, m = boot ".text\n.global f\nf:\n  ret\n" in
  let snap = Machine.snapshot m in
  Machine.write_u8 m (untouched + 0x123) 0x5a;
  check_diff "one byte on a never-touched page"
    [ "memory differs at 0x800123: now 0x5a, snapshot 0" ]
    m snap

let test_diff_straddling_word () =
  let _, m = boot ".text\n.global f\nf:\n  ret\n" in
  let snap = Machine.snapshot m in
  Machine.write_i32 m (untouched + page - 2) 0x11223344l;
  check_diff "an i32 across a page boundary"
    [
      "memory differs at 0x800ffe: now 0x44, snapshot 0";
      "memory differs at 0x801000: now 0x22, snapshot 0";
    ]
    m snap

let test_diff_restored_bytes () =
  let img, m = boot ".text\n.global f\nf:\n  ret\n" in
  let snap = Machine.snapshot m in
  (* a zero page turned private, then back to all zeros *)
  Machine.write_u8 m untouched 0xff;
  Machine.write_u8 m untouched 0;
  (* an image byte overwritten and put back *)
  let f = addr img "f" in
  let orig = Machine.read_u8 m f in
  Machine.write_u8 m f (orig lxor 0xff);
  Machine.write_u8 m f orig;
  check_diff "equal bytes on a different page object" [] m snap

let test_snapshot_is_a_copy () =
  let img, m = boot ".text\n.global f\nf:\n  ret\n" in
  let f = addr img "f" in
  let orig = Machine.read_u8 m f in
  let before = Machine.snapshot m in
  Machine.write_u8 m f (orig lxor 0xff);
  Machine.write_u8 m untouched 7;
  check_diff "the snapshot kept the old bytes"
    [
      Printf.sprintf "memory differs at %#x: now %#x, snapshot %#x" f
        (orig lxor 0xff) orig;
      "memory differs at 0x800000: now 0x7, snapshot 0";
    ]
    m before;
  let after = Machine.snapshot m in
  Machine.write_u8 m f orig;
  Machine.write_u8 m untouched 0;
  check_diff "writes after a snapshot leave it alone" [] m before;
  check_diff "the later snapshot saw the writes"
    [
      Printf.sprintf "memory differs at %#x: now %#x, snapshot %#x" f orig
        (orig lxor 0xff);
      "memory differs at 0x800000: now 0, snapshot 0x7";
    ]
    m after

let test_diff_order_and_cap () =
  let _, m = boot ".text\n.global f\nf:\n  ret\n" in
  let snap = Machine.snapshot m in
  (* written high to low, reported low to high, at most four *)
  List.iter
    (fun i -> Machine.write_u8 m (untouched + (i * 5 * page) + i) 1)
    [ 4; 3; 2; 1; 0 ];
  check_diff "ascending, capped at four"
    [
      "memory differs at 0x800000: now 0x1, snapshot 0";
      "memory differs at 0x805001: now 0x1, snapshot 0";
      "memory differs at 0x80a002: now 0x1, snapshot 0";
      "memory differs at 0x80f003: now 0x1, snapshot 0";
    ]
    m snap

(* --- paged memory against a flat reference model --- *)

module Flat = struct
  type t = { mem : Bytes.t; mutable writes : (int * int) list }

  (* what [Machine.create] lays out, written straight into one buffer *)
  let create ~mem_size (img : Image.t) =
    let mem = Bytes.make mem_size '\000' in
    Bytes.blit img.data 0 mem img.base (Bytes.length img.data);
    let gadget = mem_size - 0x10 in
    let n = Isa.encode mem gadget (Isa.Mov_rr (Isa.R1, Isa.R0)) in
    ignore (Isa.encode mem (gadget + n) (Isa.Int 1) : int);
    ignore (Isa.encode mem (mem_size - 0x20) Isa.Hlt : int);
    { mem; writes = [] }

  let guard m a n f =
    if a < 0x1000 || a + max n 1 > Bytes.length m.mem then
      invalid_arg "out of range"
    else f ()

  let read m a n = guard m a n (fun () -> Bytes.sub_string m.mem a n)

  let write m a s =
    guard m a (String.length s) (fun () ->
        m.writes <- (a, String.length s) :: m.writes;
        Bytes.blit_string s 0 m.mem a (String.length s))
end

type op =
  | Read_u8 of int
  | Read_i32 of int
  | Read_bytes of int * int
  | Write_u8 of int * int
  | Write_i32 of int * int32
  | Write_bytes of int * string  (* 2 bytes for halfword writes *)

let pp_op = function
  | Read_u8 a -> Printf.sprintf "read_u8 %#x" a
  | Read_i32 a -> Printf.sprintf "read_i32 %#x" a
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes %#x %d" a n
  | Write_u8 (a, v) -> Printf.sprintf "write_u8 %#x %#x" a v
  | Write_i32 (a, v) -> Printf.sprintf "write_i32 %#x %#lx" a v
  | Write_bytes (a, s) ->
    Printf.sprintf "write_bytes %#x (%d bytes)" a (String.length s)

(* a flat result, so machine and model answers compare with [=] *)
let outcome f =
  match f () with s -> Some s | exception Invalid_argument _ -> None

let u8_string v = String.make 1 (Char.chr (v land 0xff))

let i32_string v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  Bytes.to_string b

let run_machine m = function
  | Read_u8 a -> outcome (fun () -> u8_string (Machine.read_u8 m a))
  | Read_i32 a -> outcome (fun () -> i32_string (Machine.read_i32 m a))
  | Read_bytes (a, n) ->
    outcome (fun () -> Bytes.to_string (Machine.read_bytes m a n))
  | Write_u8 (a, v) -> outcome (fun () -> Machine.write_u8 m a v; "")
  | Write_i32 (a, v) -> outcome (fun () -> Machine.write_i32 m a v; "")
  | Write_bytes (a, s) ->
    outcome (fun () -> Machine.write_bytes m a (Bytes.of_string s); "")

let run_flat f = function
  | Read_u8 a -> outcome (fun () -> Flat.read f a 1)
  | Read_i32 a -> outcome (fun () -> Flat.read f a 4)
  | Read_bytes (a, n) -> outcome (fun () -> Flat.read f a n)
  | Write_u8 (a, v) -> outcome (fun () -> Flat.write f a (u8_string v); "")
  | Write_i32 (a, v) -> outcome (fun () -> Flat.write f a (i32_string v); "")
  | Write_bytes (a, s) -> outcome (fun () -> Flat.write f a s; "")

(* the image starts on the first mappable page and its data runs across
   the next page boundary *)
let model_src =
  {|
.text
.global f
f:
  ret
.data
.global head
head:
  .word 0x11223344
  .space 4100
.global tail
tail:
  .word 0x55667788
|}

let model_img =
  lazy
    (Image.link_exn ~base:0x1000
       [
         Asm.Assembler.assemble ~unit_name:"m.s" ~function_sections:false
           model_src;
       ])

(* one page-aligned size and one whose last page is partial, putting the
   exit gadget across a page boundary *)
let model_sizes = [ 0x14000; 0x1500f ]

let gen_case =
  let open QCheck2.Gen in
  let* mem_size = oneofl model_sizes in
  let addr =
    frequency
      [
        (* 0x…ffd–0x…003 around any page boundary, untouched ones too *)
        ( 5,
          let* pg = int_range 0 ((mem_size / page) + 1) in
          let+ d = int_range (-3) 3 in
          (pg * page) + d );
        (2, int_range 0 (mem_size + 8));
        (1, int_range (-4) 0x1004);
        (1, int_range (mem_size - 8) (mem_size + 4));
      ]
  in
  let len =
    frequency
      [
        (4, int_range 0 16);
        (2, int_range 0 (page + 8));
        (1, int_range 0 (3 * page));
      ]
  in
  let op =
    frequency
      [
        (2, map (fun a -> Read_u8 a) addr);
        (2, map (fun a -> Read_i32 a) addr);
        (2, map2 (fun a n -> Read_bytes (a, n)) addr len);
        (2, map2 (fun a v -> Write_u8 (a, v)) addr (int_range 0 255));
        (2, map2 (fun a v -> Write_i32 (a, v)) addr int32);
        (1, map2 (fun a s -> Write_bytes (a, s)) addr (string_size (return 2)));
        (2, map2 (fun a s -> Write_bytes (a, s)) addr (string_size len));
      ]
  in
  pair (return mem_size) (list_size (int_range 1 40) op)

let print_case (mem_size, ops) =
  Printf.sprintf "mem_size %#x:\n  %s" mem_size
    (String.concat "\n  " (List.map pp_op ops))

let prop_paged_equals_flat =
  QCheck2.Test.make ~name:"paged memory agrees with a flat model" ~count:300
    ~print:print_case gen_case (fun (mem_size, ops) ->
      let img = Lazy.force model_img in
      let m = Machine.create ~mem_size img in
      let f = Flat.create ~mem_size img in
      let seen = ref [] in
      Machine.set_write_observer m (Some (fun a n -> seen := (a, n) :: !seen));
      List.for_all (fun op -> run_machine m op = run_flat f op) ops
      && !seen = f.writes
      && Bytes.to_string (Machine.read_bytes m 0x1000 (mem_size - 0x1000))
         = Bytes.sub_string f.mem 0x1000 (mem_size - 0x1000))

let rand () = Random.State.make [| 0x9a9e |]
let qt p = QCheck_alcotest.to_alcotest ~rand:(rand ()) p

let suite =
  [
    ( "memory",
      [
        t "host-side range errors raise Invalid_argument"
          test_host_range_errors;
        t "interpreted accesses across a page" test_interpreter_straddles;
        t "diff: a byte on a never-touched page" test_diff_untouched_page;
        t "diff: an i32 across a page boundary" test_diff_straddling_word;
        t "diff: restored bytes on a new page object" test_diff_restored_bytes;
        t "diff: a snapshot is a copy" test_snapshot_is_a_copy;
        t "diff: ascending order, four at most" test_diff_order_and_cap;
        qt prop_paged_equals_flat;
      ] );
  ]
