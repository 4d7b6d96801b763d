module Isa = Vmisa.Isa

type fault =
  | Illegal_instruction of int
  | Memory_violation of int
  | Divide_by_zero of int
  | Privilege_violation of int
  | No_syscall_entry
  | Step_limit

let pp_fault ppf = function
  | Illegal_instruction pc ->
    Format.fprintf ppf "illegal instruction at %#x" pc
  | Memory_violation a -> Format.fprintf ppf "memory violation at %#x" a
  | Divide_by_zero pc -> Format.fprintf ppf "divide by zero at %#x" pc
  | Privilege_violation pc ->
    Format.fprintf ppf "privileged escape from unprivileged code at %#x" pc
  | No_syscall_entry -> Format.fprintf ppf "syscall with no entry point"
  | Step_limit -> Format.fprintf ppf "step limit exceeded"

type thread_state =
  | Runnable
  | Sleeping of int
  | Exited of int32
  | Faulted of fault

type thread = {
  tid : int;
  name : string;
  regs : int32 array;
  mutable pc : int;
  stack_lo : int;
  stack_hi : int;
  mutable state : thread_state;
  mutable uid : int;
  mutable flag_eq : bool;
  mutable flag_lt : bool;
  (* livepatch-style per-task consistency state: [true] once this thread
     has been migrated to the goal side of the active transition. Only
     meaningful while a transition is active; reset to [false] when it
     begins and ends. Threads spawned mid-transition start migrated (a
     fresh stack cannot hold frames of either side). *)
  mutable patch_state : bool;
}

type safe_point = Sp_syscall | Sp_quantum

(* An active per-thread transition: dispatch stubs at patched function
   entries route a thread whose [patch_state] equals [tr_route_state] to
   the replacement code; everyone else falls through to the bytes at the
   entry. An apply transition routes migrated threads to new code (the
   entry still holds old code); a reverse transition routes unmigrated
   threads to the still-live new code (the entry holds restored old
   code). *)
type transition = {
  tr_update : string;
  tr_route_state : bool;
  tr_dispatch : (int, int) Hashtbl.t;  (* function entry -> target *)
}

(* Machine memory is a table of 4 KiB pages. Every page no one has
   written aliases [zero_page], which is never written itself; the first
   write to such a page swaps in a fresh private page. Booting thus costs
   the image, not [mem_size], and snapshots cost the pages touched. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

(* Predecoded instructions live in a direct-mapped table of [icache_size]
   slots: slot [pc land icache_mask] holds the decode of the instruction
   at [ic_tag.(slot)], or nothing when the tag is [no_pc]. No pc reaches
   [no_pc]: a pc is an int32 value or an in-range address plus an int32
   displacement. The table is derived from memory and stays coherent with
   it (see [icache_drop]); it is in no snapshot. Its size is fixed, so an
   update that loads module after module never grows it. *)
let icache_bits = 12
let icache_size = 1 lsl icache_bits
let icache_mask = icache_size - 1
let no_pc = min_int

type t = {
  pages : Bytes.t array;  (* page [i] holds addresses [i lsl page_bits ..] *)
  ic_tag : int array;
  ic_insn : Isa.insn array;
  ic_len : Bytes.t;
  (* per page: ['\001'] once a cached decode has started on it, so a write
     to a page that never held code skips the table *)
  ic_pages : Bytes.t;
  mem_size : int;
  img : Klink.Image.t;
  mutable syms : Klink.Image.syminfo list;
  (* name -> kallsyms entries bearing it, in [syms] order; maintained
     incrementally by add/remove so per-name lookup is O(1) instead of a
     linear scan of every kernel symbol (run-pre candidate search and
     symbol resolution are the hot consumers) *)
  sym_index : (string, Klink.Image.syminfo list) Hashtbl.t;
  mutable priv : (int * int) list;
  mutable threads_rev : thread list;
  mutable next_tid : int;
  mutable tick_count : int;
  (* monotone instruction odometer: unlike [tick_count] it is never
     rewound by [restore_volatile] (transaction rollback undoes kernel
     time, but not the work the host actually performed) and is not part
     of any snapshot — the supervisor's step accounting hangs off it *)
  mutable retired : int;
  console_buf : Buffer.t;
  mutable module_cursor : int;
  mutable next_stack_top : int;
  mutable syscall_entry_addr : int option;
  (* shadow data structures: (object addr, key) -> shadow addr *)
  shadows : (int * int, int) Hashtbl.t;
  exit_gadget : int;
  sentinel : int;
  call_stack_hi : int;
  call_stack_lo : int;
  mutable in_call_function : bool;
  (* observation and fault-injection hooks (transactional apply support):
     the observer sees every memory mutation before it lands; the
     injectors perturb allocation, host-side writes, and host-initiated
     calls *)
  mutable write_observer : (int -> int -> unit) option;
  mutable inj_alloc : (size:int -> align:int -> bool) option;
  mutable inj_write : (int -> Bytes.t -> Bytes.t) option;
  mutable inj_call : (int -> fault option) option;
  (* per-thread transition machinery: at most one transition is active;
     the safepoint hook (installed by the transition manager) is invoked
     whenever a thread crosses a migration opportunity *)
  mutable transition : transition option;
  mutable safepoint_hook : (thread -> safe_point -> unit) option;
}

exception Vm_fault of fault
exception Out_of_memory of string

(* --- instruction cache --- *)

(* Drop every cached decode that a write to [a, a + len) may change: those
   starting in [a - (Isa.max_length - 1), a + len). Every raw write below
   calls this, so host writes, interpreted stores, stack pushes, rollback
   and [create]'s image blit all keep fetches coherent. *)
let icache_drop t a len =
  let lo = a - (Isa.max_length - 1) and hi = a + len in
  let lo = if lo < 0 then 0 else lo in
  for p = lo lsr page_bits to (hi - 1) lsr page_bits do
    if Bytes.unsafe_get t.ic_pages p <> '\000' then begin
      let start = p lsl page_bits and stop = (p + 1) lsl page_bits in
      for x = (if lo > start then lo else start)
          to (if hi < stop then hi else stop) - 1 do
        let slot = x land icache_mask in
        if Array.unsafe_get t.ic_tag slot = x then
          Array.unsafe_set t.ic_tag slot no_pc
      done
    end
  done

(* --- pages ---

   Raw accessors. Each takes an address its caller has already bounded
   with [check] or [host_check], so the page index and offset are read
   unchecked; only a 2- or 4-byte access straddling two pages goes byte
   by byte. Every write drops the cached decodes it may change. *)

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"

let page t a = Array.unsafe_get t.pages (a lsr page_bits)

(* the page holding [a], made private first if it is still the zero page *)
let writable_page t a =
  let i = a lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i p;
    p
  end

let get_u8 t a = Char.code (Bytes.unsafe_get (page t a) (a land page_mask))

let set_u8 t a v =
  icache_drop t a 1;
  Bytes.unsafe_set (writable_page t a) (a land page_mask)
    (Char.unsafe_chr (v land 0xff))

let get_u16 t a =
  let o = a land page_mask in
  if o <= page_size - 2 then
    let v = get16u (page t a) o in
    if Sys.big_endian then swap16 v else v
  else get_u8 t a lor (get_u8 t (a + 1) lsl 8)

let set_u16 t a v =
  let o = a land page_mask in
  if o <= page_size - 2 then begin
    icache_drop t a 2;
    set16u (writable_page t a) o (if Sys.big_endian then swap16 v else v)
  end
  else begin
    set_u8 t a v;
    set_u8 t (a + 1) (v lsr 8)
  end

let get_i32 t a =
  let o = a land page_mask in
  if o <= page_size - 4 then
    let v = get32u (page t a) o in
    if Sys.big_endian then swap32 v else v
  else
    Int32.of_int
      (get_u8 t a
      lor (get_u8 t (a + 1) lsl 8)
      lor (get_u8 t (a + 2) lsl 16)
      lor (get_u8 t (a + 3) lsl 24))

let set_i32 t a v =
  let o = a land page_mask in
  if o <= page_size - 4 then begin
    icache_drop t a 4;
    set32u (writable_page t a) o (if Sys.big_endian then swap32 v else v)
  end
  else begin
    let v = Int32.to_int v in
    set_u8 t a v;
    set_u8 t (a + 1) (v lsr 8);
    set_u8 t (a + 2) (v lsr 16);
    set_u8 t (a + 3) (v lsr 24)
  end

(* bulk copies in and out of memory, one page-sized piece at a time;
   these index the page table checked *)
let rec blit_in t src off a len =
  if len > 0 then begin
    let i = a lsr page_bits and o = a land page_mask in
    let n = min len (page_size - o) in
    icache_drop t a n;
    if t.pages.(i) == zero_page then t.pages.(i) <- Bytes.make page_size '\000';
    Bytes.blit src off t.pages.(i) o n;
    blit_in t src (off + n) (a + n) (len - n)
  end

let rec blit_out t a dst off len =
  if len > 0 then begin
    let i = a lsr page_bits and o = a land page_mask in
    let n = min len (page_size - o) in
    Bytes.blit t.pages.(i) o dst off n;
    blit_out t (a + n) dst (off + n) (len - n)
  end

(* --- kallsyms name index --- *)

(* process-wide lookup counters (machines may live on several domains) *)
let idx_lookups = Atomic.make 0
let idx_hits = Atomic.make 0

type index_stats = {
  lookups : int;
  hits : int;
}

let kallsyms_index_stats () =
  { lookups = Atomic.get idx_lookups; hits = Atomic.get idx_hits }

let index_add tbl syms =
  List.iter
    (fun (s : Klink.Image.syminfo) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (cur @ [ s ]))
    syms

let index_rebuild tbl syms =
  Hashtbl.reset tbl;
  index_add tbl syms

let quantum = 64
let stack_size = 64 * 1024
let stack_guard = 4096

let create ?(mem_size = 0x0200_0000) (img : Klink.Image.t) =
  if img.base + img.size > mem_size - 0x10000 then
    invalid_arg "Machine.create: image does not fit";
  let exit_gadget = mem_size - 0x10 in
  let sentinel = mem_size - 0x20 in
  let t =
    {
      pages = Array.make ((mem_size + page_mask) lsr page_bits) zero_page;
      ic_tag = Array.make icache_size no_pc;
      ic_insn = Array.make icache_size Isa.Hlt;
      ic_len = Bytes.make icache_size '\000';
      ic_pages = Bytes.make ((mem_size + page_mask) lsr page_bits) '\000';
      mem_size;
      img;
      syms = img.kallsyms;
      sym_index =
        (let tbl = Hashtbl.create (List.length img.kallsyms) in
         index_add tbl img.kallsyms;
         tbl);
      priv = [ img.text_range ];
      threads_rev = [];
      next_tid = 1;
      tick_count = 0;
      retired = 0;
      console_buf = Buffer.create 256;
      module_cursor = (img.base + img.size + 0x1_0000 + 0xfff) land lnot 0xfff;
      next_stack_top = mem_size - 0x4000;
      syscall_entry_addr = None;
      shadows = Hashtbl.create 16;
      exit_gadget;
      sentinel;
      call_stack_hi = mem_size - 0x100;
      call_stack_lo = mem_size - 0x3000;
      in_call_function = false;
      write_observer = None;
      inj_alloc = None;
      inj_write = None;
      inj_call = None;
      transition = None;
      safepoint_hook = None;
    }
  in
  blit_in t img.data 0 img.base (Bytes.length img.data);
  let encode_at a insns =
    ignore
      (List.fold_left
         (fun a i ->
           let b = Isa.encode_to_bytes i in
           blit_in t b 0 a (Bytes.length b);
           a + Bytes.length b)
         a insns
        : int)
  in
  (* exit gadget: mov r1, r0; int 1 — lets spawned entries simply return *)
  encode_at exit_gadget [ Isa.Mov_rr (Isa.R1, Isa.R0); Isa.Int 1 ];
  encode_at sentinel [ Isa.Hlt ];
  (match Klink.Image.lookup_global img "syscall_entry" with
   | Some s -> t.syscall_entry_addr <- Some s.addr
   | None -> ());
  t

let image t = t.img
let tick t = t.tick_count
let instructions_retired t = t.retired
let console t = Buffer.contents t.console_buf
let kallsyms t = t.syms

let add_kallsyms t more =
  t.syms <- t.syms @ more;
  index_add t.sym_index more

let remove_kallsyms t pred =
  t.syms <- List.filter (fun s -> not (pred s)) t.syms;
  Hashtbl.filter_map_inplace
    (fun _name entries ->
      match List.filter (fun s -> not (pred s)) entries with
      | [] -> None
      | kept -> Some kept)
    t.sym_index

let lookup_name t name =
  Atomic.incr idx_lookups;
  Trace.count "kallsyms.lookups" 1;
  match Hashtbl.find_opt t.sym_index name with
  | Some entries ->
    Atomic.incr idx_hits;
    Trace.count "kallsyms.hits" 1;
    entries
  | None -> []
let add_privileged_range t r = t.priv <- r :: t.priv

let remove_privileged_range t r =
  let removed = ref false in
  t.priv <-
    List.filter
      (fun x ->
        if (not !removed) && x = r then begin
          removed := true;
          false
        end
        else true)
      t.priv

let set_write_observer t f = t.write_observer <- f
let set_alloc_injector t f = t.inj_alloc <- f
let set_write_injector t f = t.inj_write <- f
let set_call_injector t f = t.inj_call <- f

let clear_injectors t =
  t.inj_alloc <- None;
  t.inj_write <- None;
  t.inj_call <- None
let syscall_entry t = t.syscall_entry_addr

(* --- per-thread transitions --- *)

let threads t = List.rev t.threads_rev

let begin_transition t ~update ~route_migrated dispatch =
  (match t.transition with
   | Some tr ->
     invalid_arg
       (Printf.sprintf
          "Machine.begin_transition: transition for %s already active"
          tr.tr_update)
   | None -> ());
  let tbl = Hashtbl.create (List.length dispatch) in
  List.iter (fun (entry, target) -> Hashtbl.replace tbl entry target) dispatch;
  List.iter (fun th -> th.patch_state <- false) t.threads_rev;
  t.transition <-
    Some { tr_update = update; tr_route_state = route_migrated;
           tr_dispatch = tbl }

let end_transition t =
  if t.transition = None then
    invalid_arg "Machine.end_transition: no active transition";
  t.transition <- None;
  List.iter (fun th -> th.patch_state <- false) t.threads_rev

let transition_update t =
  Option.map (fun tr -> tr.tr_update) t.transition

let set_safepoint_hook t f = t.safepoint_hook <- f

let migrate_thread th = th.patch_state <- true
let thread_migrated (th : thread) = th.patch_state

let notify_safepoint t th sp =
  match t.safepoint_hook with
  | Some f when t.transition <> None -> f th sp
  | _ -> ()

(* the dispatch stub: consulted before decoding — the analogue of an
   ftrace-style handler at the patched entry rewriting the saved ip *)
let dispatch_redirect t th =
  match t.transition with
  | None -> ()
  | Some tr -> (
    match Hashtbl.find_opt tr.tr_dispatch th.pc with
    | Some target when th.patch_state = tr.tr_route_state -> th.pc <- target
    | _ -> ())

let transition_bindings t =
  Option.map
    (fun tr ->
      ( tr.tr_update,
        tr.tr_route_state,
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tr.tr_dispatch []) ))
    t.transition

(* --- memory --- *)

(* an interpreted load, store or fetch out of range faults its thread *)
let check t addr size =
  if addr < 0x1000 || addr + size > t.mem_size then
    raise (Vm_fault (Memory_violation addr))

let out_of_range addr size =
  invalid_arg
    (Printf.sprintf "Machine: %d-byte access at %#x out of range" size addr)

(* a host-side access out of range is the caller's bug *)
let host_check t addr size =
  if addr < 0x1000 || addr + size > t.mem_size then out_of_range addr size

(* every mutation of memory announces (addr, len) here *before* the
   bytes change, so a transaction journal can capture the old contents *)
let observe t addr len =
  match t.write_observer with None -> () | Some f -> f addr len

let read_u8 t a =
  host_check t a 1;
  get_u8 t a

let read_i32 t a =
  host_check t a 4;
  get_i32 t a

let read_bytes t a n =
  host_check t a (max n 1);
  let b = Bytes.create n in
  blit_out t a b 0 n;
  b

let write_u8 t a v =
  host_check t a 1;
  observe t a 1;
  set_u8 t a v

let write_i32 t a v =
  host_check t a 4;
  observe t a 4;
  set_i32 t a v

let write_bytes t a b =
  host_check t a (max (Bytes.length b) 1);
  observe t a (Bytes.length b);
  let b = match t.inj_write with None -> b | Some f -> f a b in
  blit_in t b 0 a (Bytes.length b)

let alloc_module t ~size ~align =
  (match t.inj_alloc with
   | Some f when f ~size ~align ->
     raise (Out_of_memory "injected allocation failure")
   | _ -> ());
  let align = max 1 align in
  let addr = (t.module_cursor + align - 1) / align * align in
  let next = addr + max size 1 in
  if next > t.next_stack_top - (64 * 1024) then
    raise (Out_of_memory "module area exhausted");
  t.module_cursor <- next;
  addr

(* --- threads --- *)

let push_on th t v =
  let sp = Int32.to_int th.regs.(8) - 4 in
  if sp < th.stack_lo then raise (Vm_fault (Memory_violation sp));
  check t sp 4;
  observe t sp 4;
  set_i32 t sp v;
  th.regs.(8) <- Int32.of_int sp

let spawn t ~name ~uid ~entry ~args =
  let stack_hi = t.next_stack_top in
  let stack_lo = stack_hi - stack_size in
  if stack_lo <= t.module_cursor then
    failwith "Machine.spawn: out of stack space";
  t.next_stack_top <- stack_lo - stack_guard;
  let th =
    {
      tid = t.next_tid;
      name;
      regs = Array.make 9 0l;
      pc = entry;
      stack_lo;
      stack_hi;
      state = Runnable;
      uid;
      flag_eq = false;
      flag_lt = false;
      (* a thread born mid-transition has a clean stack: start it on the
         goal side, like livepatch does for fresh tasks *)
      patch_state = t.transition <> None;
    }
  in
  t.next_tid <- t.next_tid + 1;
  th.regs.(8) <- Int32.of_int stack_hi;
  List.iter (fun v -> push_on th t v) (List.rev args);
  push_on th t (Int32.of_int t.exit_gadget);
  t.threads_rev <- th :: t.threads_rev;
  th

(* --- interpreter --- *)

let in_priv t pc = List.exists (fun (lo, hi) -> pc >= lo && pc < hi) t.priv

(* inlined: nearly every instruction reads or writes a register *)
let[@inline] reg th r = th.regs.(Isa.reg_to_int r)
let[@inline] set_reg th r v = th.regs.(Isa.reg_to_int r) <- v

let cond_holds th = function
  | Isa.Eq -> th.flag_eq
  | Isa.Ne -> not th.flag_eq
  | Isa.Lt -> th.flag_lt
  | Isa.Ge -> not th.flag_lt
  | Isa.Gt -> (not th.flag_lt) && not th.flag_eq
  | Isa.Le -> th.flag_lt || th.flag_eq

let set_flags th a b =
  th.flag_eq <- Int32.equal a b;
  th.flag_lt <- Int32.compare a b < 0

let load_i32 t addr =
  check t addr 4;
  get_i32 t addr

let load t width addr =
  match width with
  | Isa.W8 ->
    check t addr 1;
    Int32.of_int (get_u8 t addr)
  | Isa.W16 ->
    check t addr 2;
    Int32.of_int (get_u16 t addr)
  | Isa.W32 -> load_i32 t addr

let store t width addr v =
  match width with
  | Isa.W8 ->
    check t addr 1;
    observe t addr 1;
    set_u8 t addr (Int32.to_int v)
  | Isa.W16 ->
    check t addr 2;
    observe t addr 2;
    set_u16 t addr (Int32.to_int v land 0xffff)
  | Isa.W32 ->
    check t addr 4;
    observe t addr 4;
    set_i32 t addr v

let sext8 v = Int32.shift_right (Int32.shift_left v 24) 24
let sext16 v = Int32.shift_right (Int32.shift_left v 16) 16

let do_int t th code =
  match code with
  | 0 ->
    Buffer.add_char t.console_buf
      (Char.chr (Int32.to_int (reg th Isa.R1) land 0xff));
    `Ok
  | 1 ->
    th.state <- Exited (reg th Isa.R1);
    `Stop
  | 2 -> `Yield
  | 3 ->
    set_reg th Isa.R0 (Int32.of_int t.tick_count);
    `Ok
  | 4 ->
    set_reg th Isa.R0 (Int32.of_int th.uid);
    `Ok
  | 5 ->
    (* privileged: only kernel/module text may change credentials *)
    if not (in_priv t th.pc) then
      raise (Vm_fault (Privilege_violation th.pc));
    th.uid <- Int32.to_int (reg th Isa.R1);
    `Ok
  | 6 ->
    th.state <-
      Sleeping (t.tick_count + max 0 (Int32.to_int (reg th Isa.R1)));
    `Sleep
  | 8 ->
    (* shadow_attach(obj, key, size) -> addr; zero-filled, idempotent *)
    let obj = Int32.to_int (reg th Isa.R1)
    and key = Int32.to_int (reg th Isa.R2)
    and size = Int32.to_int (reg th Isa.R3) in
    let addr =
      match Hashtbl.find_opt t.shadows (obj, key) with
      | Some a -> a
      | None ->
        let a = alloc_module t ~size:(max 4 size) ~align:4 in
        Hashtbl.replace t.shadows (obj, key) a;
        a
    in
    set_reg th Isa.R0 (Int32.of_int addr);
    `Ok
  | 9 ->
    let obj = Int32.to_int (reg th Isa.R1)
    and key = Int32.to_int (reg th Isa.R2) in
    set_reg th Isa.R0
      (Int32.of_int
         (Option.value ~default:0 (Hashtbl.find_opt t.shadows (obj, key))));
    `Ok
  | 10 ->
    let obj = Int32.to_int (reg th Isa.R1)
    and key = Int32.to_int (reg th Isa.R2) in
    Hashtbl.remove t.shadows (obj, key);
    `Ok
  | 0x80 -> (
    match t.syscall_entry_addr with
    | None -> raise (Vm_fault No_syscall_entry)
    | Some entry ->
      (* the syscall boundary is a migration safe point: the thread is in
         user code, about to enter the kernel fresh *)
      notify_safepoint t th Sp_syscall;
      (* behaves like a call: push the return address, enter the kernel *)
      let next = th.pc + Isa.length (Isa.Int 0x80) in
      push_on th t (Int32.of_int next);
      th.pc <- entry;
      `Jumped)
  | _ -> raise (Vm_fault (Illegal_instruction th.pc))

(* A miss: decode as a fetch always has, faulting at the first byte out
   of range or on bytes that form no instruction, and keep the decode. *)
let icache_fill t pc slot =
  let insn, len =
    try Isa.decode (fun a -> check t a 1; get_u8 t a) pc
    with Isa.Decode_error _ -> raise (Vm_fault (Illegal_instruction pc))
  in
  Array.unsafe_set t.ic_tag slot pc;
  Array.unsafe_set t.ic_insn slot insn;
  Bytes.unsafe_set t.ic_len slot (Char.unsafe_chr len);
  Bytes.unsafe_set t.ic_pages (pc lsr page_bits) '\001'

let jump_rel th next disp = th.pc <- next + disp

let alu th f a b next =
  set_reg th a (f (reg th a) (reg th b));
  th.pc <- next;
  `Ok

let shift_amount v = Int32.to_int v land 31
let shl x y = Int32.shift_left x (shift_amount y)
let shr x y = Int32.shift_right_logical x (shift_amount y)
let sar x y = Int32.shift_right x (shift_amount y)

(* Execute [insn], fetched at [pc] and ending at [next]. *)
let exec t th pc next insn =
  match insn with
  | Isa.Hlt ->
    th.state <- Exited 0l;
    `Stop
  | Isa.Nop _ ->
    th.pc <- next;
    `Ok
  | Isa.Mov_rr (a, b) ->
    set_reg th a (reg th b);
    th.pc <- next;
    `Ok
  | Isa.Mov_ri (a, v) ->
    set_reg th a v;
    th.pc <- next;
    `Ok
  | Isa.Load (w, rd, rb, off) ->
    set_reg th rd (load t w (Int32.to_int (reg th rb) + off));
    th.pc <- next;
    `Ok
  | Isa.Store (w, rb, off, rs) ->
    store t w (Int32.to_int (reg th rb) + off) (reg th rs);
    th.pc <- next;
    `Ok
  | Isa.Load_abs (w, rd, a) ->
    set_reg th rd (load t w (Int32.to_int a));
    th.pc <- next;
    `Ok
  | Isa.Store_abs (w, a, rs) ->
    store t w (Int32.to_int a) (reg th rs);
    th.pc <- next;
    `Ok
  | Isa.Add (a, b) -> alu th Int32.add a b next
  | Isa.Sub (a, b) -> alu th Int32.sub a b next
  | Isa.Mul (a, b) -> alu th Int32.mul a b next
  | Isa.Div (a, b) ->
    if Int32.equal (reg th b) 0l then raise (Vm_fault (Divide_by_zero pc));
    alu th Int32.div a b next
  | Isa.Mod (a, b) ->
    if Int32.equal (reg th b) 0l then raise (Vm_fault (Divide_by_zero pc));
    alu th Int32.rem a b next
  | Isa.And (a, b) -> alu th Int32.logand a b next
  | Isa.Or (a, b) -> alu th Int32.logor a b next
  | Isa.Xor (a, b) -> alu th Int32.logxor a b next
  | Isa.Shl (a, b) -> alu th shl a b next
  | Isa.Shr (a, b) -> alu th shr a b next
  | Isa.Sar (a, b) -> alu th sar a b next
  | Isa.Addi (a, v) ->
    set_reg th a (Int32.add (reg th a) v);
    th.pc <- next;
    `Ok
  | Isa.Cmp (a, b) ->
    set_flags th (reg th a) (reg th b);
    th.pc <- next;
    `Ok
  | Isa.Cmpi (a, v) ->
    set_flags th (reg th a) v;
    th.pc <- next;
    `Ok
  | Isa.Neg a ->
    set_reg th a (Int32.neg (reg th a));
    th.pc <- next;
    `Ok
  | Isa.Not a ->
    set_reg th a (Int32.lognot (reg th a));
    th.pc <- next;
    `Ok
  | Isa.Setcc (c, a) ->
    set_reg th a (if cond_holds th c then 1l else 0l);
    th.pc <- next;
    `Ok
  | Isa.Jmp d ->
    jump_rel th next (Int32.to_int d);
    `Ok
  | Isa.Jmp_s d ->
    jump_rel th next d;
    `Ok
  | Isa.Jcc (c, d) ->
    if cond_holds th c then jump_rel th next (Int32.to_int d)
    else th.pc <- next;
    `Ok
  | Isa.Jcc_s (c, d) ->
    if cond_holds th c then jump_rel th next d else th.pc <- next;
    `Ok
  | Isa.Call d ->
    push_on th t (Int32.of_int next);
    jump_rel th next (Int32.to_int d);
    `Ok
  | Isa.Call_r r ->
    push_on th t (Int32.of_int next);
    th.pc <- Int32.to_int (reg th r);
    `Ok
  | Isa.Ret ->
    let sp = Int32.to_int th.regs.(8) in
    th.pc <- Int32.to_int (load_i32 t sp);
    th.regs.(8) <- Int32.of_int (sp + 4);
    `Ok
  | Isa.Push r ->
    push_on th t (reg th r);
    th.pc <- next;
    `Ok
  | Isa.Pop r ->
    let sp = Int32.to_int th.regs.(8) in
    set_reg th r (load_i32 t sp);
    th.regs.(8) <- Int32.of_int (sp + 4);
    th.pc <- next;
    `Ok
  | Isa.Sext8 r ->
    set_reg th r (sext8 (reg th r));
    th.pc <- next;
    `Ok
  | Isa.Sext16 r ->
    set_reg th r (sext16 (reg th r));
    th.pc <- next;
    `Ok
  | Isa.Zext8 r ->
    set_reg th r (Int32.logand (reg th r) 0xffl);
    th.pc <- next;
    `Ok
  | Isa.Zext16 r ->
    set_reg th r (Int32.logand (reg th r) 0xffffl);
    th.pc <- next;
    `Ok
  | Isa.Int code -> (
    match do_int t th code with
    | `Ok ->
      th.pc <- next;
      `Ok
    | `Yield ->
      th.pc <- next;
      `Yield
    | `Sleep ->
      (* resume after the sleep instruction, not at it *)
      th.pc <- next;
      `Stop
    | `Jumped -> `Ok
    | `Stop -> `Stop)

(* Execute one instruction. Returns [`Ok | `Yield | `Stop]. A fetch that
   hits the instruction cache allocates nothing. *)
let step t th =
  dispatch_redirect t th;
  let pc = th.pc in
  let slot = pc land icache_mask in
  if Array.unsafe_get t.ic_tag slot <> pc then icache_fill t pc slot;
  exec t th pc
    (pc + Char.code (Bytes.unsafe_get t.ic_len slot))
    (Array.unsafe_get t.ic_insn slot)

let step_catching t th =
  try step t th
  with Vm_fault f ->
    th.state <- Faulted f;
    `Stop

(* Run [th] for up to [n] instructions; returns instructions executed. *)
let run_thread t th n =
  let executed = ref 0 in
  let continue = ref true in
  while !continue && !executed < n do
    (match step_catching t th with
     | `Ok -> ()
     | `Yield | `Stop -> continue := false);
    incr executed;
    t.tick_count <- t.tick_count + 1;
    t.retired <- t.retired + 1
  done;
  !executed

let is_runnable th = match th.state with Runnable -> true | _ -> false

let wake_sleepers t ths =
  List.iter
    (fun th ->
      match th.state with
      | Sleeping until when t.tick_count >= until -> th.state <- Runnable
      | _ -> ())
    ths

(* a round visits threads in spawn order; waking sleepers spawns nothing,
   so the thread list is built once per round *)
let run t ~steps =
  let executed = ref 0 in
  let progress = ref true in
  while !executed < steps && !progress do
    let ths = threads t in
    wake_sleepers t ths;
    match List.filter is_runnable ths with
    | [] -> (
      (* advance time to the next wake-up, if any thread sleeps *)
      let next_wake =
        List.filter_map
          (fun th -> match th.state with Sleeping u -> Some u | _ -> None)
          ths
      in
      match next_wake with
      | [] -> progress := false
      | l ->
        t.tick_count <- max t.tick_count (List.fold_left min max_int l))
    | runnable ->
      List.iter
        (fun th ->
          if is_runnable th && !executed < steps then begin
            executed :=
              !executed + run_thread t th (min quantum (steps - !executed));
            (* the end of a scheduler quantum is a migration safe point *)
            notify_safepoint t th Sp_quantum
          end)
        runnable
  done;
  !executed

let call_function ?(step_limit = 2_000_000) ?(uid = 0) t ~addr ~args =
  if t.in_call_function then
    invalid_arg "Machine.call_function: reentrant call";
  t.in_call_function <- true;
  Fun.protect
    ~finally:(fun () -> t.in_call_function <- false)
    (fun () ->
      match
        match t.inj_call with Some f -> f addr | None -> None
      with
      | Some injected -> Error injected
      | None ->
      let th =
        {
          tid = 0;
          name = "<call>";
          regs = Array.make 9 0l;
          pc = addr;
          stack_lo = t.call_stack_lo;
          stack_hi = t.call_stack_hi;
          state = Runnable;
          uid;
          flag_eq = false;
          flag_lt = false;
          (* host-initiated calls run on the goal side of any active
             transition (their stack is fresh) *)
          patch_state = true;
        }
      in
      th.regs.(8) <- Int32.of_int t.call_stack_hi;
      List.iter (fun v -> push_on th t v) (List.rev args);
      push_on th t (Int32.of_int t.sentinel);
      let steps = ref 0 in
      let result = ref None in
      while Option.is_none !result do
        if th.pc = t.sentinel then result := Some (Ok th.regs.(0))
        else if !steps >= step_limit then result := Some (Error Step_limit)
        else begin
          (match step_catching t th with
           | `Ok | `Yield -> ()
           | `Stop -> (
             match th.state with
             | Faulted f -> result := Some (Error f)
             | Exited v -> result := Some (Ok v)
             | _ -> result := Some (Ok th.regs.(0))));
          incr steps;
          t.retired <- t.retired + 1
        end
      done;
      Option.get !result)

let backtrace t th =
  let resolve addr =
    let best = ref None in
    List.iter
      (fun (s : Klink.Image.syminfo) ->
        if s.kind = `Func && addr >= s.addr && addr < s.addr + max 1 s.size
        then
          match !best with
          | Some (b : Klink.Image.syminfo) when b.addr >= s.addr -> ()
          | _ -> best := Some s)
      t.syms;
    Option.map
      (fun (s : Klink.Image.syminfo) ->
        Printf.sprintf "%s+0x%x" s.name (addr - s.addr))
      !best
  in
  let frames = ref [] in
  (match resolve th.pc with
   | Some f -> frames := f :: !frames
   | None -> frames := Printf.sprintf "0x%x" th.pc :: !frames);
  let sp = Int32.to_int th.regs.(8) in
  let a = ref sp in
  while !a + 4 <= th.stack_hi do
    (match resolve (Int32.to_int (read_i32 t !a)) with
     | Some f -> frames := f :: !frames
     | None -> ());
    a := !a + 4
  done;
  List.rev !frames

(* Model of the paper's stop_machine cost (§5.2: "about 0.7 milliseconds"):
   a fixed rendezvous cost plus a per-CPU synchronisation term. We treat
   each live thread as occupying a CPU. *)
let stop_machine t f =
  let live =
    List.length
      (List.filter
         (fun th -> match th.state with Runnable | Sleeping _ -> true | _ -> false)
         (threads t))
  in
  let pause_ns = 500_000 + (50_000 * live) in
  let r = f () in
  (r, pause_ns)

(* --- shadow variables: host view of the per-object side table ---

   The same (object address, key) -> shadow address table the kernel
   reaches through INT 8/9/10 (__shadow_attach / __shadow_get /
   __shadow_detach), exposed to host code so shadow constructors and
   destructors driven from the patching machinery observe exactly what
   patched kernel code observes. The table is volatile state: a rolled-
   back transaction unwinds attachments and detachments alike. *)

let shadow_attach t ~obj ~key ~size =
  match Hashtbl.find_opt t.shadows (obj, key) with
  | Some a -> a
  | None ->
    let a = alloc_module t ~size:(max 4 size) ~align:4 in
    Hashtbl.replace t.shadows (obj, key) a;
    a

let shadow_count t = Hashtbl.length t.shadows

(* rebind to an existing allocation: undoing a cumulative update revives
   the displaced updates' side tables exactly as the collapse found them
   (their shadow memory was never journal-replayed away) *)
let shadow_reattach t ~obj ~key ~addr = Hashtbl.replace t.shadows (obj, key) addr

(* --- transactional state capture --- *)

type thread_snap = {
  ts_thread : thread;
  ts_pc : int;
  ts_regs : int32 array;
  ts_state : thread_state;
  ts_uid : int;
  ts_eq : bool;
  ts_lt : bool;
  ts_patch : bool;
}

type volatile_state = {
  v_syms : Klink.Image.syminfo list;
  v_priv : (int * int) list;
  v_threads : thread_snap list;
  v_threads_rev : thread list;
  v_next_tid : int;
  v_tick : int;
  v_console_len : int;
  v_module_cursor : int;
  v_next_stack_top : int;
  v_syscall : int option;
  v_shadows : (int * int, int) Hashtbl.t;
  (* a rolled-back transaction must also unwind a mid-flight transition *)
  v_transition : (string * bool * (int * int) list) option;
}

let save_volatile t =
  {
    v_syms = t.syms;
    v_priv = t.priv;
    v_threads =
      List.map
        (fun th ->
          { ts_thread = th; ts_pc = th.pc; ts_regs = Array.copy th.regs;
            ts_state = th.state; ts_uid = th.uid; ts_eq = th.flag_eq;
            ts_lt = th.flag_lt; ts_patch = th.patch_state })
        t.threads_rev;
    v_threads_rev = t.threads_rev;
    v_next_tid = t.next_tid;
    v_tick = t.tick_count;
    v_console_len = Buffer.length t.console_buf;
    v_module_cursor = t.module_cursor;
    v_next_stack_top = t.next_stack_top;
    v_syscall = t.syscall_entry_addr;
    v_shadows = Hashtbl.copy t.shadows;
    v_transition = transition_bindings t;
  }

let restore_volatile t v =
  t.syms <- v.v_syms;
  index_rebuild t.sym_index v.v_syms;
  t.priv <- v.v_priv;
  List.iter
    (fun s ->
      let th = s.ts_thread in
      th.pc <- s.ts_pc;
      Array.blit s.ts_regs 0 th.regs 0 (Array.length th.regs);
      th.state <- s.ts_state;
      th.uid <- s.ts_uid;
      th.flag_eq <- s.ts_eq;
      th.flag_lt <- s.ts_lt;
      th.patch_state <- s.ts_patch)
    v.v_threads;
  t.threads_rev <- v.v_threads_rev;
  t.next_tid <- v.v_next_tid;
  t.tick_count <- v.v_tick;
  if Buffer.length t.console_buf > v.v_console_len then begin
    let kept = Buffer.sub t.console_buf 0 v.v_console_len in
    Buffer.clear t.console_buf;
    Buffer.add_string t.console_buf kept
  end;
  t.module_cursor <- v.v_module_cursor;
  t.next_stack_top <- v.v_next_stack_top;
  t.syscall_entry_addr <- v.v_syscall;
  Hashtbl.reset t.shadows;
  Hashtbl.iter (fun k x -> Hashtbl.replace t.shadows k x) v.v_shadows;
  t.transition <-
    Option.map
      (fun (update, route, bindings) ->
        let tbl = Hashtbl.create (List.length bindings) in
        List.iter (fun (e, tg) -> Hashtbl.replace tbl e tg) bindings;
        { tr_update = update; tr_route_state = route; tr_dispatch = tbl })
      v.v_transition

(* --- byte-identity snapshots (rollback verification) --- *)

type snapshot = {
  s_pages : Bytes.t array;  (* untouched pages stay [zero_page] *)
  s_syms : Klink.Image.syminfo list;
  s_priv : (int * int) list;
  s_threads :
    (int * string * int * int32 array * thread_state * int * bool * bool
     * bool)
    list;
  s_tick : int;
  s_console : string;
  s_shadows : ((int * int) * int) list;
  s_transition : (string * bool * (int * int) list) option;
}

let thread_tuples t =
  List.map
    (fun th ->
      (th.tid, th.name, th.pc, Array.copy th.regs, th.state, th.uid,
       th.flag_eq, th.flag_lt, th.patch_state))
    (threads t)

let shadow_bindings t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.shadows [])

let snapshot t =
  {
    s_pages =
      Array.map (fun p -> if p == zero_page then p else Bytes.copy p) t.pages;
    s_syms = t.syms;
    s_priv = t.priv;
    s_threads = thread_tuples t;
    s_tick = t.tick_count;
    s_console = Buffer.contents t.console_buf;
    s_shadows = shadow_bindings t;
    s_transition = transition_bindings t;
  }

let diff_snapshot t s =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  (* page by page in address order; a page still shared by both sides
     (the zero page) cannot differ *)
  let shown = ref 0 in
  Array.iteri
    (fun pg now ->
      let was = s.s_pages.(pg) in
      if !shown < 4 && now != was && not (Bytes.equal now was) then begin
        let o = ref 0 in
        while !o < page_size && !shown < 4 do
          if Bytes.get now !o <> Bytes.get was !o then begin
            add "memory differs at %#x: now %#x, snapshot %#x"
              ((pg lsl page_bits) + !o)
              (Bytes.get_uint8 now !o) (Bytes.get_uint8 was !o);
            incr shown;
            (* jump past this word to avoid flooding the report *)
            o := ((!o / 16) + 1) * 16
          end
          else incr o
        done
      end)
    t.pages;
  if List.sort compare t.syms <> List.sort compare s.s_syms then
    add "kallsyms differ: %d entries now, %d in snapshot"
      (List.length t.syms) (List.length s.s_syms);
  if List.sort compare t.priv <> List.sort compare s.s_priv then
    add "privileged ranges differ: %d now, %d in snapshot"
      (List.length t.priv) (List.length s.s_priv);
  let now_threads = thread_tuples t in
  if List.length now_threads <> List.length s.s_threads then
    add "thread count differs: %d now, %d in snapshot"
      (List.length now_threads) (List.length s.s_threads)
  else
    List.iter2
      (fun (tid, name, pc, regs, state, uid, eq, lt, patch)
           (tid', _, pc', regs', state', uid', eq', lt', patch') ->
        if
          tid <> tid' || pc <> pc' || regs <> regs' || state <> state'
          || uid <> uid' || eq <> eq' || lt <> lt' || patch <> patch'
        then add "thread %d (%s) state differs from snapshot" tid name)
      now_threads s.s_threads;
  if t.tick_count <> s.s_tick then
    add "tick differs: %d now, %d in snapshot" t.tick_count s.s_tick;
  if not (String.equal (Buffer.contents t.console_buf) s.s_console) then
    add "console output differs";
  if shadow_bindings t <> s.s_shadows then add "shadow bindings differ";
  if transition_bindings t <> s.s_transition then
    add "active transition differs from snapshot";
  List.rev !out
