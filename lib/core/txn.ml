module Machine = Kernel.Machine

type step =
  | Allocate
  | Link
  | Relocate
  | Hook_pre
  | Capture
  | Transition
  | Quiesce
  | Trampoline
  | Commit

let all_steps =
  [ Allocate; Link; Relocate; Hook_pre; Capture; Transition; Quiesce;
    Trampoline; Commit ]

let step_name = function
  | Allocate -> "allocate"
  | Link -> "link"
  | Relocate -> "relocate"
  | Hook_pre -> "hook-pre"
  | Capture -> "capture"
  | Transition -> "transition"
  | Quiesce -> "quiesce"
  | Trampoline -> "trampoline"
  | Commit -> "commit"

type tag = Mech | Hook | Sched

type entry = {
  e_addr : int;
  e_old : Bytes.t;
  e_tag : tag;
}

type journal = entry list (* most recent write first *)

let journal_entries (j : journal) = List.length j
let journal_writes (j : journal) = List.map (fun e -> (e.e_addr, e.e_old)) j

let replay (j : journal) m =
  List.iter (fun e -> Machine.write_bytes m e.e_addr e.e_old) j

type state = Open | Closed

type t = {
  m : Machine.t;
  vol : Machine.volatile_state;
  mutable entries : entry list;  (* most recent first *)
  mutable cur_step : step option;
  mutable cur_tag : tag;
  mutable state : state;
}

let begin_ m =
  let t =
    { m; vol = Machine.save_volatile m; entries = []; cur_step = None;
      cur_tag = Mech; state = Open }
  in
  Machine.set_write_observer m
    (Some
       (fun addr len ->
         t.entries <-
           { e_addr = addr; e_old = Machine.read_bytes m addr len;
             e_tag = t.cur_tag }
           :: t.entries));
  t

let enter t s = t.cur_step <- Some s
let current t = t.cur_step

let with_tag t tag f =
  let prev = t.cur_tag in
  t.cur_tag <- tag;
  Fun.protect ~finally:(fun () -> t.cur_tag <- prev) f

let close t =
  if t.state = Closed then invalid_arg "Txn: transaction already closed";
  t.state <- Closed;
  Machine.set_write_observer t.m None

let rollback t =
  close t;
  (* a transaction aborts with whatever injectors provoked the abort
     still armed; restoration must not run through them *)
  Machine.clear_injectors t.m;
  List.iter (fun e -> Machine.write_bytes t.m e.e_addr e.e_old) t.entries;
  Machine.restore_volatile t.m t.vol;
  t.entries <- []

let commit t =
  close t;
  List.filter (fun e -> e.e_tag = Mech) t.entries

let discard t = close t
