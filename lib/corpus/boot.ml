module Machine = Kernel.Machine
module Image = Klink.Image

type booted = {
  build : Kbuild.build;
  image : Image.t;
  machine : Machine.t;
}

let secret = 0x5EC2E7l

let call_if_present b name args =
  match Image.lookup_global b.image name with
  | None -> ()
  | Some s -> (
    match Machine.call_function b.machine ~addr:s.addr ~args with
    | Ok _ -> ()
    | Error f ->
      failwith
        (Format.asprintf "boot: %s faulted: %a" name Machine.pp_fault f))

let boot ?(workers = 0) ?tree () =
  let tree = match tree with Some t -> t | None -> Base_kernel.tree () in
  let build = Kbuild.build_tree_exn ~options:Minic.Driver.run_build tree in
  let image = Image.link_exn ~base:0x100000 (Kbuild.objects build) in
  let machine = Machine.create image in
  let b = { build; image; machine } in
  List.iter (fun f -> call_if_present b f []) Base_kernel.init_functions;
  (* seed the task table: pid 1 is root, pids 2-3 are users *)
  call_if_present b "task_init" [ 1l; 0l ];
  call_if_present b "task_init" [ 2l; 1000l ];
  call_if_present b "task_init" [ 3l; 1001l ];
  (match Image.lookup_global image "worker_loop" with
   | Some s ->
     for i = 1 to workers do
       ignore
         (Machine.spawn machine
            ~name:(Printf.sprintf "kworker/%d" i)
            ~uid:0 ~entry:s.addr ~args:[])
     done;
     if workers > 0 then ignore (Machine.run machine ~steps:200 : int)
   | None -> ());
  b

let syscall b ~uid nr args =
  match Machine.syscall_entry b.machine with
  | None -> Error Machine.No_syscall_entry
  | Some entry ->
    (* the entry expects nr in r0 and args in r1..r3, not the stack args
       call_function pushes, so a dedicated thread starts at the entry
       with its registers staged — equivalent to INT 0x80 from user
       space; the entry path itself validates nr *)
    let m = b.machine in
    let th = Machine.spawn m ~name:"syscall-probe" ~uid ~entry ~args:[] in
    th.regs.(0) <- Int32.of_int nr;
    List.iteri (fun i v -> if i < 3 then th.regs.(i + 1) <- v) args;
    let fuel = ref 200 in
    let result = ref None in
    while Option.is_none !result && !fuel > 0 do
      decr fuel;
      ignore (Machine.run m ~steps:5000 : int);
      match th.state with
      | Machine.Exited v -> result := Some (Ok v)
      | Machine.Faulted f -> result := Some (Error f)
      | _ -> ()
    done;
    (match !result with
     | Some r -> r
     | None -> Error Machine.Step_limit)

type global_error =
  | No_such_symbol of string
  | Ambiguous_symbol of { name : string; candidates : (string * int) list }

let pp_global_error ppf = function
  | No_such_symbol n -> Format.fprintf ppf "no symbol %s" n
  | Ambiguous_symbol { name; candidates } ->
    Format.fprintf ppf "ambiguous symbol %s: %s" name
      (String.concat ", "
         (List.map
            (fun (u, addr) -> Printf.sprintf "%s@%#x" u addr)
            candidates))

let find_global b name =
  match
    List.filter
      (fun (s : Image.syminfo) -> String.equal s.name name)
      (Machine.kallsyms b.machine)
  with
  | [ s ] -> Ok s
  | [] -> Error (No_such_symbol name)
  | many -> (
    (* several kallsyms entries share the name (e.g. a loaded update's
       module publishing a local of the same name): a unique GLOBAL
       binding wins; only genuine ties are ambiguous *)
    match
      List.filter
        (fun (s : Image.syminfo) -> s.binding = Objfile.Symbol.Global)
        many
    with
    | [ s ] -> Ok s
    | _ ->
      Error
        (Ambiguous_symbol
           { name;
             candidates =
               List.map
                 (fun (s : Image.syminfo) -> (s.unit_name, s.addr))
                 many }))

let read_global_result b name =
  Result.map (fun (s : Image.syminfo) -> Machine.read_i32 b.machine s.addr)
    (find_global b name)

let read_global b name =
  match read_global_result b name with
  | Ok v -> v
  | Error e ->
    failwith (Format.asprintf "read_global: %a" pp_global_error e)
