(* Tests for the domain pool and the perf machinery riding on it:
   map/List.map equivalence, deterministic error propagation, nested
   maps, parallel-vs-sequential build and update-creation determinism,
   the bounded compile cache, and the incremental kallsyms name index. *)

module Tree = Patchfmt.Source_tree
module Image = Klink.Image
module Machine = Kernel.Machine

let t name f = Alcotest.test_case name `Quick f
let q = QCheck_alcotest.to_alcotest

(* --- map semantics --- *)

let test_map_matches_list_map () =
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i) in
      let f x = (x * 7) mod 13 in
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d" n)
        (List.map f xs)
        (Parallel.map ~domains:4 f xs))
    [ 0; 1; 2; 3; 17; 100; 1000 ]

let prop_map_equiv =
  QCheck2.Test.make ~name:"Parallel.map == List.map" ~count:100
    QCheck2.Gen.(pair (int_range 1 6) (list small_int))
    (fun (d, xs) ->
      Parallel.map ~domains:d (fun x -> (x * x) + 1) xs
      = List.map (fun x -> (x * x) + 1) xs)

exception Boom of int

let test_error_smallest_index () =
  (* several indices fail; whichever chunk a worker runs first, the
     caller must always see the smallest failing index *)
  let xs = List.init 64 (fun i -> i) in
  match
    Parallel.map ~domains:4 ~chunk:1
      (fun i -> if i >= 3 then raise (Boom i) else i)
      xs
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "smallest failing index" 3 i

let test_nested_map () =
  (* map inside map: waiting batches help drain the queue, so the fixed
     pool cannot deadlock on nesting *)
  let outer = List.init 8 (fun i -> i) in
  let expect = List.map (fun i -> List.init 8 (fun j -> (i * 8) + j)) outer in
  Alcotest.(check (list (list int)))
    "nested" expect
    (Parallel.map ~domains:2
       (fun i ->
         Parallel.map ~domains:2
           (fun j -> (i * 8) + j)
           (List.init 8 (fun j -> j)))
       outer)

(* --- parallel build determinism --- *)

let big_tree =
  Tree.of_list
    (List.init 24 (fun i ->
         ( Printf.sprintf "kernel/u%02d.c" i,
           Printf.sprintf
             "int v%d = %d;\n\
              int f%d(int p) {\n\
             \  int a = p + v%d;\n\
             \  int j;\n\
             \  for (j = 0; j < %d; j = j + 1)\n\
             \    a = a + j;\n\
             \  return a;\n\
              }\n"
             i i i i (i + 2) )))

let test_parallel_build_identical () =
  let outcome ~domains =
    Kbuild.reset_cache ();
    let b =
      Kbuild.build_tree_exn ~domains ~options:Minic.Driver.pre_build big_tree
    in
    ( List.map
        (fun o -> Bytes.to_string (Objfile.to_bytes o))
        (Kbuild.objects b),
      Kbuild.inlined_callees b )
  in
  let seq = outcome ~domains:1 in
  let par = outcome ~domains:4 in
  Kbuild.reset_cache ();
  Alcotest.(check bool)
    "byte-identical objects and inline decisions" true (seq = par)

let test_cache_lru_bound () =
  let saved = (Kbuild.cache_stats ()).capacity in
  Kbuild.reset_cache ();
  Kbuild.set_cache_capacity 8;
  for i = 0 to 19 do
    let tree =
      Tree.of_list
        [
          ( Printf.sprintf "c%02d.c" i,
            Printf.sprintf "int g%d = %d;\nint h%d() { return g%d; }\n" i i i i
          );
        ]
    in
    ignore (Kbuild.build_tree_exn ~options:Minic.Driver.run_build tree : Kbuild.build)
  done;
  let s = Kbuild.cache_stats () in
  Kbuild.set_cache_capacity saved;
  Kbuild.reset_cache ();
  Alcotest.(check bool) "entries bounded by capacity" true (s.entries <= 8);
  Alcotest.(check bool) "evictions counted" true (s.evictions > 0)

(* --- update creation: serial vs domain-parallel --- *)

let test_creation_serial_equals_parallel () =
  let base = Corpus.Base_kernel.tree () in
  let cves = List.filteri (fun i _ -> i < 8) Corpus.Cve.all in
  let encoded ~domains (cve : Corpus.Cve.t) =
    match
      Ksplice.Create.create ~domains
        { source = base; patch = Corpus.Cve.hot_patch cve base;
          update_id = cve.id; description = cve.desc }
    with
    | Ok c -> Bytes.to_string (Ksplice.Update.to_bytes c.update)
    | Error e -> Alcotest.failf "%s: %a" cve.id Ksplice.Create.pp_error e
  in
  Kbuild.reset_cache ();
  let serial = List.map (encoded ~domains:1) cves in
  Kbuild.reset_cache ();
  let parallel = Parallel.map ~domains:2 (encoded ~domains:2) cves in
  Kbuild.reset_cache ();
  List.iter2
    (fun (cve : Corpus.Cve.t) (s, p) ->
      Alcotest.(check bool) (cve.id ^ " update bytes identical") true (s = p))
    cves
    (List.combine serial parallel)

(* --- kallsyms name index --- *)

let tiny_machine () =
  let tree =
    Tree.of_list
      [ ("kernel/t.c", "int tv = 1;\nint tf(int p) { return p + tv; }\n") ]
  in
  let b = Kbuild.build_tree_exn ~options:Minic.Driver.run_build tree in
  Machine.create (Image.link_exn ~base:0x100000 (Kbuild.objects b))

let mk_sym name addr : Image.syminfo =
  {
    name;
    addr;
    size = 4;
    binding = Objfile.Symbol.Global;
    kind = `Func;
    unit_name = "q.c";
  }

let prop_index_agrees =
  (* after a random interleaving of add_kallsyms/remove_kallsyms, the
     index answers exactly like a fresh linear scan, in kallsyms order *)
  QCheck2.Test.make ~name:"kallsyms index == linear scan" ~count:60
    QCheck2.Gen.(list (pair (int_range 0 5) bool))
    (fun ops ->
      let m = tiny_machine () in
      let name i = Printf.sprintf "qsym_%d" i in
      List.iteri
        (fun step (i, add) ->
          if add then
            Machine.add_kallsyms m [ mk_sym (name i) (0x400000 + (step * 16)) ]
          else Machine.remove_kallsyms m (fun s -> s.Image.name = name i))
        ops;
      let agree n =
        Machine.lookup_name m n
        = List.filter
            (fun (s : Image.syminfo) -> s.name = n)
            (Machine.kallsyms m)
      in
      List.for_all agree (List.init 6 (fun i -> name i))
      && agree "tf" && agree "no_such_symbol")

let suite =
  [
    ( "parallel",
      [
        t "map matches List.map" test_map_matches_list_map;
        q prop_map_equiv;
        t "error at smallest index" test_error_smallest_index;
        t "nested map" test_nested_map;
        t "parallel build identical to sequential" test_parallel_build_identical;
        t "compile cache LRU bound" test_cache_lru_bound;
        t "serial creation equals parallel creation"
          test_creation_serial_equals_parallel;
        q prop_index_agrees;
      ] );
  ]
