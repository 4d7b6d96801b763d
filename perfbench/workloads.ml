(* The four closed-loop workloads. Each drives the real pipeline through
   the public functions of its layers, one op after another, and checks
   every op's results; each also carries a sabotaged input (its negative
   control) that the same op must count as failed.

   Every layer call sits in a span named "<layer>.<call>" (a no-op unless
   the run is traced); tallies named "sim.*" are simulated quantities
   (VM instructions, simulated pause), never host time. *)

module Apply = Ksplice.Apply
module Create = Ksplice.Create
module Update = Ksplice.Update
module Repo = Ksplice.Repository
module Machine = Kernel.Machine
module Section = Objfile.Section
module Tree = Patchfmt.Source_tree
module Cve = Corpus.Cve
module Boot = Corpus.Boot
module Transition = Manager.Transition
module Subscriber = Fleet.Subscriber
module Server = Fleet.Server
module Transport = Fleet.Transport
module Wire = Fleet.Wire

type t = {
  pass : int;  (** distinct ops; one pass runs each of them once *)
  op : int -> (unit, string) result;  (** the [i]-th timed op *)
  upkeep : int -> after_failure:bool -> unit;
      (** untimed work due before op [i]; [after_failure] when op [i - 1]
          failed, and may have left its machine half updated *)
  controls : (string * (unit -> bool)) list;
      (** sabotaged inputs: [true] when the op counted it as failed for
          the sabotaged reason *)
  picks : (string * string list) list;  (** what the seed chose *)
}

(* one value for every [?domains] argument, and for the library default
   the calls without one (Boot) fall back to. One domain: on a 2-vCPU VM
   under host contention, two made release-matrix 1.6x slower and twice
   as spread between runs, and no faster when the host was quiet. *)
let domains = 1

let () = Unix.putenv "KSPLICE_DOMAINS" (string_of_int domains)

(* the stress load every lifecycle op runs on the patched kernel *)
let stress_threads = 4
let stress_iterations = 25

(* Boot.boot spawns these kernel workers; they keep worker_loop busy, so
   quiescence is a real check *)
let workers = 2

(* Apply never reclaims module memory, so the long-lived machines are
   replaced, between ops, this far below exhaustion (about 60k churn
   cycles; see apply.cycles_to_module_oom) *)
let churn_replace_passes = 50
let fleet_replace_ops = 100
let chain_depth = 8
let fleet_orders = 8

let ( let* ) = Result.bind
let span = Trace.with_span
let check ok msg = if ok then Ok () else Error msg

(* [f] on each of [l] in turn, up to the first error *)
let all f l = List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) l

let apply_err what e = Format.asprintf "%s: %a" what Apply.pp_error e

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Pass [p] runs the [n] distinct ops in an order of its own, drawn from
   the seed, so no op always follows the same neighbour (and inherits the
   same garbage-collector debt). *)
let seeded_passes ~seed n =
  let cached = ref (-1, [||]) in
  fun i ->
    let p = i / n in
    if fst !cached <> p then
      cached := (p, shuffle (Random.State.make [| seed; p |]) (List.init n Fun.id));
    (snd !cached).(i mod n)

(* what the first pass runs, in order, for the record *)
let first_pass key names = List.init (Array.length names) (fun i -> names.(key i))

let build_exn ~options tree =
  match Kbuild.build_tree ~domains ~options tree with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "setup build: %a" Kbuild.pp_error e)

(* Create.create, tallying what the update ships *)
let create ~store ~source ~patch (cve : Cve.t) =
  let skipped0 = Create.skipped_units () in
  match
    span "create.create" (fun () ->
        Create.create ~domains ~store
          { source; patch; update_id = cve.id; description = cve.desc })
  with
  | Error e -> Error (Format.asprintf "create %s: %a" cve.id Create.pp_error e)
  | Ok c ->
    Meter.addi "create.calls" 1;
    Meter.addi "create.skipped_units" (Create.skipped_units () - skipped0);
    Meter.addi "create.shipped_symbols" (List.length (Create.shipped_symbols c));
    Ok c.update

let create_exn ~store ~source ~patch cve =
  match create ~store ~source ~patch cve with
  | Ok u -> u
  | Error m -> failwith ("setup " ^ m)

let fresh_store () = Store.create ~name:"perfbench" ()

let boot () = span "boot.boot" (fun () -> Boot.boot ~workers ())

(* Apply.apply, tallying the module area it consumed and its pause *)
let apply ?engage mgr u =
  match span "apply.apply" (fun () -> Apply.apply ?engage mgr u) with
  | Error e -> Error (apply_err ("apply " ^ u.Update.update_id) e)
  | Ok a ->
    Meter.addi "apply.calls" 1;
    Meter.addi "sim.module_bytes"
      (List.fold_left (fun n (lo, hi) -> n + hi - lo) 0 a.module_ranges);
    Meter.max_into "sim.pause_ns_max" (float a.pause_ns);
    Ok ()

let verify mgr =
  span "apply.verify" (fun () -> Apply.verify mgr)
  |> Result.map_error (apply_err "verify")

let undo ?engage mgr id =
  span "apply.undo" (fun () -> Apply.undo ?engage mgr id)
  |> Result.map_error (apply_err ("undo " ^ id))

(* the sabotaged inputs *)

let truncate b = Bytes.sub b 0 (Bytes.length b / 2)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

(* [u] with one byte of the pre code of its first replaced function
   flipped in the helper: run-pre must refuse to match it *)
let flip_helper_byte (u : Update.t) =
  let unit_name, fn = List.hd u.replaced_functions in
  let raw, _ = Update.split_canonical fn in
  let flip (s : Section.t) =
    if s.name = ".text." ^ raw then
      { s with data = Bytes.of_string (flip_byte (Bytes.to_string s.data) 0) }
    else s
  in
  let helpers =
    List.map
      (fun (h : Objfile.t) ->
        if h.unit_name = unit_name then
          { h with sections = List.map flip h.sections }
        else h)
      u.helpers
  in
  { u with helpers }

let index_of ~sub s =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else at (i + 1)
  in
  at 0

(* [blob] with one byte of the primary's first code section flipped where
   the encoding carries it verbatim: it still decodes, to another update *)
let flip_code_byte blob =
  let s = Bytes.to_string blob in
  let u = Result.get_ok (Update.of_bytes blob) in
  let text =
    List.find (fun (sec : Section.t) -> sec.kind = Text && sec.size > 0)
      u.primary.sections
  in
  Bytes.of_string
    (flip_byte s (Option.get (index_of ~sub:(Bytes.to_string text.data) s)))

let fails_with sub = function
  | Ok () -> false
  | Error m -> Option.is_some (index_of ~sub m)

(* ---------------- cve-lifecycle ---------------- *)

(* source diff -> update -> fresh kernel -> patched, exploit blocked,
   stress clean -> verified -> undone *)
let lifecycle_op ~base ?(sabotage = Fun.id) (cve : Cve.t) =
  let patch = span "patchfmt.hot_patch" (fun () -> Cve.hot_patch cve base) in
  let* created = create ~store:(fresh_store ()) ~source:base ~patch cve in
  let ustore = fresh_store () in
  let blob = span "update.encode" (fun () -> Update.to_bytes_store ustore created) in
  let* u =
    span "update.decode" (fun () -> Update.of_bytes_store ustore (sabotage blob))
    |> Result.map_error (fun e -> "decode: " ^ Update.decode_error_to_string e)
  in
  let* () = check (u = created) "decoded update differs from the created one" in
  let b = boot () in
  let mgr = Apply.init b.machine in
  let* () = apply mgr u in
  let* () =
    match Corpus.Exploits.find cve.id with
    | None -> Ok ()
    | Some ex ->
      let o = span "kernel.exploit" (fun () -> ex.run b) in
      check (not o.succeeded) ("exploit still works: " ^ o.detail)
  in
  let r =
    span "kernel.stress" (fun () ->
        Corpus.Stress.run ~threads:stress_threads
          ~iterations:stress_iterations b)
  in
  let* () = check r.ok ("stress: " ^ String.concat "; " r.failures) in
  let* () = verify mgr in
  let* () = undo mgr cve.id in
  Meter.addi "sim.insns" (Machine.instructions_retired b.machine);
  Ok ()

let corpus = Array.of_list Cve.all
let cve_ids = Array.map (fun (c : Cve.t) -> c.id) corpus

let cve_lifecycle ~seed =
  Kbuild.reset_cache ();
  let base = Corpus.Base_kernel.tree () in
  (* warm the compile cache once: the base kernel in both build modes
     and every post tree, so each op's builds are all cache hits *)
  build_exn ~options:Minic.Driver.pre_build base;
  build_exn ~options:Minic.Driver.run_build base;
  Array.iter
    (fun c -> build_exn ~options:Minic.Driver.pre_build (Cve.hot_tree c base))
    corpus;
  let key = seeded_passes ~seed (Array.length corpus) in
  {
    pass = Array.length corpus;
    op = (fun i -> lifecycle_op ~base corpus.(key i));
    upkeep = (fun _ ~after_failure:_ -> ());
    controls =
      [ ( "truncated update blob",
          fun () ->
            fails_with "decode:"
              (lifecycle_op ~base ~sabotage:truncate corpus.(key 0)) ) ];
    picks = [ ("cve_order", first_pass key cve_ids) ];
  }

(* ---------------- apply-churn ---------------- *)

let churn_cycle mgr u =
  let m = Apply.machine mgr in
  let insns0 = Machine.instructions_retired m in
  let* () = apply mgr u in
  let* () = verify mgr in
  let* () = undo mgr u.Update.update_id in
  Meter.addi "sim.insns" (Machine.instructions_retired m - insns0);
  check (Apply.applied mgr = []) "undo left an update applied"

let churn_machine () = Apply.init (boot ()).machine

(* every corpus update, created against the base kernel *)
let corpus_updates () =
  let base = Corpus.Base_kernel.tree () in
  Array.map
    (fun (c : Cve.t) ->
      create_exn ~store:(fresh_store ()) ~source:base ~patch:(Cve.hot_patch c base) c)
    corpus

(* replaces the machine [mgr] holds; the old machine's 32 MiB go back to
   the system now, not whenever the major GC gets round to them *)
let replace_machine mgr =
  mgr := churn_machine ();
  Gc.full_major ()

let apply_churn ~seed =
  Kbuild.reset_cache ();
  let updates = corpus_updates () in
  let n = Array.length updates in
  let key = seeded_passes ~seed n in
  let mgr = ref (churn_machine ()) in
  {
    pass = n;
    op = (fun i -> churn_cycle !mgr updates.(key i));
    upkeep =
      (fun i ~after_failure ->
        if after_failure || (i > 0 && i mod (churn_replace_passes * n) = 0) then
          replace_machine mgr);
    controls =
      [ ( "helper byte flipped",
          fun () ->
            (* the pass's first update that replaces a function: two
               corpus updates replace none, so have no pre code to flip *)
            let k =
              List.find
                (fun k -> updates.(k).Update.replaced_functions <> [])
                (List.init n key)
            in
            fails_with "run-pre mismatch"
              (churn_cycle !mgr (flip_helper_byte updates.(k))) ) ];
    picks = [ ("cve_order", first_pass key cve_ids) ];
  }

(* cycles one fresh machine through the corpus updates, in the seeded
   pass orders, until the first apply that runs out of module memory *)
let cycles_to_module_oom ~seed =
  let updates = corpus_updates () in
  let key = seeded_passes ~seed (Array.length updates) in
  let mgr = churn_machine () in
  let rec go i =
    let u = updates.(key i) in
    match Apply.apply mgr u with
    | Error (Apply.Out_of_memory _) -> Ok i
    | Error e -> Error (apply_err "oom probe" e)
    | Ok _ -> (
      match Apply.undo mgr u.update_id with
      | Ok () -> go (i + 1)
      | Error e -> Error (apply_err "oom probe" e))
  in
  go 0

(* ---------------- release-matrix ---------------- *)

let release_op ?(sabotage = Fun.id) ((v : Corpus.Versions.t), cves) =
  span "kbuild.reset_cache" Kbuild.reset_cache;
  let* _ =
    span "kbuild.build_tree" (fun () ->
        Kbuild.build_tree ~domains ~options:Minic.Driver.pre_build v.tree)
    |> Result.map_error (Format.asprintf "build %s: %a" v.name Kbuild.pp_error)
  in
  let store = fresh_store () in
  let one (cve : Cve.t) =
    let* patch =
      span "patchfmt.hot_patch" (fun () -> Corpus.Versions.hot_patch cve v)
      |> Option.to_result ~none:(cve.id ^ ": no patch for " ^ v.name)
    in
    let* u = create ~store ~source:v.tree ~patch cve in
    let blob = span "update.encode" (fun () -> Update.to_bytes u) in
    Meter.addi "update.encodes" 1;
    Meter.addi "update.bytes" (Bytes.length blob);
    let* u' =
      span "update.decode" (fun () -> Update.of_bytes (sabotage blob))
      |> Result.map_error (fun e -> "decode: " ^ Update.decode_error_to_string e)
    in
    check (u' = u) (cve.id ^ ": decoded update differs from the encoded one")
  in
  all one cves

let release_matrix ~seed =
  let releases =
    Array.of_list (Corpus.Versions.all ())
    |> Array.map (fun v -> (v, Corpus.Versions.applicable v))
  in
  let n = Array.length releases in
  let key = seeded_passes ~seed n in
  {
    pass = n;
    op = (fun i -> release_op releases.(key i));
    upkeep = (fun _ ~after_failure:_ -> ());
    controls =
      [ ( "code byte flipped in a blob",
          fun () ->
            fails_with "differs"
              (release_op ~sabotage:flip_code_byte releases.(key 0)) ) ];
    picks =
      [ ( "release_order",
          first_pass key
            (Array.map
               (fun ((v : Corpus.Versions.t), cves) ->
                 Printf.sprintf "%s(%d)" v.name (List.length cves))
               releases) ) ];
  }

(* ---------------- fleet-rollout ---------------- *)

let store_counts (s : Store.stats) =
  [ ("store.hits", s.hits); ("store.misses", s.misses); ("store.puts", s.puts);
    ("store.dedup_hits", s.dedup_hits) ]

let tally_store before after =
  List.iter2
    (fun (k, a) (_, b) -> Meter.addi k (b - a))
    (store_counts before) (store_counts after)

let engage () =
  Transition.engage
    ~on_stats:(fun s ->
      Meter.addi "sim.transitions" 1;
      Meter.addi "sim.migrations" (List.length s.st_migrations);
      Meter.addi "sim.rounds" s.st_rounds;
      Meter.addi "sim.sched_steps" s.st_sched_steps;
      Meter.addi "sim.fallbacks" (if s.st_fallback then 1 else 0))
    ()

(* one new subscriber: sync a fresh mirror, decode the chain, stack it
   with per-thread transitions, check against the stop_machine
   reference, unstack *)
let rollout_op ~repo ~serve ~base_digest ~chain_ids ~reference mgr =
  let sub = Store.create ~name:"perfbench-sub" () in
  let stores = [ Repo.store repo; sub ] in
  let before = List.map Store.stats stores in
  let connect _ = Some (fst (Transport.sim ~serve:(serve ()) ())) in
  let r =
    span "fleet.sync" (fun () ->
        Subscriber.sync ~store:sub ~base:base_digest ~connect ())
  in
  Meter.addi "fleet.syncs" 1;
  Meter.addi "fleet.blobs_fetched" r.r_blobs_fetched;
  Meter.addi "fleet.wire_bytes" r.r_bytes_fetched;
  Meter.addi "fleet.redundant_receives" r.r_redundant;
  let* () =
    check r.r_synced ("sync did not converge: " ^ String.concat " | " r.r_log)
  in
  let* () = check (r.r_redundant = 0) "redundant blob receives" in
  let* entries =
    span "repository.pending" (fun () ->
        Repo.pending (Repo.of_store sub) ~digest:base_digest)
    |> Result.map_error (Format.asprintf "pending: %a" Repo.pp_error)
  in
  List.iter2 tally_store before (List.map Store.stats stores);
  let updates = List.map (fun (e : Repo.entry) -> e.update) entries in
  let ids = List.map (fun (u : Update.t) -> u.update_id) updates in
  let* () = check (ids = chain_ids) "decoded chain ids differ from the published ones" in
  let m = Apply.machine mgr in
  let insns0 = Machine.instructions_retired m in
  let* () = all (apply ~engage:(engage ()) mgr) updates in
  let* () = verify mgr in
  let fp = span "apply.footprint" (fun () -> Apply.footprint mgr) in
  let* reference =
    Result.map_error (apply_err "stop_machine reference") reference
  in
  let* () = check (fp = reference) "footprint differs from the stop_machine reference" in
  let* () = all (undo ~engage:(engage ()) mgr) (List.rev ids) in
  Meter.addi "sim.insns" (Machine.instructions_retired m - insns0);
  Ok ()

(* a server that flips one byte of every blob it sends, re-framed with a
   valid checksum: the wire layer accepts it, the content digest must not *)
let lying_server repo () =
  let handle = Server.handle (Server.session repo) in
  fun input ->
    List.map
      (fun frame ->
        match Wire.decode frame ~pos:0 with
        | Ok (Wire.Blob { digest; bytes }, _) when bytes <> "" ->
          Wire.encode (Wire.Blob { digest; bytes = flip_byte bytes 0 })
        | _ -> frame)
      (handle input)

(* one published chain: a repository serving up to [chain_depth] picks,
   each applying to the tree the previous ones patched *)
type chain = { repo : Repo.t; updates : Update.t list; ids : string list }

(* publishes the next chain from [candidates], in order; returns it and
   the candidates it did not pick *)
let publish_chain base candidates =
  let repo = Repo.of_store (Store.create ~name:"perfbench-server" ()) in
  let tree = ref base and picks = ref [] in
  let rest =
    List.filter
      (fun (c : Cve.t) ->
        List.length !picks >= chain_depth
        || (not (Cve.applies_to c !tree))
        ||
        let patch = Cve.hot_patch c !tree in
        (* a fix whose code an earlier pick already changed has nothing
           left to ship here; it waits for a later chain *)
        match create ~store:(fresh_store ()) ~source:!tree ~patch c with
        | Error _ -> true
        | Ok update -> (
          match Repo.publish repo ~source:!tree ~patch ~update with
          | Error e -> failwith (Format.asprintf "setup publish: %a" Repo.pp_error e)
          | Ok _ ->
            tree := Result.get_ok (Patchfmt.Diff.apply patch !tree);
            picks := update :: !picks;
            false))
      candidates
  in
  let updates = List.rev !picks in
  ({ repo; updates; ids = List.map (fun (u : Update.t) -> u.update_id) updates }, rest)

(* [fleet_orders] seeded orders of the whole corpus, each cut into
   chains: every pass of fleet-rollout stacks each of the 64 CVEs
   [fleet_orders] times, whatever the seed, and the slowest few chains
   (the p90) are not one seed's luck *)
let publish_chains ~seed base =
  let rng = Random.State.make [| seed |] in
  let rec cut acc candidates =
    if candidates = [] then List.rev acc
    else
      match publish_chain base candidates with
      | { updates = []; _ }, _ -> failwith "setup: no chain can take the rest"
      | c, rest -> cut (c :: acc) rest
  in
  List.init fleet_orders (fun _ -> cut [] (Array.to_list (shuffle rng Cve.all)))
  |> List.concat |> Array.of_list

(* stacks [chain] under stop_machine, reads the footprint, unstacks *)
let stop_machine_footprint mgr chain =
  let* () = all (fun u -> Result.map ignore (Apply.apply mgr u)) chain.updates in
  let fp = Apply.footprint mgr in
  let* () = all (Apply.undo mgr) (List.rev chain.ids) in
  Ok fp

let fleet_rollout ~seed =
  Kbuild.reset_cache ();
  let base = Corpus.Base_kernel.tree () in
  let base_digest = Tree.digest base in
  let chains = publish_chains ~seed base in
  let n = Array.length chains in
  let key = seeded_passes ~seed n in
  let chain i = chains.(key i) in
  (* Footprints name module addresses, and undo never hands module memory
     back, so the stop_machine reference comes from a twin machine that
     stacks and unstacks each chain in step with the live one: the
     reference for op [i] is taken in the upkeep before it. A failed op
     leaves the two out of step, so both are replaced after one. *)
  let live = ref (churn_machine ()) and twin = ref (churn_machine ()) in
  let reference = ref (stop_machine_footprint !twin (chain 0)) in
  let op ?serve c =
    let serve =
      Option.value serve ~default:(fun () -> Server.handle (Server.session c.repo))
    in
    rollout_op ~repo:c.repo ~serve ~base_digest ~chain_ids:c.ids
      ~reference:!reference !live
  in
  {
    pass = n;
    op = (fun i -> op (chain i));
    upkeep =
      (fun i ~after_failure ->
        if i > 0 then begin
          if after_failure || i mod fleet_replace_ops = 0 then begin
            replace_machine live;
            replace_machine twin
          end;
          reference := stop_machine_footprint !twin (chain i)
        end);
    controls =
      [ ( "server blob digest mismatch",
          fun () ->
            fails_with "do not digest"
              (op ~serve:(lying_server (chain 0).repo) (chain 0)) ) ];
    picks =
      Array.to_list (Array.mapi (fun k c -> (Printf.sprintf "chain%d" k, c.ids)) chains);
  }

let names = [ "cve-lifecycle"; "apply-churn"; "release-matrix"; "fleet-rollout" ]

let setup name ~seed =
  match name with
  | "cve-lifecycle" -> cve_lifecycle ~seed
  | "apply-churn" -> apply_churn ~seed
  | "release-matrix" -> release_matrix ~seed
  | "fleet-rollout" -> fleet_rollout ~seed
  | _ -> invalid_arg name
