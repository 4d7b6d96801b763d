type unit_build = {
  source_name : string;
  obj : Objfile.t;
  inline_decisions : Minic.Inline.decision list;
}

type build = {
  units : unit_build list;
  options : Minic.Driver.options;
}

type error =
  | Unit_compile_failed of { unit_name : string; reason : string }
  | Unit_assemble_failed of { unit_name : string; line : int; reason : string }

let pp_error ppf = function
  | Unit_compile_failed { unit_name = _; reason } ->
    (* driver messages already lead with the unit name *)
    Format.pp_print_string ppf reason
  | Unit_assemble_failed { unit_name; line; reason } ->
    Format.fprintf ppf "%s:%d: %s" unit_name line reason

(* internal: carries the typed error out of the domain pool; Parallel.map
   re-raises the smallest-index failure, so the surfaced error is
   deterministically the first failing unit in path order *)
exception Fail of error

(* Content-addressed compile cache: (digest(source), options fingerprint)
   -> compiled unit, backed by the shared artifact store ({!Store}). The
   store supplies the mutex-guarded LRU discipline and the hit/miss/
   eviction accounting (mirrored as [store.kbuild.*] trace counters);
   this module contributes only the cache key and the unit codec.
   Compilation happens outside the store's lock; when two domains race to
   compile the same key, both intern byte-identical encodings (builds are
   deterministic), so the blob dedups and every caller shares one
   physical artifact. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let the_store = Store.create ~name:"kbuild" ~capacity:1024 ()
let store () = the_store

let set_cache_capacity n = Store.set_capacity the_store n

let cache_stats () =
  let s = Store.stats the_store in
  {
    hits = s.Store.hits;
    misses = s.Store.misses;
    evictions = s.Store.evictions;
    entries = s.Store.entries;
    capacity = s.Store.capacity;
  }

let reset_cache () = Store.reset the_store

let options_fingerprint (o : Minic.Driver.options) =
  Printf.sprintf "fs=%b;al=%b;inl=%b;%d;%d" o.codegen.function_sections
    o.codegen.align_loops o.inline_enabled o.auto_inline_max
    o.explicit_inline_max

(* kbuild-unit/1: netstrings — the source name, the SELF1 object, then
   the inline decisions as a counted list of (caller, callee) *)
let unit_codec =
  let module W = Codec.W in
  let module R = Codec.R in
  let write_decision b (d : Minic.Inline.decision) =
    W.ns b d.caller;
    W.ns b d.callee
  in
  let write b u =
    W.ns b u.source_name;
    W.ns b (Codec.encode Objfile.codec u.obj);
    W.ns_list write_decision b u.inline_decisions
  in
  let read_decision r : Minic.Inline.decision =
    let caller = R.ns r in
    let callee = R.ns r in
    { caller; callee }
  in
  let read r =
    let source_name = R.ns r in
    let obj =
      R.nested ~prefix:"bad object: " r (Codec.decode Objfile.codec) (R.ns r)
    in
    let inline_decisions = R.ns_list r read_decision in
    { source_name; obj; inline_decisions }
  in
  { Codec.write; read }

module Unit_store = Store.Typed (struct
  type v = unit_build

  let codec_id = "kbuild-unit/1"
  let codec = unit_codec
end)

let compile_one ~options path contents =
  let key =
    Digest.to_hex (Digest.string contents)
    ^ "|" ^ path ^ "|" ^ options_fingerprint options
  in
  match Unit_store.lookup the_store key with
  | Some u -> u
  | None ->
    let u =
      if String.ends_with ~suffix:".c" path then begin
        match Minic.Driver.compile ~options ~unit_name:path contents with
        | Ok { obj; inline_decisions } ->
          { source_name = path; obj; inline_decisions }
        | Error e ->
          let reason = Format.asprintf "%a" Minic.Driver.pp_error e in
          raise (Fail (Unit_compile_failed { unit_name = path; reason }))
      end
      else begin
        match
          Asm.Assembler.assemble ~unit_name:path
            ~function_sections:options.codegen.function_sections contents
        with
        | obj -> { source_name = path; obj; inline_decisions = [] }
        | exception Asm.Assembler.Error { line; msg } ->
          raise
            (Fail
               (Unit_assemble_failed
                  { unit_name = path; line; reason = msg }))
      end
    in
    ignore (Unit_store.remember the_store ~key u : Store.digest);
    u

let is_source path =
  String.ends_with ~suffix:".c" path || String.ends_with ~suffix:".s" path

let build_tree ?domains ~options tree =
  let sources =
    Patchfmt.Source_tree.bindings tree
    |> List.filter (fun (path, _) -> is_source path)
  in
  match
    Parallel.map ?domains
      (fun (path, contents) -> compile_one ~options path contents)
      sources
  with
  | units -> Ok { units; options }
  | exception Fail e -> Error e

let objects b = List.map (fun u -> u.obj) b.units

let find_unit b name =
  List.find_opt (fun u -> String.equal u.source_name name) b.units

let inlined_callees b =
  List.concat_map
    (fun u ->
      List.map
        (fun (d : Minic.Inline.decision) -> (u.source_name, d.caller, d.callee))
        u.inline_decisions)
    b.units
