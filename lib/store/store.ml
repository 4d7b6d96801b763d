type digest = string

let digest_of_string s = Digest.to_hex (Digest.string s)

(* decoded-value memo for the Typed functor: each functor application
   adds its own constructor, so one resident blob can cache at most one
   decoding per value type that actually touches it *)
type packed = ..

type centry = {
  data : string;
  mutable last_used : int;
  mutable cached : packed option;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  puts : int;
  dedup_hits : int;
  bytes_put : int;
  bytes_deduped : int;
  disk_reads : int;
  disk_writes : int;
  corrupt : int;
  gc_runs : int;
  gc_collected : int;
  gc_reclaimed_bytes : int;
}

type recovery_report = {
  rolled_forward : int;
  rolled_back : int;
  torn_discarded : int;
  tmp_removed : int;
}

type fsck_issue =
  | Orphan_tmp of string
  | Corrupt_blob of { digest : digest; reason : string }
  | Dangling_ref of { name : string; digest : digest }
  | Unreadable_ref of { path : string; reason : string }
  | Pending_journal of int

type fsck_report = {
  f_blobs : int;
  f_refs : int;
  f_issues : fsck_issue list;
}

type gc_report = {
  gc_live : int;
  gc_swept : int;
  gc_bytes : int;
  gc_pinned : int;
}

type t = {
  sname : string;
  dir : string option;
  vfs : Vfs.t;
  m : Mutex.t;
  blobs : (digest, centry) Hashtbl.t;
  mrefs : (string, digest) Hashtbl.t;
  (* digests interned by transactions still in flight: GC roots until the
     outermost with_txn exits (its refs are committed by then) *)
  pinned : (digest, unit) Hashtbl.t;
  mutable txns : int;
  mutable last_recovery : recovery_report option;
  mutable clock : int;
  mutable cap : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable puts : int;
  mutable dedup_hits : int;
  mutable bytes_put : int;
  mutable bytes_deduped : int;
  mutable disk_reads : int;
  mutable disk_writes : int;
  mutable corrupt : int;
  mutable gc_runs : int;
  mutable gc_collected : int;
  mutable gc_reclaimed_bytes : int;
  (* precomputed trace-counter names: emitters are on cache hot paths *)
  tc_hits : string;
  tc_misses : string;
  tc_evictions : string;
  tc_dedup : string;
}

let name t = t.sname

(* --- disk tier layout --- *)

let mkdir_p vfs dir =
  let rec ensure d =
    if not (vfs.Vfs.exists d) then begin
      let parent = Filename.dirname d in
      if not (String.equal parent d) then ensure parent;
      (* tolerate a concurrent creator; surface every other failure *)
      try vfs.Vfs.mkdir d
      with Vfs.Io_error _ as e -> if not (vfs.Vfs.exists d) then raise e
    end
  in
  ensure dir;
  if not (vfs.Vfs.is_directory dir) then
    raise
      (Vfs.Io_error
         { op = "mkdir"; path = dir; reason = "exists but is not a directory" })

let blobs_dir dir = Filename.concat dir "blobs"
let refs_dir dir = Filename.concat dir "refs"
let blob_path dir d = Filename.concat (blobs_dir dir) d
let journal_path dir = Filename.concat dir "journal"

(* ref names are arbitrary strings (compile-cache keys contain paths and
   option fingerprints), so the file is named by the digest of the name
   and carries the name inside *)
let ref_path dir rname = Filename.concat (refs_dir dir) (digest_of_string rname)

(* Durable atomic replace: write the bytes to a temporary, fsync them,
   rename into place, then fsync the directory so the rename itself is
   on stable storage. A failure anywhere unlinks the temporary — the
   caller sees the exception, never a stray [.tmp] (a simulated process
   death can still strand one; recovery-on-open sweeps those). *)
let write_atomic vfs path contents =
  let tmp = path ^ ".tmp" in
  match
    vfs.Vfs.write_file tmp contents;
    vfs.Vfs.fsync tmp;
    vfs.Vfs.rename tmp path;
    vfs.Vfs.fsync (Filename.dirname path)
  with
  | () -> ()
  | exception e ->
    (try vfs.Vfs.unlink tmp with _ -> ());
    raise e

(* --- write-ahead ref journal ---

   A multi-ref commit appends one self-delimiting record to <dir>/journal
   and fsyncs it *before* touching any ref file:

     "J1 " <len> ":" <payload> <md5-hex payload> "\n"
     payload = netstring count, then (name, old, new) netstring triples
               (old = "" when the ref did not exist)

   Recovery re-reads the journal: a record whose checksum verifies and
   whose new blobs are all present and re-digest clean is rolled forward
   (the commit happened); any other complete record is rolled back to
   the recorded old values; a torn tail is discarded (the commit never
   reached its fsync, so no ref file was written). *)

module W = Codec.W
module R = Codec.R

let journal_payload =
  let write_ref b (rname, old_d, new_d) =
    W.ns b rname;
    W.ns b old_d;
    W.ns b new_d
  in
  let read_ref r =
    let rname = R.ns r in
    let old_d = R.ns r in
    let new_d = R.ns r in
    (rname, old_d, new_d)
  in
  { Codec.write = W.ns_list write_ref; read = (fun r -> R.ns_list r read_ref) }

let journal_codec =
  let write b refs =
    let payload = Codec.encode journal_payload refs in
    Buffer.add_string b "J1 ";
    W.ns b payload;
    Buffer.add_string b (digest_of_string payload);
    Buffer.add_char b '\n'
  in
  let read r =
    R.magic r "J1 ";
    let payload = R.ns r in
    let refs = R.nested r (Codec.decode journal_payload) payload in
    if not (String.equal (R.take r 32) (digest_of_string payload)) then
      R.fail r "record checksum mismatch";
    if R.take r 1 <> "\n" then R.fail r "unterminated record";
    refs
  in
  { Codec.write; read }

(* -> (complete records, torn-tail count: 0 or 1) *)
let parse_journal raw =
  let rec go pos records =
    if pos >= String.length raw then (List.rev records, 0)
    else
      match R.run ~pos journal_codec.read raw with
      | Ok (refs, next) -> go next (refs :: records)
      | Error _ -> (List.rev records, 1)
  in
  go 0 []

let ref_file_contents rname d = rname ^ "\n" ^ d ^ "\n"

let parse_ref_file raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some i ->
    let rname = String.sub raw 0 i in
    let rest = String.sub raw (i + 1) (String.length raw - i - 1) in
    let d = String.trim rest in
    if d = "" then None else Some (rname, d)

(* --- recovery-on-open --- *)

let sweep_tmps vfs dir =
  let removed = ref 0 in
  List.iter
    (fun sub ->
      Array.iter
        (fun e ->
          if Filename.check_suffix e ".tmp" then begin
            (try vfs.Vfs.unlink (Filename.concat sub e)
             with Vfs.Io_error _ -> ());
            incr removed
          end)
        (vfs.Vfs.readdir sub))
    [ blobs_dir dir; refs_dir dir ];
  !removed

let blob_verifies vfs dir d =
  let p = blob_path dir d in
  vfs.Vfs.exists p
  &&
  match vfs.Vfs.read_file p with
  | raw -> String.equal (digest_of_string raw) d
  | exception Vfs.Io_error _ -> false

let recover_dir ~vfs ~mrefs dir =
  let tmp_removed = sweep_tmps vfs dir in
  let jp = journal_path dir in
  let rolled_forward = ref 0 in
  let rolled_back = ref 0 in
  let torn = ref 0 in
  (if vfs.Vfs.exists jp then
     match vfs.Vfs.read_file jp with
     | "" -> ()
     | raw ->
       let records, torn_n = parse_journal raw in
       torn := torn_n;
       List.iter
         (fun refs ->
           let committed =
             List.for_all (fun (_, _, new_d) -> blob_verifies vfs dir new_d) refs
           in
           if committed then begin
             incr rolled_forward;
             List.iter
               (fun (rname, _, new_d) ->
                 write_atomic vfs (ref_path dir rname)
                   (ref_file_contents rname new_d);
                 Hashtbl.replace mrefs rname new_d)
               refs
           end
           else begin
             incr rolled_back;
             List.iter
               (fun (rname, old_d, _) ->
                 let p = ref_path dir rname in
                 if String.equal old_d "" then begin
                   if vfs.Vfs.exists p then vfs.Vfs.unlink p;
                   Hashtbl.remove mrefs rname
                 end
                 else begin
                   write_atomic vfs p (ref_file_contents rname old_d);
                   Hashtbl.replace mrefs rname old_d
                 end)
               refs
           end)
         records;
       (* checkpoint: everything above is now durable *)
       vfs.Vfs.write_file jp "";
       vfs.Vfs.fsync jp);
  {
    rolled_forward = !rolled_forward;
    rolled_back = !rolled_back;
    torn_discarded = !torn;
    tmp_removed;
  }

let build ~name ~capacity ~dir ~vfs ~recover =
  let t =
    {
      sname = name;
      dir;
      vfs;
      m = Mutex.create ();
      blobs = Hashtbl.create 256;
      mrefs = Hashtbl.create 64;
      pinned = Hashtbl.create 16;
      txns = 0;
      last_recovery = None;
      clock = 0;
      cap = max 1 capacity;
      hits = 0;
      misses = 0;
      evictions = 0;
      puts = 0;
      dedup_hits = 0;
      bytes_put = 0;
      bytes_deduped = 0;
      disk_reads = 0;
      disk_writes = 0;
      corrupt = 0;
      gc_runs = 0;
      gc_collected = 0;
      gc_reclaimed_bytes = 0;
      tc_hits = "store." ^ name ^ ".hits";
      tc_misses = "store." ^ name ^ ".misses";
      tc_evictions = "store." ^ name ^ ".evictions";
      tc_dedup = "store." ^ name ^ ".dedup_hits";
    }
  in
  (match dir with
  | Some d when recover ->
    t.last_recovery <- Some (recover_dir ~vfs ~mrefs:t.mrefs d)
  | _ -> ());
  t

(* --- shared in-process registry --- *)

(* Handles opened on the same directory share one memory tier (and one
   mutex, journal state, and recovery), so a daemon's many readers and a
   publisher in the same process see each other's writes without disk
   round-trips. Keyed by canonical path plus (device, inode): the inode
   pair keeps two spellings of one directory together, and the path
   keeps a recycled inode number (temp dirs churn fast) from aliasing an
   unrelated directory. Entries are weak, so an abandoned handle is
   collected rather than pinned forever. Only plain handles are shared:
   an injected [vfs] is a private fault simulation, and [recover:false]
   is read-only inspection that must see the disk as it is, not a warm
   cache. Simulating a separate process rebooting into a directory this
   process already has open wants [share:false]. *)
let registry : (string * int * int, t Weak.t) Hashtbl.t = Hashtbl.create 8
let registry_m = Mutex.create ()

let dir_identity d =
  match
    let rp = try Unix.realpath d with Unix.Unix_error _ -> d in
    (rp, Unix.stat d)
  with
  | rp, st -> Some (rp, st.Unix.st_dev, st.Unix.st_ino)
  | exception Unix.Unix_error _ -> None

let create ?(name = "store") ?(capacity = 1024) ?dir ?(vfs = Vfs.real)
    ?(recover = true) ?(share = true) () =
  (match dir with
  | None -> ()
  | Some d ->
    mkdir_p vfs d;
    mkdir_p vfs (blobs_dir d);
    mkdir_p vfs (refs_dir d));
  let sharable = share && vfs == Vfs.real && recover in
  match dir with
  | Some d when sharable -> (
    match dir_identity d with
    | None -> build ~name ~capacity ~dir ~vfs ~recover
    | Some key ->
      Mutex.lock registry_m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock registry_m)
        (fun () ->
          match Hashtbl.find_opt registry key with
          | Some w when Weak.get w 0 <> None -> Option.get (Weak.get w 0)
          | _ ->
            let t = build ~name ~capacity ~dir ~vfs ~recover in
            let w = Weak.create 1 in
            Weak.set w 0 (Some t);
            Hashtbl.replace registry key w;
            t))
  | _ -> build ~name ~capacity ~dir ~vfs ~recover

let recovery t = t.last_recovery

let default_store = ref None
let default_m = Mutex.create ()

let default () =
  Mutex.lock default_m;
  let t =
    match !default_store with
    | Some t -> t
    | None ->
      let t = create ~name:"artifacts" ~capacity:8192 () in
      default_store := Some t;
      t
  in
  Mutex.unlock default_m;
  t

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let touch t e =
  t.clock <- t.clock + 1;
  e.last_used <- t.clock

(* assumes the lock is held *)
let evict_locked t =
  while Hashtbl.length t.blobs > t.cap do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.last_used -> acc
          | _ -> Some (k, e.last_used))
        t.blobs None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove t.blobs k;
      t.evictions <- t.evictions + 1;
      Trace.count t.tc_evictions 1;
      (* a memory-only store is a cache: refs left dangling by the
         eviction are dropped with it, bounding the ref table too. With
         a disk tier the blob is still durable, so refs stay valid. *)
      if t.dir = None then begin
        let dangling =
          Hashtbl.fold
            (fun rname d acc -> if String.equal d k then rname :: acc else acc)
            t.mrefs []
        in
        List.iter (Hashtbl.remove t.mrefs) dangling
      end
  done

let put t blob =
  let d = digest_of_string blob in
  locked t (fun () ->
      t.puts <- t.puts + 1;
      if t.txns > 0 then Hashtbl.replace t.pinned d ();
      match Hashtbl.find_opt t.blobs d with
      | Some e ->
        touch t e;
        t.dedup_hits <- t.dedup_hits + 1;
        t.bytes_deduped <- t.bytes_deduped + String.length blob;
        Trace.count t.tc_dedup 1
      | None ->
        (match t.dir with
        | Some dir when t.vfs.Vfs.exists (blob_path dir d) ->
          (* already durable from an earlier run: a dedup against disk *)
          t.dedup_hits <- t.dedup_hits + 1;
          t.bytes_deduped <- t.bytes_deduped + String.length blob;
          Trace.count t.tc_dedup 1
        | Some dir ->
          write_atomic t.vfs (blob_path dir d) blob;
          t.disk_writes <- t.disk_writes + 1;
          t.bytes_put <- t.bytes_put + String.length blob
        | None -> t.bytes_put <- t.bytes_put + String.length blob);
        t.clock <- t.clock + 1;
        Hashtbl.replace t.blobs d
          { data = blob; last_used = t.clock; cached = None };
        evict_locked t);
  d

(* assumes the lock is held; counts one hit or miss *)
let find_entry_locked t d =
  match Hashtbl.find_opt t.blobs d with
  | Some e ->
    touch t e;
    t.hits <- t.hits + 1;
    Trace.count t.tc_hits 1;
    Ok e
  | None -> (
    let miss err =
      t.misses <- t.misses + 1;
      Trace.count t.tc_misses 1;
      Error err
    in
    match t.dir with
    | None -> miss `Missing
    | Some dir -> (
      let path = blob_path dir d in
      if not (t.vfs.Vfs.exists path) then miss `Missing
      else
        match t.vfs.Vfs.read_file path with
        | exception Vfs.Io_error { reason; _ } ->
          miss (`Corrupt ("unreadable blob: " ^ reason))
        | raw ->
          t.disk_reads <- t.disk_reads + 1;
          let actual = digest_of_string raw in
          if not (String.equal actual d) then begin
            t.corrupt <- t.corrupt + 1;
            miss
              (`Corrupt
                (Printf.sprintf
                   "blob %s fails the re-digest check (stored bytes hash to \
                    %s)"
                   d actual))
          end
          else begin
            t.clock <- t.clock + 1;
            let e = { data = raw; last_used = t.clock; cached = None } in
            Hashtbl.replace t.blobs d e;
            evict_locked t;
            t.hits <- t.hits + 1;
            Trace.count t.tc_hits 1;
            Ok e
          end))

let load t d =
  locked t (fun () ->
      match find_entry_locked t d with
      | Ok e -> Ok e.data
      | Error e -> Error e)

let get t d = match load t d with Ok b -> Some b | Error _ -> None

let mem t d =
  locked t (fun () ->
      Hashtbl.mem t.blobs d
      || match t.dir with
         | None -> false
         | Some dir -> t.vfs.Vfs.exists (blob_path dir d))

(* --- refs --- *)

let set_ref t rname d =
  locked t (fun () ->
      Hashtbl.replace t.mrefs rname d;
      match t.dir with
      | None -> ()
      | Some dir ->
        write_atomic t.vfs (ref_path dir rname) (ref_file_contents rname d))

(* assumes the lock is held *)
let disk_ref_locked t dir rname =
  let path = ref_path dir rname in
  if not (t.vfs.Vfs.exists path) then None
  else
    match parse_ref_file (t.vfs.Vfs.read_file path) with
    | Some (stored, d) when String.equal stored rname -> Some d
    | Some _ | None -> None
    | exception Vfs.Io_error _ -> None

let find_ref t rname =
  locked t (fun () ->
      match Hashtbl.find_opt t.mrefs rname with
      | Some d -> Some d
      | None -> (
        match t.dir with
        | None -> None
        | Some dir -> (
          match disk_ref_locked t dir rname with
          | Some d ->
            Hashtbl.replace t.mrefs rname d;
            Some d
          | None -> None)))

let commit_refs t updates =
  locked t (fun () ->
      match t.dir with
      | None ->
        List.iter (fun (rname, d) -> Hashtbl.replace t.mrefs rname d) updates
      | Some dir ->
        let with_old (rname, new_d) =
          let old_d =
            match Hashtbl.find_opt t.mrefs rname with
            | Some o -> o
            | None -> Option.value (disk_ref_locked t dir rname) ~default:""
          in
          (rname, old_d, new_d)
        in
        let record = List.map with_old updates in
        let jp = journal_path dir in
        (* the commit point: once this record is on stable storage the
           transaction roll-forwards; before it, nothing was written *)
        t.vfs.Vfs.append_file jp (Codec.encode journal_codec record);
        t.vfs.Vfs.fsync jp;
        List.iter
          (fun (rname, d) ->
            write_atomic t.vfs (ref_path dir rname)
              (ref_file_contents rname d);
            Hashtbl.replace t.mrefs rname d)
          updates;
        (* checkpoint: the refs are durable, the record is obsolete *)
        t.vfs.Vfs.write_file jp "";
        t.vfs.Vfs.fsync jp)

(* test/tooling hook: append a journal record without touching the refs,
   simulating a writer that died right after its commit-point fsync *)
let append_journal t updates =
  match t.dir with
  | None -> invalid_arg "Store.append_journal: memory-only store"
  | Some dir ->
    locked t (fun () ->
        let jp = journal_path dir in
        t.vfs.Vfs.append_file jp
          (Codec.encode journal_codec
             (List.map
                (fun (rname, old_d, new_d) ->
                  (rname, Option.value old_d ~default:"", new_d))
                updates));
        t.vfs.Vfs.fsync jp)

let with_txn t f =
  locked t (fun () -> t.txns <- t.txns + 1);
  Fun.protect f ~finally:(fun () ->
      locked t (fun () ->
          t.txns <- t.txns - 1;
          if t.txns = 0 then Hashtbl.reset t.pinned))

let refs t =
  locked t (fun () ->
      let acc = Hashtbl.create 64 in
      (match t.dir with
      | None -> ()
      | Some dir ->
        Array.iter
          (fun entry ->
            let path = Filename.concat (refs_dir dir) entry in
            if
              (not (Filename.check_suffix entry ".tmp"))
              && not (t.vfs.Vfs.is_directory path)
            then
              match parse_ref_file (t.vfs.Vfs.read_file path) with
              | Some (rname, d) -> Hashtbl.replace acc rname d
              | None -> ())
          (t.vfs.Vfs.readdir (refs_dir dir)));
      (* memory wins: it holds any not-yet-flushed or most recent value *)
      Hashtbl.iter (Hashtbl.replace acc) t.mrefs;
      Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* --- cache-style combined ops --- *)

let lookup t key =
  match find_ref t key with
  | Some d -> get t d
  | None ->
    locked t (fun () ->
        t.misses <- t.misses + 1;
        Trace.count t.tc_misses 1);
    None

let remember t ~key blob =
  let d = put t blob in
  set_ref t key d;
  d

(* --- fsck --- *)

let pp_fsck_issue ppf = function
  | Orphan_tmp path -> Format.fprintf ppf "orphan temp file: %s" path
  | Corrupt_blob { digest; reason } ->
    Format.fprintf ppf "corrupt blob %s: %s" digest reason
  | Dangling_ref { name; digest } ->
    Format.fprintf ppf "ref %S points at missing blob %s" name digest
  | Unreadable_ref { path; reason } ->
    Format.fprintf ppf "unreadable ref file %s: %s" path reason
  | Pending_journal n ->
    Format.fprintf ppf "journal holds %d unreplayed record(s)" n

let fsck t =
  locked t (fun () ->
      let issues = ref [] in
      let add i = issues := i :: !issues in
      let blobs = ref 0 in
      let refsn = ref 0 in
      let blob_present d =
        Hashtbl.mem t.blobs d
        ||
        match t.dir with
        | None -> false
        | Some dir -> t.vfs.Vfs.exists (blob_path dir d)
      in
      (match t.dir with
      | None -> blobs := Hashtbl.length t.blobs
      | Some dir ->
        Array.iter
          (fun e ->
            let path = Filename.concat (blobs_dir dir) e in
            if Filename.check_suffix e ".tmp" then add (Orphan_tmp path)
            else begin
              incr blobs;
              match t.vfs.Vfs.read_file path with
              | exception Vfs.Io_error { reason; _ } ->
                add (Corrupt_blob { digest = e; reason = "unreadable: " ^ reason })
              | raw ->
                if not (String.equal (digest_of_string raw) e) then
                  add (Corrupt_blob { digest = e; reason = "re-digest mismatch" })
            end)
          (t.vfs.Vfs.readdir (blobs_dir dir));
        Array.iter
          (fun e ->
            let path = Filename.concat (refs_dir dir) e in
            if Filename.check_suffix e ".tmp" then add (Orphan_tmp path)
            else begin
              incr refsn;
              match t.vfs.Vfs.read_file path with
              | exception Vfs.Io_error { reason; _ } ->
                add (Unreadable_ref { path; reason })
              | raw -> (
                match parse_ref_file raw with
                | None -> add (Unreadable_ref { path; reason = "does not parse" })
                | Some (rname, d) ->
                  if not (blob_present d) then
                    add (Dangling_ref { name = rname; digest = d }))
            end)
          (t.vfs.Vfs.readdir (refs_dir dir));
        let jp = journal_path dir in
        if t.vfs.Vfs.exists jp then begin
          match t.vfs.Vfs.read_file jp with
          | exception Vfs.Io_error { reason; _ } ->
            add (Unreadable_ref { path = jp; reason })
          | "" -> ()
          | raw ->
            let records, torn = parse_journal raw in
            add (Pending_journal (List.length records + torn))
        end);
      (* memory refs must resolve too (memory-only stores have no files) *)
      Hashtbl.iter
        (fun rname d ->
          if t.dir = None then incr refsn;
          if not (blob_present d) then
            add (Dangling_ref { name = rname; digest = d }))
        t.mrefs;
      let report =
        { f_blobs = !blobs; f_refs = !refsn; f_issues = List.rev !issues }
      in
      if report.f_issues = [] then Ok report else Error report)

(* --- mark-and-sweep GC --- *)

let gc ?(expand = fun _ _ -> []) t =
  t.gc_runs <- t.gc_runs + 1;
  (* mark: roots are every ref (memory + disk) and every pinned digest
     of an in-flight transaction; [expand] closes over blob-to-blob
     references the store itself cannot see *)
  let roots =
    locked t (fun () ->
        let acc = Hashtbl.fold (fun _ d l -> d :: l) t.mrefs [] in
        let acc =
          match t.dir with
          | None -> acc
          | Some dir ->
            Array.fold_left
              (fun l e ->
                if Filename.check_suffix e ".tmp" then l
                else
                  let path = Filename.concat (refs_dir dir) e in
                  match parse_ref_file (t.vfs.Vfs.read_file path) with
                  | Some (_, d) -> d :: l
                  | None -> l
                  | exception Vfs.Io_error _ -> l)
              acc
              (t.vfs.Vfs.readdir (refs_dir dir))
        in
        let pins = Hashtbl.fold (fun d () l -> d :: l) t.pinned [] in
        (acc, pins))
  in
  let ref_roots, pins = roots in
  let marked = Hashtbl.create 256 in
  let broken = ref [] in
  let rec mark d =
    if not (Hashtbl.mem marked d) then begin
      Hashtbl.replace marked d ();
      match load t d with
      | Ok raw -> List.iter mark (expand d raw)
      | Error `Missing -> broken := (d, "missing") :: !broken
      | Error (`Corrupt m) -> broken := (d, m) :: !broken
    end
  in
  List.iter mark ref_roots;
  List.iter mark pins;
  match !broken with
  | (d, m) :: _ ->
    (* the live set cannot be trusted; collecting anything now could
       orphan data a repaired blob would resurrect *)
    Error (Printf.sprintf "live blob %s is damaged (%s); run fsck" d m)
  | [] ->
    locked t (fun () ->
        let live d =
          Hashtbl.mem marked d || Hashtbl.mem t.pinned d
          (* re-check current refs: a commit that raced the mark phase
             can only reference marked or pinned blobs, but the sweep
             must never rely on that *)
          || Hashtbl.fold
               (fun _ rd acc -> acc || String.equal rd d)
               t.mrefs false
        in
        let swept = ref 0 in
        let bytes = ref 0 in
        (match t.dir with
        | None ->
          let dead =
            Hashtbl.fold
              (fun d e acc -> if live d then acc else (d, e) :: acc)
              t.blobs []
          in
          List.iter
            (fun (d, e) ->
              bytes := !bytes + String.length e.data;
              Hashtbl.remove t.blobs d;
              incr swept)
            dead
        | Some dir ->
          Array.iter
            (fun e ->
              if (not (Filename.check_suffix e ".tmp")) && not (live e) then begin
                let path = Filename.concat (blobs_dir dir) e in
                (match t.vfs.Vfs.file_size path with
                | n -> bytes := !bytes + n
                | exception Vfs.Io_error _ -> ());
                t.vfs.Vfs.unlink path;
                Hashtbl.remove t.blobs e;
                incr swept
              end)
            (t.vfs.Vfs.readdir (blobs_dir dir)));
        t.gc_collected <- t.gc_collected + !swept;
        t.gc_reclaimed_bytes <- t.gc_reclaimed_bytes + !bytes;
        Trace.count ("store." ^ t.sname ^ ".gc_collected") !swept;
        Trace.count ("store." ^ t.sname ^ ".gc_reclaimed_bytes") !bytes;
        Ok
          {
            gc_live = Hashtbl.length marked;
            gc_swept = !swept;
            gc_bytes = !bytes;
            gc_pinned = List.length pins;
          })

(* --- capacity / lifecycle / stats --- *)

let set_capacity t n =
  locked t (fun () ->
      t.cap <- max 1 n;
      evict_locked t)

let capacity t = locked t (fun () -> t.cap)

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.blobs;
      Hashtbl.reset t.mrefs;
      Hashtbl.reset t.pinned)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.blobs;
        capacity = t.cap;
        puts = t.puts;
        dedup_hits = t.dedup_hits;
        bytes_put = t.bytes_put;
        bytes_deduped = t.bytes_deduped;
        disk_reads = t.disk_reads;
        disk_writes = t.disk_writes;
        corrupt = t.corrupt;
        gc_runs = t.gc_runs;
        gc_collected = t.gc_collected;
        gc_reclaimed_bytes = t.gc_reclaimed_bytes;
      })

let fingerprint t =
  let refl = refs t in
  locked t (fun () ->
      let digests = Hashtbl.create 256 in
      Hashtbl.iter (fun d _ -> Hashtbl.replace digests d ()) t.blobs;
      (match t.dir with
      | None -> ()
      | Some dir ->
        Array.iter
          (fun entry ->
            if not (Filename.check_suffix entry ".tmp") then
              Hashtbl.replace digests entry ())
          (t.vfs.Vfs.readdir (blobs_dir dir)));
      let sorted =
        Hashtbl.fold (fun d () l -> d :: l) digests []
        |> List.sort String.compare
      in
      let b = Buffer.create 4096 in
      List.iter
        (fun d ->
          Buffer.add_string b d;
          Buffer.add_char b '\n')
        sorted;
      Buffer.add_string b "--refs--\n";
      List.iter
        (fun (rname, d) ->
          Buffer.add_string b rname;
          Buffer.add_char b '=';
          Buffer.add_string b d;
          Buffer.add_char b '\n')
        refl;
      digest_of_string (Buffer.contents b))

(* --- typed codecs --- *)

module type VALUE = sig
  type v

  val codec_id : string
  val codec : v Codec.t
end

module Typed (V : VALUE) = struct
  type packed += P of V.v

  let put t v = put t (Codec.encode V.codec v)

  let get t d =
    let fast =
      locked t (fun () ->
          match find_entry_locked t d with
          | Ok { cached = Some (P v); _ } -> `Cached v
          | Ok e -> `Raw e.data
          | Error err -> `Err err)
    in
    match fast with
    | `Err err ->
      Error
        (err
          :> [ `Missing | `Corrupt of string | `Decode of string ])
    | `Cached v -> Ok v
    | `Raw data -> (
      (* resident but not yet decoded for this type: decode outside the
         lock, then memoise (last writer wins; values are equal) *)
      match Codec.decode V.codec data with
      | Error e -> Error (`Decode (V.codec_id ^ ": " ^ Codec.error_to_string e))
      | Ok v ->
        locked t (fun () ->
            match Hashtbl.find_opt t.blobs d with
            | Some e -> e.cached <- Some (P v)
            | None -> ());
        Ok v)

  let lookup t key =
    match find_ref t key with
    | Some d -> ( match get t d with Ok v -> Some v | Error _ -> None)
    | None ->
      locked t (fun () ->
          t.misses <- t.misses + 1;
          Trace.count t.tc_misses 1);
      None

  let remember t ~key v =
    let d = remember t ~key (Codec.encode V.codec v) in
    (* the encoder round-trips; memoise the original value so hits share
       one physical artifact *)
    locked t (fun () ->
        match Hashtbl.find_opt t.blobs d with
        | Some e -> e.cached <- Some (P v)
        | None -> ());
    d
end
