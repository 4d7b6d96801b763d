(* Tests for the content-addressed artifact store (lib/store): blob
   round-trips, LRU bounds, the on-disk tier's re-digest corruption
   check, dedup accounting, fingerprint determinism, typed codecs, and
   the incremental-vs-from-scratch byte-identity of Create.create. *)

module Tree = Patchfmt.Source_tree
module Create = Ksplice.Create
module Update = Ksplice.Update

let t name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "ksplstore" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let gen_blobs =
  QCheck2.Gen.(list_size (int_range 1 30) (string_size (int_range 0 200)))

(* get (put b) = b over arbitrary bytes *)
let prop_put_get =
  QCheck2.Test.make ~name:"get (put b) = b" ~count:100 gen_blobs (fun blobs ->
      let s = Store.create ~name:"prop" ~capacity:64 () in
      let digests = List.map (fun b -> (Store.put s b, b)) blobs in
      List.for_all (fun (d, b) -> Store.get s d = Some b) digests)

(* with a disk tier, eviction never changes lookup results: memory
   entries dropped by the LRU bound re-read (and re-verify) from disk *)
let prop_eviction_is_invisible =
  QCheck2.Test.make ~name:"disk-backed eviction never loses blobs" ~count:30
    gen_blobs (fun blobs ->
      with_dir (fun dir ->
          let s = Store.create ~name:"prop" ~capacity:2 ~dir () in
          let digests = List.map (fun b -> (Store.put s b, b)) blobs in
          let st = Store.stats s in
          st.Store.entries <= 2
          && List.for_all (fun (d, b) -> Store.get s d = Some b) digests))

(* the on-disk tier round-trips across handles and rejects tampering *)
let prop_disk_roundtrip_and_tamper =
  QCheck2.Test.make ~name:"on-disk tier round-trips and rejects tampering"
    ~count:30
    QCheck2.Gen.(string_size (int_range 1 200))
    (fun blob ->
      with_dir (fun dir ->
          let d =
            let s = Store.create ~name:"w" ~dir () in
            Store.put s blob
          in
          (* fresh handle: the blob must come back from disk verbatim *)
          let s2 = Store.create ~name:"r" ~dir ~share:false () in
          let roundtrips = Store.get s2 d = Some blob in
          (* flip one byte on disk; a third handle must refuse the blob *)
          let path = Filename.concat (Filename.concat dir "blobs") d in
          let raw = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
          let i = Bytes.length raw / 2 in
          Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 1));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc raw);
          let s3 = Store.create ~name:"r2" ~dir ~share:false () in
          let rejected =
            match Store.load s3 d with
            | Error (`Corrupt _) -> true
            | Ok _ | Error `Missing -> false
          in
          let counted = (Store.stats s3).Store.corrupt = 1 in
          roundtrips && rejected && counted))

let test_dedup_accounting () =
  let s = Store.create ~name:"dedup" () in
  let blob = String.make 1000 'x' in
  let d1 = Store.put s blob in
  let d2 = Store.put s blob in
  Alcotest.(check string) "same digest" d1 d2;
  let st = Store.stats s in
  Alcotest.(check int) "puts" 2 st.Store.puts;
  Alcotest.(check int) "dedup hits" 1 st.Store.dedup_hits;
  Alcotest.(check int) "bytes put once" 1000 st.Store.bytes_put;
  Alcotest.(check int) "bytes saved" 1000 st.Store.bytes_deduped

let test_lookup_counts () =
  let s = Store.create ~name:"counts" () in
  Alcotest.(check (option string)) "miss" None (Store.lookup s "k");
  let _ = Store.remember s ~key:"k" "v" in
  Alcotest.(check (option string)) "hit" (Some "v") (Store.lookup s "k");
  let st = Store.stats s in
  Alcotest.(check int) "one hit" 1 st.Store.hits;
  Alcotest.(check int) "one miss" 1 st.Store.misses

let test_memory_lru_bound () =
  let s = Store.create ~name:"lru" ~capacity:4 () in
  for i = 1 to 20 do
    ignore (Store.remember s ~key:(string_of_int i) (String.make i 'a'))
  done;
  let st = Store.stats s in
  Alcotest.(check bool) "bounded" true (st.Store.entries <= 4);
  Alcotest.(check bool) "evicted" true (st.Store.evictions > 0);
  (* memory-only: refs left dangling by eviction are dropped with it *)
  Alcotest.(check bool)
    "refs bounded" true
    (List.length (Store.refs s) <= 4)

let test_fingerprint_order_independent () =
  let blobs = List.init 10 (fun i -> String.make (i + 1) (Char.chr (65 + i))) in
  let s1 = Store.create ~name:"f1" () in
  List.iter (fun b -> ignore (Store.put s1 b)) blobs;
  Store.set_ref s1 "head" (Store.digest_of_string (List.hd blobs));
  let s2 = Store.create ~name:"f2" () in
  List.iter (fun b -> ignore (Store.put s2 b)) (List.rev blobs);
  Store.set_ref s2 "head" (Store.digest_of_string (List.hd blobs));
  Alcotest.(check string)
    "same contents, any order -> same fingerprint" (Store.fingerprint s1)
    (Store.fingerprint s2);
  ignore (Store.put s2 "one more");
  Alcotest.(check bool)
    "different contents -> different fingerprint" false
    (String.equal (Store.fingerprint s1) (Store.fingerprint s2))

module Pair_codec = Store.Typed (struct
  type v = string * string

  let codec_id = "test-pair/1"

  let codec =
    let write b (x, y) =
      Codec.W.ns b x;
      Codec.W.ns b y
    in
    let read r =
      let x = Codec.R.ns r in
      (x, Codec.R.ns r)
    in
    { Codec.write; read }
end)

let test_typed_codec () =
  let s = Store.create ~name:"typed" () in
  let v = ("alpha", "beta") in
  let d = Pair_codec.put s v in
  (match Pair_codec.get s d with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error _ -> Alcotest.fail "typed get failed");
  (* a blob that is not a valid encoding must yield `Decode, not crash *)
  let bad = Store.put s "not a pair" in
  (match Pair_codec.get s bad with
  | Error (`Decode _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected `Decode");
  let _ = Pair_codec.remember s ~key:"p" v in
  Alcotest.(check bool)
    "typed lookup" true
    (Pair_codec.lookup s "p" = Some v)

(* incremental-vs-from-scratch byte-identity of Create.create over
   corpus CVEs, plus the skipped-units counter that proves the warm
   path really skipped differencing *)
let test_incremental_create_identity () =
  let base = Corpus.Base_kernel.tree () in
  let cves =
    List.filteri (fun i _ -> i < 4) Corpus.Cve.all
  in
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      let req =
        { Create.source = base; patch = Corpus.Cve.hot_patch cve base;
          update_id = cve.id; description = cve.desc }
      in
      let created store =
        match Create.create ~store req with
        | Ok c -> c.Create.update
        | Error e -> Alcotest.failf "create %s: %a" cve.id Create.pp_error e
      in
      let cold = created (Store.create ~name:"cold" ()) in
      let shared = Store.create ~name:"warm" () in
      let first = created shared in
      Create.reset_creation_stats ();
      let warm = created shared in
      Alcotest.(check bool)
        (cve.id ^ " warm run skipped differencing")
        true
        (Create.skipped_units () > 0);
      Alcotest.(check bool)
        (cve.id ^ " cold = first") true
        (Bytes.equal (Update.to_bytes cold) (Update.to_bytes first));
      Alcotest.(check bool)
        (cve.id ^ " incremental = from-scratch")
        true
        (Bytes.equal (Update.to_bytes cold) (Update.to_bytes warm)))
    cves

(* two identical runs produce byte-identical store contents *)
let test_store_contents_deterministic () =
  let base = Corpus.Base_kernel.tree () in
  let cve = List.hd Corpus.Cve.all in
  let req =
    { Create.source = base; patch = Corpus.Cve.hot_patch cve base;
      update_id = cve.id; description = cve.desc }
  in
  let run () =
    let s = Store.create ~name:"det" () in
    (match Create.create ~store:s req with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "create: %a" Create.pp_error e);
    Store.fingerprint s
  in
  Alcotest.(check string) "identical runs, identical contents" (run ()) (run ())

(* two handles on one directory share one in-process memory tier; a
   private handle, a different directory, or an injected vfs do not *)
let test_shared_registry () =
  with_dir (fun dir ->
      let a = Store.create ~name:"first" ~dir () in
      let b = Store.create ~name:"second" ~dir () in
      Alcotest.(check bool) "same handle" true (a == b);
      Alcotest.(check string) "first creator's name wins" "first"
        (Store.name b);
      let d = Store.put a "shared bytes" in
      Alcotest.(check (option string))
        "write visible through the other handle, no disk round-trip"
        (Some "shared bytes") (Store.get b d);
      let cold = Store.create ~name:"cold" ~dir ~share:false () in
      Alcotest.(check bool) "share:false is private" true (cold != a);
      let vfs, _ =
        Vfs.inject { Vfs.at = max_int; kind = Vfs.Crash; seed = 0 } Vfs.real
      in
      let sim = Store.create ~name:"sim" ~dir ~vfs () in
      Alcotest.(check bool) "injected vfs is never shared" true (sim != a);
      let ro = Store.create ~name:"ro" ~dir ~recover:false () in
      Alcotest.(check bool) "recover:false is never shared" true (ro != a);
      with_dir (fun other ->
          let c = Store.create ~name:"other" ~dir:other () in
          Alcotest.(check bool) "different directory" true (c != a)))

let suite =
  [
    ( "store",
      [
        QCheck_alcotest.to_alcotest prop_put_get;
        t "same-directory handles share one memory tier"
          test_shared_registry;
        QCheck_alcotest.to_alcotest prop_eviction_is_invisible;
        QCheck_alcotest.to_alcotest prop_disk_roundtrip_and_tamper;
        t "dedup accounting" test_dedup_accounting;
        t "lookup counts hits and misses" test_lookup_counts;
        t "memory LRU bound" test_memory_lru_bound;
        t "fingerprint is order-independent" test_fingerprint_order_independent;
        t "typed codec" test_typed_codec;
        t "incremental create is byte-identical" test_incremental_create_identity;
        t "store contents deterministic" test_store_contents_deterministic;
      ] );
  ]
