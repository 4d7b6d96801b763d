(* Update-file format robustness: round-trips over every corpus update,
   graceful rejection of corrupted inputs, and apply-equivalence of a
   deserialised update. *)

module Update = Ksplice.Update
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let t name f = Alcotest.test_case name `Quick f

let corpus_updates =
  lazy
    (let base = Corpus.Base_kernel.tree () in
     List.filter_map
       (fun (cve : Corpus.Cve.t) ->
         match
           Create.create
             { source = base; patch = Corpus.Cve.hot_patch cve base;
               update_id = cve.id; description = cve.desc }
         with
         | Ok c -> Some c.update
         | Error _ -> None)
       Corpus.Cve.all)

let test_roundtrip_all () =
  List.iter
    (fun (u : Update.t) ->
      let u' = Result.get_ok (Update.of_bytes (Update.to_bytes u)) in
      Alcotest.(check string) (u.update_id ^ " id") u.update_id u'.update_id;
      Alcotest.(check bool)
        (u.update_id ^ " replaced functions")
        true
        (u.replaced_functions = u'.replaced_functions);
      Alcotest.(check bool)
        (u.update_id ^ " primary bytes")
        true
        (Bytes.equal (Objfile.to_bytes u.primary) (Objfile.to_bytes u'.primary));
      Alcotest.(check int)
        (u.update_id ^ " helpers")
        (List.length u.helpers) (List.length u'.helpers))
    (Lazy.force corpus_updates)

let test_corruption_rejected () =
  let u = List.hd (Lazy.force corpus_updates) in
  let good = Update.to_bytes u in
  let cases =
    [ Bytes.sub good 0 4 (* truncated magic *);
      Bytes.sub good 0 (Bytes.length good / 2) (* truncated body *);
      Bytes.of_string "KSPL1garbage";
      (let b = Bytes.copy good in
       (* corrupt a length field just past the magic *)
       Bytes.set_int32_le b 5 0x7fffffffl;
       b) ]
  in
  List.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "corruption %d rejected" i)
        true
        (Result.is_error (Update.of_bytes b)))
    cases

let test_deserialised_update_applies () =
  let u =
    List.find
      (fun (u : Update.t) -> u.update_id = "CVE-2006-2451")
      (Lazy.force corpus_updates)
  in
  let u' = Result.get_ok (Update.of_bytes (Update.to_bytes u)) in
  let b = Corpus.Boot.boot () in
  let mgr = Apply.init b.machine in
  (match Apply.apply mgr u' with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "deserialised apply: %a" Apply.pp_error e);
  let e = Option.get (Corpus.Exploits.find "CVE-2006-2451") in
  Alcotest.(check bool) "exploit blocked by deserialised update" false
    (e.run b).succeeded

(* --- store-backed (KSPL2) serialisation --- *)

let test_store_roundtrip_all () =
  let store = Store.create ~name:"upd-test" () in
  List.iter
    (fun (u : Update.t) ->
      let b = Update.to_bytes_store store u in
      match Update.of_bytes_store store b with
      | Error e ->
        Alcotest.failf "%s: %s" u.update_id (Update.decode_error_to_string e)
      | Ok u' ->
        Alcotest.(check string) (u.update_id ^ " id") u.update_id u'.update_id;
        Alcotest.(check bool)
          (u.update_id ^ " primary bytes")
          true
          (Bytes.equal (Objfile.to_bytes u.primary)
             (Objfile.to_bytes u'.primary));
        Alcotest.(check bool)
          (u.update_id ^ " helper bytes")
          true
          (List.for_all2
             (fun h h' ->
               Bytes.equal (Objfile.to_bytes h) (Objfile.to_bytes h'))
             u.helpers u'.helpers))
    (Lazy.force corpus_updates)

let test_store_dedups_helpers () =
  (* corpus updates share the base kernel: serialising them all through
     one store must intern each common helper object exactly once *)
  let store = Store.create ~name:"upd-dedup" () in
  let updates = Lazy.force corpus_updates in
  List.iter (fun u -> ignore (Update.to_bytes_store store u)) updates;
  let st = Store.stats store in
  Alcotest.(check bool) "helpers dedup across updates" true
    (st.Store.dedup_hits > 0 && st.Store.bytes_deduped > 0)

let test_legacy_readable_by_store_reader () =
  let store = Store.create ~name:"upd-legacy" () in
  let u = List.hd (Lazy.force corpus_updates) in
  match Update.of_bytes_store store (Update.to_bytes u) with
  | Ok u' -> Alcotest.(check string) "id" u.update_id u'.update_id
  | Error e ->
    Alcotest.failf "KSPL1 must stay readable: %s"
      (Update.decode_error_to_string e)

let test_plain_reader_refuses_kspl2 () =
  let store = Store.create ~name:"upd-refuse" () in
  let u = List.hd (Lazy.force corpus_updates) in
  let b = Update.to_bytes_store store u in
  (match Update.of_bytes b with
  | Ok _ -> Alcotest.fail "of_bytes must refuse KSPL2"
  | Error e ->
    let m = Update.decode_error_to_string e in
    let needle = "of_bytes_store" in
    let rec has i =
      i + String.length needle <= String.length m
      && (String.sub m i (String.length needle) = needle || has (i + 1))
    in
    Alcotest.(check bool) "message names of_bytes_store" true (has 0));
  (* a KSPL2 file against a store missing its blobs fails cleanly *)
  let empty = Store.create ~name:"upd-empty" () in
  match Update.of_bytes_store empty b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a missing-blob error"

(* --- cumulative (KSPL3) serialisation --- *)

let cumulative_of (u : Update.t) =
  { u with
    Update.supersedes = [ "CVE-a"; "CVE-b" ];
    shadow_ctors = [ "ctor@kernel/x.c" ];
    shadow_dtors = [ "dtor@kernel/x.c" ] }

let test_ordinary_stays_kspl2 () =
  (* byte-stability: an update without cumulative records must encode
     exactly as before KSPL3 existed *)
  let store = Store.create ~name:"upd-k2" () in
  let u = List.hd (Lazy.force corpus_updates) in
  let b = Update.to_bytes_store store u in
  Alcotest.(check string) "magic" "KSPL2" (Bytes.sub_string b 0 5);
  Alcotest.(check bool) "not cumulative" false (Update.is_cumulative u);
  Alcotest.(check (list string)) "supersedes nothing" []
    (Update.supersedes_of_bytes b)

let test_kspl3_roundtrip () =
  let store = Store.create ~name:"upd-k3" () in
  let u = cumulative_of (List.hd (Lazy.force corpus_updates)) in
  let b = Update.to_bytes_store store u in
  Alcotest.(check string) "magic" "KSPL3" (Bytes.sub_string b 0 5);
  Alcotest.(check (list string)) "supersedes from bytes alone"
    u.supersedes (Update.supersedes_of_bytes b);
  match Update.of_bytes_store store b with
  | Error e -> Alcotest.fail (Update.decode_error_to_string e)
  | Ok u' ->
    Alcotest.(check bool) "cumulative" true (Update.is_cumulative u');
    Alcotest.(check (list string)) "supersedes" u.supersedes u'.supersedes;
    Alcotest.(check (list string)) "ctors" u.shadow_ctors u'.shadow_ctors;
    Alcotest.(check (list string)) "dtors" u.shadow_dtors u'.shadow_dtors;
    Alcotest.(check bool) "primary bytes" true
      (Bytes.equal (Objfile.to_bytes u.primary) (Objfile.to_bytes u'.primary))

let test_kspl1_roundtrips_cumulative_fields () =
  let u = cumulative_of (List.hd (Lazy.force corpus_updates)) in
  let u' = Result.get_ok (Update.of_bytes (Update.to_bytes u)) in
  Alcotest.(check (list string)) "supersedes" u.supersedes u'.supersedes;
  Alcotest.(check (list string)) "ctors" u.shadow_ctors u'.shadow_ctors;
  Alcotest.(check (list string)) "dtors" u.shadow_dtors u'.shadow_dtors

(* --- decoder totality: no exception reachable from arbitrary bytes ---

   Every truncated prefix and every single-byte flip of a valid blob —
   self-contained KSPL1, store-backed KSPL2, cumulative KSPL3 — must
   yield [Ok] or [Error], never raise. *)

let blobs =
  lazy
    (let store = Store.create ~name:"upd-total" () in
     let u = List.hd (Lazy.force corpus_updates) in
     let cu = cumulative_of u in
     [ ("KSPL1", Update.to_bytes u, `Plain);
       ("KSPL2", Update.to_bytes_store store u, `Store store);
       ("KSPL3", Update.to_bytes_store store cu, `Store store) ])

let decode_total (b : Bytes.t) = function
  | `Plain -> (
    match Update.of_bytes b with
    | Ok _ -> `Ok
    | Error _ -> `Error
    | exception e -> `Raised e)
  | `Store store -> (
    match Update.of_bytes_store store b with
    | Ok _ -> `Ok
    | Error _ -> `Error
    | exception e -> `Raised e)

let test_every_prefix_rejected () =
  List.iter
    (fun (fmt, b, how) ->
      for n = 0 to Bytes.length b - 1 do
        match decode_total (Bytes.sub b 0 n) how with
        | `Error -> ()
        | `Ok -> Alcotest.failf "%s: prefix of %d bytes parsed" fmt n
        | `Raised e ->
          Alcotest.failf "%s: prefix of %d bytes raised %s" fmt n
            (Printexc.to_string e)
      done;
      (* supersedes_of_bytes shares the totality guarantee *)
      for n = 0 to Bytes.length b - 1 do
        ignore (Update.supersedes_of_bytes (Bytes.sub b 0 n) : string list)
      done)
    (Lazy.force blobs)

let prop_byte_flip_total =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"update decode is total under byte flips"
    ~count:600
    (tup3 (int_range 0 2) (int_range 0 100_000) (int_range 1 255))
    (fun (which, pos, flip) ->
      let _, b, how = List.nth (Lazy.force blobs) which in
      let b = Bytes.copy b in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor flip);
      match decode_total b how with
      | `Ok | `Error ->
        (match Update.supersedes_of_bytes b with
         | (_ : string list) -> true
         | exception _ -> false)
      | `Raised _ -> false)

let suite =
  [
    ( "update-format",
      [
        t "roundtrip all corpus updates" test_roundtrip_all;
        t "corruption rejected" test_corruption_rejected;
        t "deserialised update applies" test_deserialised_update_applies;
        t "store-backed roundtrip (KSPL2)" test_store_roundtrip_all;
        t "store dedups shared helpers" test_store_dedups_helpers;
        t "legacy KSPL1 readable by store reader"
          test_legacy_readable_by_store_reader;
        t "plain reader refuses KSPL2" test_plain_reader_refuses_kspl2;
        t "ordinary update stays byte-identical KSPL2"
          test_ordinary_stays_kspl2;
        t "cumulative roundtrip (KSPL3)" test_kspl3_roundtrip;
        t "KSPL1 carries cumulative fields"
          test_kspl1_roundtrips_cumulative_fields;
        t "every truncated prefix rejected" test_every_prefix_rejected;
        QCheck_alcotest.to_alcotest prop_byte_flip_total;
      ] );
  ]
