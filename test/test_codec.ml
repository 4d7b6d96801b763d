(* The byte formats. Every encoding stays byte-identical: fixed samples
   of each format are held to the digests their hand-rolled codecs
   produced before moving onto {!Codec}. Every decoder is total and
   canonical: on any mutation of a valid encoding it never raises, and
   whatever it accepts re-encodes to exactly the bytes it consumed. *)

module Section = Objfile.Section
module Symbol = Objfile.Symbol
module Update = Ksplice.Update
module Diffobj = Ksplice.Diffobj
module Repo = Ksplice.Repository
module Tree = Patchfmt.Source_tree
module Wire = Fleet.Wire

(* --- fixed samples --- *)

let obj unit_name =
  let sec name kind data relocs =
    Section.make ~name ~kind ~align:4 (Bytes.of_string data) relocs
  in
  let reloc offset kind sym addend =
    { Objfile.Reloc.offset; kind; sym; addend }
  in
  let def ?binding kind name size section =
    Symbol.make ?binding ~size ~kind ~name (Some { Symbol.section; value = 0 })
  in
  Objfile.make ~unit_name
    ~sections:
      [ sec ".text.f" Text "\x01\x42\x01\x42\x01\x00\xff"
          [ reloc 1 Pc32 "callee" (-4l); reloc 3 Abs32 "debug" 7l ];
        sec ".rodata.str" Rodata "hi\000" [];
        sec ".ksplice.hooks" Note "\000\000\000\000" [];
        sec ".data" Data "*\000\000\000" [];
        Section.make_bss ~name:".bss" ~align:8 64 ]
    ~symbols:
      [ def ~binding:Global `Func "f" 7 ".text.f";
        def `Object "debug" 4 ".data"; def `Notype "buf" 64 ".bss";
        Symbol.make ~name:"callee" None ]

let update =
  { Update.update_id = "golden-1"; description = "a fixed update";
    patched_units = [ "kernel/a.c"; "kernel/b.c" ];
    replaced_functions =
      [ ("kernel/a.c", "f"); ("kernel/b.c", "g@kernel/b.c") ];
    primary = obj "primary"; helpers = [ obj "kernel/a.c"; obj "kernel/b.c" ];
    primary_sym_units = [ ("f", "kernel/a.c") ];
    supersedes = []; shadow_ctors = []; shadow_dtors = [] }

let cumulative =
  { update with
    Update.supersedes = [ "golden-0" ]; shadow_ctors = [ "ctor@kernel/a.c" ];
    shadow_dtors = [ "dtor@kernel/a.c"; "dtor2@kernel/a.c" ] }

let unit_diff =
  { Diffobj.unit_name = "kernel/a.c"; changed_functions = [ "f"; "g" ];
    new_functions = [ "h" ]; removed_functions = []; changed_data = [ "d" ];
    changed_rodata = [ ".Lstr1" ]; new_data = [];
    renames = [ (".Lstr1", ".Lstr0") ];
    inclusion =
      [ ("f", Changed); ("h", New); (".Lstr1", Closure_of "f");
        ("g", Data_referent ".Lstr1") ] }

(* the compile cache's blob for one freshly built unit *)
let kbuild_unit () =
  let src =
    "static int inc(int x) { return x + 1; }\n\
     int twice(int y) { return inc(y) * 2; }\n"
  in
  Kbuild.reset_cache ();
  ignore
    (Result.get_ok
       (Kbuild.build_tree ~options:Minic.Driver.pre_build
          (Tree.of_list [ ("golden/unit.c", src) ])));
  let st = Kbuild.store () in
  Option.get (Store.get st (snd (List.hd (Store.refs st))))

let repo_entry () =
  let store = Store.create ~name:"golden-repo" () in
  let source = Tree.of_list [ ("a.c", "int f(void) { return 1; }\n") ] in
  let post = Tree.of_list [ ("a.c", "int f(void) { return 2; }\n") ] in
  let patch = Patchfmt.Diff.diff_trees source post in
  ignore
    (Result.get_ok (Repo.publish (Repo.of_store store) ~source ~patch ~update));
  Option.get (Store.get store (snd (List.hd (Store.refs store))))

let journal_record () =
  Test_store.with_dir (fun dir ->
      let st = Store.create ~name:"golden-journal" ~dir ~share:false () in
      let d = Store.digest_of_string in
      Store.append_journal st
        [ ("head", None, d "new"); ("entry:x", Some (d "old"), d "y") ];
      In_channel.with_open_bin (Filename.concat dir "journal")
        In_channel.input_all)

let frames =
  Wire.
    [ Hello { version = 1; peer = "sub-1" };
      Hello_ack { version = 1; peer = "server" };
      Head { digest = Store.digest_of_string "head" };
      Manifest
        [ { mi_base = "b"; mi_next = "n"; mi_blob = "x"; mi_size = 1234;
            mi_objects = [ ("o1", 10); ("o2", 20) ] };
          { mi_base = "n"; mi_next = "m"; mi_blob = "y"; mi_size = 0;
            mi_objects = [] } ];
      Want [ "d1"; "d2"; "" ];
      Blob { digest = "d1"; bytes = "\000\001payload\255" };
      Done { head = "m" };
      Err { code = "E42"; msg = "no such chain" } ]

(* (format, encoding); the store-backed updates go through [store] *)
let samples store =
  let b = Bytes.to_string in
  [ ("SELF1", b (Objfile.to_bytes (obj "kernel/a.c")));
    ("KSPL1", b (Update.to_bytes update));
    ("KSPL1-cumulative", b (Update.to_bytes cumulative));
    ("KSPL2", b (Update.to_bytes_store store update));
    ("KSPL3", b (Update.to_bytes_store store cumulative));
    ("UDF2", Codec.encode Diffobj.codec unit_diff);
    ("kbuild-unit/1", kbuild_unit ());
    ("KSPLREPO2", repo_entry ());
    ("J1", journal_record ()) ]
  @ List.mapi
      (fun i f -> (Printf.sprintf "KFR1-tag%d" (i + 1), Wire.encode f))
      frames

(* (format, length, MD5) *)
let golden =
  [
    ("SELF1", 327, "2ceb6387236164652f4e382fd7b54096");
    ("KSPL1", 1149, "7ddcdb8b9ab6b38465268868c081a50e");
    ("KSPL1-cumulative", 1219, "1769178aa70861595a09da07dc0ea338");
    ("KSPL2", 255, "1b167d9bb9facb4771ae49e2b9eb95f5");
    ("KSPL3", 337, "0cea58e3aab3093c945ceaf3a57e809e");
    ("UDF2", 113, "73365a4ed40afe3d80a0b5f6b925cd7d");
    ("kbuild-unit/1", 303, "8cbcbe48a2461f253db486be87146bc0");
    ("KSPLREPO2", 434, "a339572342ba633e646a464bc6c78920");
    ("J1", 165, "bde9ebbc1ac167a66a325e79973ba707");
    ("KFR1-tag1", 38, "ad67b141529aba1781a161d7ae07e22d");
    ("KFR1-tag2", 39, "e2be25e81addc11119a2f93fe094be56");
    ("KFR1-tag3", 61, "c919b0ca372c5015b85c0b0dec1657dd");
    ("KFR1-tag4", 95, "201c449143e62afc98cf433826eca54b");
    ("KFR1-tag5", 45, "f6836b5853029e7e8274e3fedd6b0266");
    ("KFR1-tag6", 45, "7a385db16a23729c4b1c04517655c5bd");
    ("KFR1-tag7", 30, "987555762cdf1b72da0c5ad4197e8b31");
    ("KFR1-tag8", 49, "678f4350397913785de756943092caab")
  ]

let test_golden () =
  let samples = samples (Store.create ~name:"golden-upd" ()) in
  List.iter
    (fun (name, len, md5) ->
      let s = List.assoc name samples in
      Alcotest.(check (pair int string))
        name (len, md5)
        (String.length s, Digest.to_hex (Digest.string s)))
    golden

(* --- totality and canonicality --- *)

(* Each decoder under test is (format, sample inputs, accept), where
   [accept s] is [None] when [s] is rejected, else the bytes it consumed
   and the re-encoding of what it decoded from them. *)
let of_codec c s =
  Codec.decode c s |> Result.to_option
  |> Option.map (fun v -> (s, Codec.encode c v))

let decoders =
  lazy
    (let store = Store.create ~name:"codec-props" () in
     let samples = samples store in
     let seeds prefix =
       List.filter (fun (name, _) -> String.starts_with ~prefix name) samples
       |> List.map snd
     in
     let update_via decode encode s =
       decode (Bytes.of_string s) |> Result.to_option
       |> Option.map (fun u -> (s, Bytes.to_string (encode s u)))
     in
     let entry =
       { Repo.base_digest = "b"; next_digest = "n"; patch_text = "p";
         update = cumulative }
     in
     [ ("SELF1", seeds "SELF1", of_codec Objfile.codec);
       ( "KSPL1", seeds "KSPL1",
         update_via Update.of_bytes (fun _ -> Update.to_bytes) );
       (* the store reader also takes KSPL1, whose writer is [to_bytes] *)
       ( "KSPL1/2/3 via the store",
         seeds "KSPL1" @ seeds "KSPL2" @ seeds "KSPL3",
         update_via (Update.of_bytes_store store) (fun s u ->
             if String.starts_with ~prefix:"KSPL1" s then Update.to_bytes u
             else Update.to_bytes_store store u) );
       ( "UDF2",
         Codec.encode Diffobj.codec (Diffobj.empty "u.c") :: seeds "UDF2",
         of_codec Diffobj.codec );
       ("kbuild-unit/1", seeds "kbuild", of_codec Kbuild.unit_codec);
       ( "KSPLREPO2", [ Codec.encode (Repo.entry_codec store) entry ],
         of_codec (Repo.entry_codec store) );
       ("J1", seeds "J1", of_codec Store.journal_codec);
       ( "KFR1", seeds "KFR1",
         fun s ->
           match Wire.decode s ~pos:0 with
           | Ok (f, p) -> Some (String.sub s 0 p, Wire.encode f)
           | Error _ -> None ) ])

(* A mutation is (kind, a, b, bytes): flip byte [a] by XOR [b], truncate
   to [a] bytes, append [bytes], respell decimal length [a] with
   non-canonical variant [b] of the same number (a leading zero, a sign,
   an underscore, hex), or replace everything by [bytes]. *)
let gen_mutation =
  QCheck2.Gen.(
    quad (int_range 0 4) (int_range 0 100_000) (int_range 1 255)
      (string_size (int_range 1 64)))

(* (start, colon) of every "<digits>:" run *)
let decimal_lengths s =
  let digit i = s.[i] >= '0' && s.[i] <= '9' in
  List.init (String.length s) Fun.id
  |> List.filter_map (fun colon ->
         let i = ref colon in
         while !i > 0 && digit (!i - 1) do decr i done;
         if s.[colon] = ':' && !i < colon then Some (!i, colon) else None)

let apply (kind, a, b, bytes) s =
  let n = String.length s in
  match kind, decimal_lengths s with
  | 0, _ when n > 0 ->
    let s = Bytes.of_string s in
    Bytes.set_uint8 s (a mod n) (Bytes.get_uint8 s (a mod n) lxor b);
    Bytes.to_string s
  | 1, _ when n > 0 -> String.sub s 0 (a mod n)
  | 2, _ -> s ^ bytes
  | 3, (_ :: _ as ls) ->
    let i, j = List.nth ls (a mod List.length ls) in
    let d = String.sub s i (j - i) in
    let spelled =
      match b mod 5 with
      | 0 -> "0" ^ d
      | 1 -> "+" ^ d
      | 2 -> String.sub d 0 1 ^ "_" ^ String.sub d 1 (String.length d - 1)
      | 3 -> Printf.sprintf "0x%x" (int_of_string d)
      | _ -> "-" ^ d
    in
    String.sub s 0 i ^ spelled ^ String.sub s j (n - j)
  | 4, _ -> bytes
  | _ -> s

let prop_total_and_canonical =
  QCheck2.Test.make ~name:"every decoder is total and canonical" ~count:300
    ~print:QCheck2.Print.(quad int int int string)
    gen_mutation (fun m ->
      let check (format, _, accept) seed =
        let input = apply m seed in
        match accept input with
        | None -> true
        | Some (consumed, re) ->
          String.equal consumed re
          || QCheck2.Test.fail_reportf
               "%s accepted %d bytes that re-encode to %d bytes" format
               (String.length consumed) (String.length re)
        | exception e ->
          QCheck2.Test.fail_reportf "%s raised %s on %S" format
            (Printexc.to_string e) input
      in
      List.for_all
        (fun ((_, seeds, _) as d) -> List.for_all (check d) seeds)
        (Lazy.force decoders))

(* the reader's own rejections: (input, reader, reason) *)
let hostile =
  let open Codec.R in
  let ns_field spelling =
    (spelling ^ ":abc", (fun r -> ignore (ns r)), "bad length prefix")
  in
  [ ("\255\255\255\127", (fun r -> ignore (list r u8)), "bad list length");
    ("\252\255\255\255", (fun r -> ignore (str r)), "negative length");
    ("4:ab", (fun r -> ignore (ns r)), "truncated input");
    ("1:ab", (fun r -> ignore (ns r)), "trailing bytes");
    ("1:9", (fun r -> ignore (ns_list r ns)), "bad list length") ]
  @ List.map ns_field [ "03"; "+3"; "3_"; "0x3"; "-0"; ""; "1000000000" ]

let test_hostile_fields () =
  List.iter
    (fun (input, read, reason) ->
      match Codec.decode { Codec.write = (fun _ () -> ()); read } input with
      | Ok () -> Alcotest.failf "%S accepted" input
      | Error e ->
        Alcotest.(check string) (String.escaped input) reason e.reason)
    hostile

let suite =
  [ ( "codec",
      [ Alcotest.test_case "every format is byte-identical" `Quick test_golden;
        Alcotest.test_case "the reader rejects hostile fields" `Quick
          test_hostile_fields;
        QCheck_alcotest.to_alcotest prop_total_and_canonical ] ) ]
