(* Writer/parser roundtrip for the JSON reports and exports. *)

module Json = Report.Json

let t name f = Alcotest.test_case name `Quick f
let q = QCheck_alcotest.to_alcotest

let sample =
  Json.Obj
    [
      ("schema", Json.Str "ksplice-bench/1");
      ("ok", Json.Bool true);
      ("nothing", Json.Null);
      ("n", Json.Num 42.);
      ("rate", Json.Num 0.875);
      ("empty_arr", Json.Arr []);
      ("empty_obj", Json.Obj []);
      ( "rows",
        Json.Arr
          [
            Json.Obj
              [ ("name", Json.Str "a b\n\"c\"\\d"); ("wall_s", Json.Num 1.5) ];
          ] );
    ]

let test_roundtrip () =
  match Json.parse (Json.to_string sample) with
  | Ok v -> Alcotest.(check bool) "roundtrip" true (v = sample)
  | Error m -> Alcotest.fail m

let test_accessors () =
  let get k = Json.member k sample in
  Alcotest.(check (option string))
    "member/to_str" (Some "ksplice-bench/1")
    (Option.bind (get "schema") Json.to_str);
  Alcotest.(check (option int)) "to_int" (Some 42)
    (Option.bind (get "n") Json.to_int);
  Alcotest.(check (option int))
    "to_int rejects fractions" None
    (Option.bind (get "rate") Json.to_int);
  Alcotest.(check bool) "to_list" true
    (Option.bind (get "rows") Json.to_list <> None);
  Alcotest.(check bool) "missing member" true (get "absent" = None)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{}x";
      (* truncated and malformed \u escapes must be Error, never an
         exception, and the 4 digits must be hex — int_of_string-style
         laxness ("0x12_3", "0x+123") is not JSON *)
      "\"\\u"; "\"\\u1"; "\"\\u12"; "\"\\u123"; "\"\\u123\"";
      "\"\\u12_3\""; "\"\\u+123\""; "\"\\u12g3\"" ]

let test_nonfinite_nulls () =
  Alcotest.(check string) "nan prints null" "null\n"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf prints null" "null\n"
    (Json.to_string (Json.Num Float.infinity));
  Alcotest.(check string) "-inf prints null" "null\n"
    (Json.to_string (Json.Num Float.neg_infinity));
  (* a degenerate ratio inside a report stays parseable *)
  let doc = Json.Obj [ ("rate", Json.Num (0. /. 0.)); ("n", Json.Num 3.) ] in
  match Json.parse (Json.to_string doc) with
  | Ok v ->
    Alcotest.(check bool) "nan member became null" true
      (Json.member "rate" v = Some Json.Null);
    Alcotest.(check (option int)) "siblings survive" (Some 3)
      (Option.bind (Json.member "n" v) Json.to_int)
  | Error m -> Alcotest.fail m

let test_unicode_escapes () =
  (* \uXXXX >= 0x80 decodes to UTF-8 and re-escapes to ASCII: a fixpoint *)
  (match Json.parse "\"\\u00e9\"" with
   | Ok (Json.Str s as v) ->
     Alcotest.(check string) "\\u00e9 decodes to UTF-8" "\xc3\xa9" s;
     let printed = Json.to_string v in
     Alcotest.(check bool) "writer output is pure ASCII" true
       (String.for_all (fun c -> Char.code c < 0x80) printed);
     Alcotest.(check bool) "re-escaped, not raw" true
       (let rec has i =
          i + 6 <= String.length printed
          && (String.sub printed i 6 = "\\u00e9" || has (i + 1))
        in
        has 0);
     Alcotest.(check bool) "parse/print fixpoint" true
       (Json.parse printed = Ok v)
   | Ok _ -> Alcotest.fail "\\u00e9 did not parse to a string"
   | Error m -> Alcotest.fail m);
  (* a 3-byte escape round-trips too *)
  (match Json.parse "\"\\u20ac\"" with
   | Ok v -> Alcotest.(check bool) "\\u20ac fixpoint" true
               (Json.parse (Json.to_string v) = Ok v)
   | Error m -> Alcotest.fail m);
  (* bytes that are not valid UTF-8 ride through as \udcXX surrogate
     escapes: the codec is total over arbitrary byte strings *)
  let junk = Json.Str "\xff\xfe ok \x80" in
  let printed = Json.to_string junk in
  Alcotest.(check bool) "invalid bytes escape as \\udcXX" true
    (let rec has i =
       i + 6 <= String.length printed
       && (String.sub printed i 6 = "\\udcff" || has (i + 1))
     in
     has 0);
  Alcotest.(check bool) "surrogate escapes fold back" true
    (Json.parse printed = Ok junk);
  let all_bytes = Json.Str (String.init 256 Char.chr) in
  Alcotest.(check bool) "all 256 bytes round-trip" true
    (Json.parse (Json.to_string all_bytes) = Ok all_bytes)

let gen_json =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Num (float_of_int i)) small_signed_int;
            map (fun s -> Json.Str s) (string_size (int_bound 8));
          ]
      in
      if n = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map
                (fun l -> Json.Arr l)
                (list_size (int_bound 4) (self (n / 2))) );
            ( 1,
              map
                (fun l -> Json.Obj l)
                (list_size (int_bound 4)
                   (pair (string_size (int_bound 6)) (self (n / 2)))) );
          ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"to_string/parse roundtrip" ~count:200 gen_json
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* strings with teeth: all 256 bytes, heavy on control chars, quotes,
   backslashes, and UTF-8-looking fragments *)
let gen_wild_string =
  let open QCheck2.Gen in
  let wild_char =
    frequency
      [
        (4, char);
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x1f'; '\x7f' ]);
        (2, map Char.chr (int_range 0x80 0xff));
      ]
  in
  string_size ~gen:wild_char (int_bound 24)

let prop_roundtrip_wild =
  QCheck2.Test.make ~name:"roundtrip over arbitrary byte strings" ~count:500
    gen_wild_string
    (fun s -> Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s))

(* parsing any prefix of a valid document returns (Ok or Error) without
   raising — the PR 3 "corrupt logs fail loudly" promise, total over
   truncation points including mid-\u-escape *)
let prop_prefix_total =
  QCheck2.Test.make ~name:"every prefix parses without raising" ~count:100
    gen_json (fun v ->
      let text = Json.to_string v in
      let ok = ref true in
      for len = 0 to String.length text - 1 do
        match Json.parse (String.sub text 0 len) with
        | Ok _ | Error _ -> ()
        | exception e ->
          Printf.printf "prefix %d raised %s\n" len (Printexc.to_string e);
          ok := false
      done;
      !ok)

let suite =
  [
    ( "report json",
      [
        t "sample roundtrip" test_roundtrip;
        t "accessors" test_accessors;
        t "parse errors" test_parse_errors;
        t "non-finite floats print null" test_nonfinite_nulls;
        t "unicode and surrogate escapes" test_unicode_escapes;
        q prop_roundtrip;
        q prop_roundtrip_wild;
        q prop_prefix_total;
      ] );
  ]
