(* The sweep engine: a negative control (a fake sweep with one planted
   violation must fail, and say where), serial = parallel reports,
   typed errors for unknown sweeps and rows, and a total
   ksplice-sweep/1 reader: round trips, and Error — never an exception
   — on truncated or retyped documents. *)

module Sweep = Corpus.Sweep
module Json = Report.Json

let t name f = Alcotest.test_case name `Quick f

(* five rows; row "c" breaks a contract. Counters depend on the seed and
   the row position, as a real sweep's do. *)
let fake ?(check = fun _ -> []) () =
  { Sweep.name = "fake";
    doc = "a sweep with one planted violation";
    rows =
      (fun ~seed keys ->
        let keys = if keys = [] then [ "a"; "b"; "c"; "d"; "e" ] else keys in
        Ok
          (List.mapi
             (fun i key () ->
               let bad = String.equal key "c" in
               { Sweep.key;
                 cells = (if bad then "RR!" else "RRR");
                 counters = [ ("seed", seed + (7 * i)); ("cells", 3) ];
                 notes = (if bad then [ "planted violation" ] else []);
                 detail = Json.Obj [ ("i", Json.Num (float_of_int i)) ] })
             keys));
    check }

let run_ok ?keys ~domains sw =
  match Sweep.run ~seed:11 ?keys ~domains sw with
  | Ok r -> r
  | Error e -> Alcotest.failf "%a" Sweep.pp_error e

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0

let test_negative_control () =
  let serial = run_ok ~domains:1 (fake ()) in
  Alcotest.(check bool) "the planted violation fails the report" false
    (Sweep.ok serial);
  let text = Format.asprintf "%a" Sweep.pp serial in
  Alcotest.(check bool) "pp names the violating row" true
    (contains text "VIOLATION c: planted violation");
  Alcotest.(check bool) "pp gives the failed verdict" true
    (contains text "FAILED: 1 violation(s)");
  Alcotest.(check int) "totals sum the counters" 15 (Sweep.total serial "cells");
  Alcotest.(check int) "totals count the rows" 5 (Sweep.total serial "rows");
  Alcotest.(check bool) "serial = parallel" true
    (serial = run_ok ~domains:2 (fake ()))

let test_positive_control () =
  let r = run_ok ~keys:[ "a"; "b"; "d" ] ~domains:2 (fake ()) in
  Alcotest.(check bool) "without the bad row the report passes" true
    (Sweep.ok r);
  Alcotest.(check (list string)) "rows keep key order" [ "a"; "b"; "d" ]
    (List.map (fun (row : Sweep.row) -> row.key) r.rows)

let test_check_failure () =
  let check totals =
    if List.assoc "cells" totals < 100 then [ "too few cells" ] else []
  in
  let r = run_ok ~keys:[ "a" ] ~domains:1 (fake ~check ()) in
  Alcotest.(check (list string)) "check sees the totals" [ "too few cells" ]
    r.failures;
  Alcotest.(check bool) "a whole-report failure fails the report" false
    (Sweep.ok r);
  Alcotest.(check bool) "pp names it" true
    (contains (Format.asprintf "%a" Sweep.pp r) "VIOLATION fake sweep: too few cells")

let test_typed_errors () =
  (match Sweep.find "bogus" with
   | Error (Sweep.Unknown_sweep "bogus") -> ()
   | _ -> Alcotest.fail "an unknown sweep must be Unknown_sweep");
  List.iter
    (fun (sw : Sweep.t) ->
      match Sweep.run ~keys:[ "BOGUS" ] sw with
      | Error (Sweep.Unknown_row { sweep; key = "BOGUS"; _ }) ->
        Alcotest.(check string) "the error names the sweep" sw.name sweep
      | Error e -> Alcotest.failf "%s: %a" sw.name Sweep.pp_error e
      | Ok _ -> Alcotest.failf "%s ran an unknown row" sw.name)
    Sweep.all;
  Alcotest.(check (list string)) "the registry"
    [ "fault"; "manager"; "crash"; "transition"; "fleet"; "cumulative";
      "diffmin" ]
    (List.map (fun (sw : Sweep.t) -> sw.name) Sweep.all)

(* --- the reader, under random and hostile documents --- *)

let gen_report =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_range 0 6) in
  let ints = list_size (int_range 0 3) (pair str (int_range (-5) 1_000_000)) in
  let detail =
    oneofl
      [ Json.Null;
        Json.Obj [ ("status", Json.Str "parked"); ("attempts", Json.Num 2.) ];
        Json.Arr [ Json.Bool true; Json.Num (-0.5) ] ]
  in
  let row =
    map
      (fun (key, cells, counters, notes, detail) ->
        { Sweep.key; cells; counters; notes; detail })
      (tup5 str str ints (list_size (int_range 0 2) str) detail)
  in
  map
    (fun (sweep, seed, rows, totals, failures) ->
      { Sweep.sweep; seed; rows; totals; failures })
    (tup5 str (int_range (-3) 100_000)
       (list_size (int_range 0 4) row)
       ints
       (list_size (int_range 0 2) str))

let print_report r = Json.to_string (Sweep.to_json r)

let rand () = Random.State.make [| 0x5eed |]

let prop_round_trip =
  QCheck2.Test.make ~name:"sweep report: of_json inverts to_json" ~count:300
    ~print:print_report gen_report (fun r ->
      Sweep.of_json (Sweep.to_json r) = Ok r
      && Result.bind (Json.parse (Json.to_string (Sweep.to_json r)))
           Sweep.of_json
         = Ok r)

let retype = function
  | Json.Str _ -> Json.Num 1.
  | Json.Num _ -> Json.Str "1"
  | Json.Arr _ -> Json.Obj []
  | Json.Obj _ -> Json.Arr []
  | Json.Bool _ -> Json.Null
  | Json.Null -> Json.Bool false

(* apply [f] to field [k] of an object; [None] drops the field *)
let edit k f = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k', v) ->
           if String.equal k k' then Option.map (fun v -> (k', v)) (f v)
           else Some (k', v))
         kvs)
  | j -> j

(* every schema field, dropped or retyped, at the top or in a row;
   counter values and notes are retyped element-wise ("detail" holds any
   JSON, so it may only be dropped) *)
let targets =
  List.concat_map
    (fun k -> [ (`Top k, `Drop); (`Top k, `Retype) ])
    [ "schema"; "sweep"; "seed"; "rows"; "totals"; "failures" ]
  @ List.concat_map
      (fun k -> [ (`Row k, `Drop); (`Row k, `Retype) ])
      [ "key"; "cells"; "counters"; "notes" ]
  @ [ (`Row "detail", `Drop); (`Row_element "counters", `Retype);
      (`Row_element "notes", `Retype); (`Top_element "totals", `Retype);
      (`Top_element "failures", `Retype) ]

let break doc (target, how) =
  let f v = match how with `Drop -> None | `Retype -> Some (retype v) in
  let first_element = function
    | Json.Obj ((k, v) :: kvs) -> Some (Json.Obj ((k, retype v) :: kvs))
    | Json.Arr (v :: vs) -> Some (Json.Arr (retype v :: vs))
    | _ -> None
  in
  let rows = match Json.member "rows" doc with Some (Json.Arr l) -> l | _ -> [] in
  match target with
  | `Top k -> Some (edit k f doc)
  | `Top_element k ->
    Option.map
      (fun v -> edit k (fun _ -> Some v) doc)
      (Option.bind (Json.member k doc) first_element)
  | `Row k when rows <> [] ->
    Some
      (edit "rows"
         (fun _ -> Some (Json.Arr (edit k f (List.hd rows) :: List.tl rows)))
         doc)
  | `Row_element k -> (
    match rows with
    | row :: rest -> (
      match Option.bind (Json.member k row) first_element with
      | Some v ->
        Some
          (edit "rows"
             (fun _ -> Some (Json.Arr (edit k (fun _ -> Some v) row :: rest)))
             doc)
      | None -> None)
    | [] -> None)
  | `Row _ -> None

let prop_retyped_is_error =
  QCheck2.Test.make ~name:"sweep report: a dropped or retyped field is an Error"
    ~count:300 ~print:print_report gen_report (fun r ->
      let doc = Sweep.to_json r in
      List.for_all
        (fun target ->
          match break doc target with
          | None -> true (* nothing to break: no row, or an empty list *)
          | Some bad -> (
            match Sweep.of_json bad with
            | Error _ -> true
            | Ok _ -> false
            | exception _ -> false))
        targets)

let prop_truncated_total =
  QCheck2.Test.make ~name:"sweep report: truncated text never raises"
    ~count:300
    ~print:(fun (r, n) -> Printf.sprintf "%d bytes of %s" n (print_report r))
    QCheck2.Gen.(pair gen_report (int_range 0 100_000))
    (fun (r, n) ->
      let text = Json.to_string (Sweep.to_json r) in
      let cut = String.sub text 0 (n mod String.length text) in
      match Result.bind (Json.parse cut) Sweep.of_json with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let qt p = QCheck_alcotest.to_alcotest ~rand:(rand ()) p

let suite =
  [
    ( "sweep-engine",
      [
        t "negative control and serial = parallel" test_negative_control;
        t "positive control" test_positive_control;
        t "whole-report check" test_check_failure;
        t "unknown sweeps and rows are typed errors" test_typed_errors;
        qt prop_round_trip;
        qt prop_retyped_is_error;
        qt prop_truncated_total;
      ] );
  ]
