type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- writer --- *)

(* The writer emits pure ASCII: codepoints >= 0x80 leave as \uXXXX
   escapes, so the output is valid JSON no matter what bytes an OCaml
   string carries. Valid UTF-8 sequences (2- and 3-byte, minimally
   encoded, non-surrogate) become their codepoint's escape; any byte
   that is not part of one — lone continuation bytes, overlong forms,
   4-byte sequences beyond the BMP — is escaped as a lone low
   surrogate \udcXX (the "surrogateescape" convention), which the
   parser folds back to the raw byte. parse (to_string v) = v for
   every [Str], whatever its bytes. *)
let escape_string b s =
  let n = String.length s in
  let esc code = Buffer.add_string b (Printf.sprintf "\\u%04x" code) in
  let byte i = Char.code s.[i] in
  let cont i = i < n && byte i land 0xc0 = 0x80 in
  Buffer.add_char b '"';
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let c0 = Char.code c in
    (match c with
     | '"' ->
       Buffer.add_string b "\\\"";
       incr i
     | '\\' ->
       Buffer.add_string b "\\\\";
       incr i
     | '\n' ->
       Buffer.add_string b "\\n";
       incr i
     | '\r' ->
       Buffer.add_string b "\\r";
       incr i
     | '\t' ->
       Buffer.add_string b "\\t";
       incr i
     | _ when c0 < 0x20 ->
       esc c0;
       incr i
     | _ when c0 < 0x80 ->
       Buffer.add_char b c;
       incr i
     | _ when c0 land 0xe0 = 0xc0 && cont (!i + 1) ->
       let code = ((c0 land 0x1f) lsl 6) lor (byte (!i + 1) land 0x3f) in
       if code >= 0x80 then begin
         (* minimally-encoded 2-byte sequence *)
         esc code;
         i := !i + 2
       end
       else begin
         (* overlong: not valid UTF-8 — escape the raw byte *)
         esc (0xdc00 lor c0);
         incr i
       end
     | _ when c0 land 0xf0 = 0xe0 && cont (!i + 1) && cont (!i + 2) ->
       let code =
         ((c0 land 0x0f) lsl 12)
         lor ((byte (!i + 1) land 0x3f) lsl 6)
         lor (byte (!i + 2) land 0x3f)
       in
       if code >= 0x800 && not (code >= 0xd800 && code <= 0xdfff) then begin
         esc code;
         i := !i + 3
       end
       else begin
         (* overlong or an encoded surrogate: invalid UTF-8 *)
         esc (0xdc00 lor c0);
         incr i
       end
     | _ ->
       (* stray continuation byte, truncated sequence, or a 4-byte
          (beyond-BMP) lead: escape byte by byte *)
       esc (0xdc00 lor c0);
       incr i)
  done;
  Buffer.add_char b '"'

(* NaN and the infinities have no JSON representation; emitting the
   %.17g spellings ("nan", "inf") silently corrupts the document for
   every consumer. Write [null] for them, deterministically — a report
   with a degenerate ratio stays parseable. *)
let add_num b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let to_string v =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> add_num b f
    | Str s -> escape_string b s
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          escape_string b k;
          Buffer.add_string b ": ";
          go (indent + 2) item)
        fields;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- parser --- *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then
              fail "truncated \\u escape (need 4 hex digits)";
            (* hand-rolled hex so "\u12_3" and "\u+123" are rejected;
               int_of_string_opt accepts both *)
            let hex_digit c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
              | _ -> fail "bad \\u escape (non-hex digit)"
            in
            let code =
              (hex_digit s.[!pos + 1] lsl 12)
              lor (hex_digit s.[!pos + 2] lsl 8)
              lor (hex_digit s.[!pos + 3] lsl 4)
              lor hex_digit s.[!pos + 4]
            in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code >= 0xdc00 && code <= 0xdcff then
              (* surrogate-escaped raw byte from [escape_string] *)
              Buffer.add_char b (Char.chr (code land 0xff))
            else if code < 0x800 then begin
              (* non-ASCII escapes round-trip as UTF-8 *)
              Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end;
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
         advance ());
        loop ()
      | c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* --- accessors --- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None

(* --- files --- *)

let to_file path v =
  match open_out path with
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string v));
    Ok ()
  | exception Sys_error msg -> Error msg

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated while reading")
  | text -> (
    match parse text with
    | Ok v -> Ok v
    | Error msg -> Error (path ^ ": " ^ msg))
