type t = {
  unit_name : string;
  sections : Section.t list;
  symbols : Symbol.t list;
}

let make ~unit_name ~sections ~symbols = { unit_name; sections; symbols }

let pp ppf o =
  Format.fprintf ppf "@[<v2>object %s@,%a@,%a@]" o.unit_name
    (Format.pp_print_list Section.pp)
    o.sections
    (Format.pp_print_list Symbol.pp)
    o.symbols

let find_section o name =
  List.find_opt (fun (s : Section.t) -> String.equal s.name name) o.sections

let symbols_named o name =
  List.filter (fun (s : Symbol.t) -> String.equal s.name name) o.symbols

let find_symbol o name =
  match symbols_named o name with [] -> None | s :: _ -> Some s

let defined_symbols_in o section =
  o.symbols
  |> List.filter (fun (s : Symbol.t) ->
       match s.def with
       | Some d -> String.equal d.section section
       | None -> false)
  |> List.sort (fun (a : Symbol.t) b ->
       match a.def, b.def with
       | Some da, Some db -> compare da.value db.value
       | _ -> 0)

let undefined_symbols o =
  let defined =
    List.filter_map
      (fun (s : Symbol.t) -> if Symbol.is_defined s then Some s.name else None)
      o.symbols
  in
  let referenced =
    List.concat_map
      (fun (s : Section.t) -> List.map (fun (r : Reloc.t) -> r.sym) s.relocs)
      o.sections
  in
  referenced
  |> List.filter (fun n -> not (List.mem n defined))
  |> List.sort_uniq compare

(* --- binary format (SELF1) --- *)

module W = Codec.W
module R = Codec.R

let magic = "SELF1"

let kind_code = function
  | Section.Text -> 0 | Section.Data -> 1 | Section.Rodata -> 2
  | Section.Bss -> 3 | Section.Note -> 4

let rkind_code = function Reloc.Abs32 -> 0 | Reloc.Pc32 -> 1
let skind_code = function `Func -> 0 | `Object -> 1 | `Notype -> 2

let write_reloc b (r : Reloc.t) =
  W.int b r.offset;
  W.u8 b (rkind_code r.kind);
  W.str b r.sym;
  W.i32 b r.addend

let write_section b (s : Section.t) =
  W.str b s.name;
  W.u8 b (kind_code s.kind);
  W.int b s.size;
  W.int b s.align;
  W.str b (Bytes.unsafe_to_string s.data);
  W.list write_reloc b s.relocs

let write_symbol b (s : Symbol.t) =
  W.str b s.name;
  W.u8 b (match s.binding with Symbol.Local -> 0 | Symbol.Global -> 1);
  W.u8 b (skind_code s.kind);
  W.int b s.size;
  match s.def with
  | None -> W.u8 b 0
  | Some d ->
    W.u8 b 1;
    W.str b d.section;
    W.int b d.value

let write b o =
  Buffer.add_string b magic;
  W.str b o.unit_name;
  W.list write_section b o.sections;
  W.list write_symbol b o.symbols

let read_reloc r =
  let offset = R.int r in
  let kind =
    match R.u8 r with
    | 0 -> Reloc.Abs32
    | 1 -> Reloc.Pc32
    | n -> R.fail r (Printf.sprintf "bad reloc kind %d" n)
  in
  let sym = R.str r in
  let addend = R.i32 r in
  { Reloc.offset; kind; sym; addend }

let read_section r =
  let name = R.str r in
  let kind =
    match R.u8 r with
    | 0 -> Section.Text
    | 1 -> Section.Data
    | 2 -> Section.Rodata
    | 3 -> Section.Bss
    | 4 -> Section.Note
    | n -> R.fail r (Printf.sprintf "bad section kind %d" n)
  in
  let size = R.int r in
  let align = R.int r in
  let data = Bytes.of_string (R.str r) in
  let relocs = R.list r read_reloc in
  { Section.name; kind; data; size; align; relocs }

let read_symbol r =
  let name = R.str r in
  let binding =
    match R.u8 r with
    | 0 -> Symbol.Local
    | 1 -> Symbol.Global
    | n -> R.fail r (Printf.sprintf "bad binding %d" n)
  in
  let kind =
    match R.u8 r with
    | 0 -> `Func
    | 1 -> `Object
    | 2 -> `Notype
    | n -> R.fail r (Printf.sprintf "bad symbol kind %d" n)
  in
  let size = R.int r in
  let def =
    match R.u8 r with
    | 0 -> None
    | 1 ->
      let section = R.str r in
      let value = R.int r in
      Some { Symbol.section; value }
    | n -> R.fail r (Printf.sprintf "bad def flag %d" n)
  in
  { Symbol.name; binding; def; size; kind }

let read r =
  R.magic r magic;
  let unit_name = R.str r in
  let sections = R.list r read_section in
  let symbols = R.list r read_symbol in
  { unit_name; sections; symbols }

let codec = { Codec.write; read }
let to_bytes o = Bytes.unsafe_of_string (Codec.encode codec o)

(* the decode copies every field out, so the caller's buffer is never
   aliased *)
let of_bytes buf = Codec.decode codec (Bytes.unsafe_to_string buf)
