module Symbol = Objfile.Symbol

type t = {
  update_id : string;
  description : string;
  patched_units : string list;
  replaced_functions : (string * string) list;
  primary : Objfile.t;
  helpers : Objfile.t list;
  primary_sym_units : (string * string) list;
  supersedes : string list;
  shadow_ctors : string list;
  shadow_dtors : string list;
}

let is_cumulative u = u.supersedes <> []

let canonical ~binding ~unit_name name =
  match binding with
  | Symbol.Local -> name ^ "@" ^ unit_name
  | Symbol.Global -> name

let split_canonical n =
  match String.rindex_opt n '@' with
  | Some i ->
    (String.sub n 0 i, Some (String.sub n (i + 1) (String.length n - i - 1)))
  | None -> (n, None)

(* --- serialisation ---

   KSPL1 embeds every object; KSPL2 and KSPL3 intern the primary and
   every helper in the artifact store and carry only their digests, so
   stacked updates sharing a base kernel share one physical copy of each
   common helper. KSPL3 adds the cumulative records — the update ids
   this blob supersedes (atomic replace) and the shadow-variable
   constructor/destructor hooks; the writer emits it only when one of
   those is present, so ordinary updates stay byte-identical to their
   KSPL2 encoding. *)

module W = Codec.W
module R = Codec.R

type decode_error = Codec.error

let decode_error_to_string = Codec.error_to_string

let self_magic = "KSPL1"
let store_magic = "KSPL2"
let cumulative_magic = "KSPL3"

let has_cumulative_records u =
  u.supersedes <> [] || u.shadow_ctors <> [] || u.shadow_dtors <> []

let write_pair b (x, y) =
  W.str b x;
  W.str b y

let read_pair r =
  let x = R.str r in
  let y = R.str r in
  (x, y)

(* the magic decides the layout: KSPL2 stops before the cumulative
   records, KSPL1 and KSPL3 carry them *)
let encode ~magic ~obj u =
  let b = Buffer.create 8192 in
  Buffer.add_string b magic;
  W.str b u.update_id;
  W.str b u.description;
  W.list W.str b u.patched_units;
  W.list write_pair b u.replaced_functions;
  obj b u.primary;
  W.list obj b u.helpers;
  W.list write_pair b u.primary_sym_units;
  if not (String.equal magic store_magic) then begin
    W.list W.str b u.supersedes;
    W.list W.str b u.shadow_ctors;
    W.list W.str b u.shadow_dtors
  end;
  Buffer.to_bytes b

let read_fields ~magic ~obj r =
  let update_id = R.str r in
  let description = R.str r in
  let patched_units = R.list r R.str in
  let replaced_functions = R.list r read_pair in
  let primary = obj r in
  let helpers = R.list r obj in
  let primary_sym_units = R.list r read_pair in
  let supersedes, shadow_ctors, shadow_dtors =
    if String.equal magic store_magic then ([], [], [])
    else
      let s = R.list r R.str in
      let c = R.list r R.str in
      let d = R.list r R.str in
      (s, c, d)
  in
  R.finish r;
  let u =
    { update_id; description; patched_units; replaced_functions; primary;
      helpers; primary_sym_units; supersedes; shadow_ctors; shadow_dtors }
  in
  (* the writer never emits an empty KSPL3: such a blob is KSPL2's *)
  if String.equal magic cumulative_magic && not (has_cumulative_records u)
  then R.fail r "KSPL3 without cumulative records";
  u

let to_bytes =
  encode ~magic:self_magic ~obj:(fun b o ->
      W.str b (Codec.encode Objfile.codec o))

let embedded r =
  R.nested ~prefix:"bad embedded object: " r (Codec.decode Objfile.codec)
    (R.str r)

let read_self = read_fields ~magic:self_magic ~obj:embedded

(* one read of the magic picks the format: KSPL1 goes to [self], the
   store-backed two to [store] *)
let decode buf ~self ~store =
  R.run
    (fun r ->
      match R.take r (String.length self_magic) with
      | m when String.equal m self_magic -> self r
      | m when String.equal m store_magic || String.equal m cumulative_magic
        ->
        store ~magic:m r
      | _ -> R.fail ~off:0 r "bad magic")
    (Bytes.unsafe_to_string buf)
  |> Result.map fst

let of_bytes buf =
  decode buf ~self:read_self ~store:(fun ~magic:_ r ->
      R.fail ~off:0 r
        "store-backed update file; decode it with of_bytes_store against \
         the artifact store it was written through")

let intern_obj store o = Store.put store (Codec.encode Objfile.codec o)

let to_bytes_store store u =
  encode
    ~magic:
      (if has_cumulative_records u then cumulative_magic else store_magic)
    ~obj:(fun b o -> W.str b (intern_obj store o))
    u

let of_bytes_store store buf =
  let fetch r =
    let d = R.str r in
    match Store.load store d with
    | Ok raw -> (
      match Codec.decode Objfile.codec raw with
      | Ok o -> o
      | Error e ->
        R.fail r
          (Printf.sprintf "object %s does not parse: %s" d
             (Codec.error_to_string e)))
    | Error `Missing ->
      R.fail r ("object " ^ d ^ " is not in the artifact store")
    | Error (`Corrupt m) -> R.fail r ("corrupt object: " ^ m)
  in
  decode buf ~self:read_self ~store:(read_fields ~obj:fetch)

(* The object digests (primary first) and the superseded ids of a blob,
   read from its bytes alone: the objects are never fetched. A KSPL1
   file references nothing and supersedes nothing. *)
let header buf =
  let digests = ref [] in
  let digest r =
    digests := R.str r :: !digests;
    Objfile.make ~unit_name:"" ~sections:[] ~symbols:[]
  in
  decode buf
    ~self:(fun _ -> ([], []))
    ~store:(fun ~magic r ->
      let u = read_fields ~magic ~obj:digest r in
      (List.rev !digests, u.supersedes))

let store_digests buf =
  match header buf with Ok (ds, _) -> ds | Error _ -> []

let supersedes_of_bytes buf =
  match header buf with Ok (_, s) -> s | Error _ -> []
