let version = 1
let magic = "KFR1"

(* big enough for any KSPL2 blob the corpus produces, small enough that
   a bit-flipped length field cannot make a receiver buffer gigabytes *)
let max_payload = 16 * 1024 * 1024

type manifest_item = {
  mi_base : string;
  mi_next : string;
  mi_blob : string;
  mi_size : int;
  mi_objects : (string * int) list;
}

type frame =
  | Hello of { version : int; peer : string }
  | Hello_ack of { version : int; peer : string }
  | Head of { digest : string }
  | Manifest of manifest_item list
  | Want of string list
  | Blob of { digest : string; bytes : string }
  | Done of { head : string }
  | Err of { code : string; msg : string }

let pp_frame ppf = function
  | Hello { version; peer } -> Format.fprintf ppf "hello v%d from %s" version peer
  | Hello_ack { version; peer } ->
    Format.fprintf ppf "hello-ack v%d from %s" version peer
  | Head { digest } -> Format.fprintf ppf "head %s" digest
  | Manifest items -> Format.fprintf ppf "manifest (%d entries)" (List.length items)
  | Want ds -> Format.fprintf ppf "want (%d digests)" (List.length ds)
  | Blob { digest; bytes } ->
    Format.fprintf ppf "blob %s (%d bytes)" digest (String.length bytes)
  | Done { head } -> Format.fprintf ppf "done, head %s" head
  | Err { code; msg } -> Format.fprintf ppf "error [%s] %s" code msg

(* --- payload: a tag byte, then {!Codec} ints, strings and lists --- *)

module W = Codec.W
module R = Codec.R

let tag_of = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Head _ -> 3
  | Manifest _ -> 4
  | Want _ -> 5
  | Blob _ -> 6
  | Done _ -> 7
  | Err _ -> 8

let write_item b i =
  W.str b i.mi_base;
  W.str b i.mi_next;
  W.str b i.mi_blob;
  W.int b i.mi_size;
  W.list
    (fun b (d, sz) ->
      W.str b d;
      W.int b sz)
    b i.mi_objects

let write_payload b f =
  W.u8 b (tag_of f);
  match f with
  | Hello { version; peer } | Hello_ack { version; peer } ->
    W.int b version;
    W.str b peer
  | Head { digest } -> W.str b digest
  | Manifest items -> W.list write_item b items
  | Want ds -> W.list W.str b ds
  | Blob { digest; bytes } ->
    W.str b digest;
    W.str b bytes
  | Done { head } -> W.str b head
  | Err { code; msg } ->
    W.str b code;
    W.str b msg

let read_item r =
  let mi_base = R.str r in
  let mi_next = R.str r in
  let mi_blob = R.str r in
  let mi_size = R.int r in
  let mi_objects =
    R.list r (fun r ->
        let d = R.str r in
        let sz = R.int r in
        (d, sz))
  in
  { mi_base; mi_next; mi_blob; mi_size; mi_objects }

let read_payload r =
  match R.u8 r with
  | (1 | 2) as tag ->
    let version = R.int r in
    let peer = R.str r in
    if tag = 1 then Hello { version; peer } else Hello_ack { version; peer }
  | 3 -> Head { digest = R.str r }
  | 4 -> Manifest (R.list r read_item)
  | 5 -> Want (R.list r R.str)
  | 6 ->
    let digest = R.str r in
    let bytes = R.str r in
    Blob { digest; bytes }
  | 7 -> Done { head = R.str r }
  | 8 ->
    let code = R.str r in
    let msg = R.str r in
    Err { code; msg }
  | t -> R.fail ~off:0 r (Printf.sprintf "unknown frame tag %d" t)

let payload_codec = { Codec.write = write_payload; read = read_payload }

(* --- the frame: magic, the payload as a {!Codec} string, its MD5 --- *)

let encode f =
  let payload = Codec.encode payload_codec f in
  let b = Buffer.create (String.length payload + 24) in
  Buffer.add_string b magic;
  W.str b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

(* The header is checked by hand, not read through {!Codec.R}: a short
   frame is [`Incomplete] (wait for more bytes), not an error. *)
let decode buf ~pos =
  let fail off reason = Error (`Fail { Codec.off; reason }) in
  let have = String.length buf - pos in
  if pos < 0 || have < 0 then fail pos "position out of range"
  else
    (* reject a wrong magic as soon as the prefix diverges, so garbage
       is not mistaken for a short frame *)
    let mcheck = min have 4 in
    if String.sub buf pos mcheck <> String.sub magic 0 mcheck then
      fail pos "bad frame magic"
    else if have < 8 then Error `Incomplete
    else
      let plen = Int32.to_int (String.get_int32_le buf (pos + 4)) in
      if plen < 0 || plen > max_payload then
        fail (pos + 4) (Printf.sprintf "bad frame length %d" plen)
      else if have < 8 + plen + 16 then Error `Incomplete
      else
        let payload = String.sub buf (pos + 8) plen in
        let sum = String.sub buf (pos + 8 + plen) 16 in
        if not (String.equal (Digest.string payload) sum) then
          fail (pos + 8 + plen) "frame checksum mismatch"
        else
          match Codec.decode payload_codec payload with
          | Ok f -> Ok (f, pos + 8 + plen + 16)
          | Error e ->
            fail (pos + 8 + e.off) ("malformed frame payload: " ^ e.reason)
