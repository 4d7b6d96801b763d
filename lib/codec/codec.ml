type error = { off : int; reason : string }

let error_to_string e = Printf.sprintf "%s at byte %d" e.reason e.off

module W = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xff)
  let i32 b v = Buffer.add_int32_le b v
  let int b v = Buffer.add_int32_le b (Int32.of_int v)

  let str b s =
    int b (String.length s);
    Buffer.add_string b s

  let list put b l =
    int b (List.length l);
    List.iter (put b) l

  let ns b s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s

  let ns_list put b l =
    ns b (string_of_int (List.length l));
    List.iter (put b) l
end

module R = struct
  type t = { buf : string; mutable pos : int }

  (* private: [run] is its only handler *)
  exception Fail of error

  let fail ?off r reason =
    raise (Fail { off = Option.value off ~default:r.pos; reason })

  let left r = String.length r.buf - r.pos
  let need r n = if n < 0 || n > left r then fail r "truncated input"

  let take r n =
    need r n;
    let s = String.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let magic r m =
    let off = r.pos in
    if take r (String.length m) <> m then fail ~off r "bad magic"

  let u8 r =
    need r 1;
    let v = String.get_uint8 r.buf r.pos in
    r.pos <- r.pos + 1;
    v

  let i32 r =
    need r 4;
    let v = String.get_int32_le r.buf r.pos in
    r.pos <- r.pos + 4;
    v

  let int r =
    let v = Int32.to_int (i32 r) in
    if v < 0 then fail r "negative length";
    v

  let str r = take r (int r)

  (* every element of every format takes at least one byte *)
  let count r n = if n > left r then fail r "bad list length" else n

  let list r read = List.init (count r (int r)) (fun _ -> read r)

  (* canonical decimal: "0", or up to nine digits without a leading
     zero — one spelling per value, and no overflow *)
  let canonical s =
    let n = String.length s in
    n > 0 && n <= 9
    && (n = 1 || s.[0] <> '0')
    && String.for_all (fun c -> c >= '0' && c <= '9') s

  let ns r =
    let start = r.pos in
    let rec colon i =
      if i >= String.length r.buf then fail r "truncated input"
      else if r.buf.[i] = ':' then i
      else if i - start >= 9 then fail r "bad length prefix"
      else colon (i + 1)
    in
    let c = colon start in
    let digits = String.sub r.buf start (c - start) in
    if not (canonical digits) then fail r "bad length prefix";
    r.pos <- c + 1;
    let n = int_of_string digits in
    if n > left r then fail ~off:start r "truncated input";
    take r n

  let ns_list r read =
    let s = ns r in
    if not (canonical s) then fail r "bad list length";
    List.init (count r (int_of_string s)) (fun _ -> read r)

  let nested ?(prefix = "") r decode s =
    match decode s with
    | Ok v -> v
    | Error e ->
      fail ~off:(r.pos - String.length s + e.off) r (prefix ^ e.reason)

  let finish r = if left r <> 0 then fail r "trailing bytes"

  let run ?(pos = 0) read buf =
    if pos < 0 || pos > String.length buf then
      Error { off = pos; reason = "position out of range" }
    else
      let r = { buf; pos } in
      match read r with
      | v -> Ok (v, r.pos)
      | exception Fail e -> Error e
end

type 'a t = { write : Buffer.t -> 'a -> unit; read : R.t -> 'a }

let encode c v =
  let b = Buffer.create 256 in
  c.write b v;
  Buffer.contents b

let decode c s =
  R.run
    (fun r ->
      let v = c.read r in
      R.finish r;
      v)
    s
  |> Result.map fst
