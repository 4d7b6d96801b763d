(* Host-side measurement: the monotonic clock, order statistics, process
   memory, named tallies, and the traced run's span bookkeeping. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* {2 Order statistics} *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile of an ascending array; failed ops enter as
   [infinity] and therefore sort last *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median l = percentile (sorted l) 0.5

(* {2 Process memory} *)

(* peak resident set (VmHWM) of this process, MiB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* {2 Tallies}

   Named float accumulators the workloads feed as they run: counts
   (creates, trials, bytes) and simulated quantities. [snapshot] freezes
   them, e.g. at the end of the first pass, where the amount of work is
   fixed by the seed alone. *)

let tallies : (string, float ref) Hashtbl.t = Hashtbl.create 64

let add name v =
  match Hashtbl.find_opt tallies name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tallies name (ref v)

let addi name n = add name (float n)

let max_into name v =
  match Hashtbl.find_opt tallies name with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.add tallies name (ref v)

let reset_tallies () = Hashtbl.reset tallies

type snapshot = (string * float) list

let snapshot () : snapshot =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tallies []
  |> List.sort compare

let get (s : snapshot) name =
  Option.value ~default:0. (List.assoc_opt name s)

(* {2 Spans}

   The traced run opens one span per layer call (named "<layer>.<call>")
   around the program's own spans ("apply.step.*", "runpre.match_helper",
   "create.unit", ...), harvests the ring at the end of every pass, and
   folds each span into per-name totals: calls, inclusive time, and self
   time (inclusive time minus the union of its children's intervals). *)

type span_total = {
  mutable calls : int;
  mutable incl_ns : int;
  mutable self_ns : int;
}

let totals : (string, span_total) Hashtbl.t = Hashtbl.create 64
let harvested = ref 0
let sample : Trace.record list ref = ref []

let start_tracing () =
  Hashtbl.reset totals;
  harvested := 0;
  sample := [];
  Trace.reset ();
  Trace.set_capacity 65536;
  Trace.set_clock now_ns;
  Trace.set_enabled true

let stop_tracing () = Trace.set_enabled false

(* total length of the union of [(lo, hi)] intervals *)
let covered ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> (match cur with Some (lo, hi) -> acc + (hi - lo) | None -> acc)
    | (lo, hi) :: tl -> (
      match cur with
      | Some (clo, chi) when lo <= chi -> go acc (Some (clo, max hi chi)) tl
      | Some (clo, chi) -> go (acc + (chi - clo)) (Some (lo, hi)) tl
      | None -> go acc (Some (lo, hi)) tl)
  in
  go 0 None ivs

(* Fold the buffered records into [totals] and clear the ring; the
   counters the program keeps in [Trace] are moved into the tallies
   first, since the reset clears them too. [Error] if the ring dropped
   records, which would make the self times wrong. *)
let harvest () =
  let dropped = Trace.dropped () in
  let records = Trace.records () in
  List.iter (fun (name, n) -> addi ("trace." ^ name) n) (Trace.counters ());
  if !harvested = 0 then sample := records;
  incr harvested;
  Trace.reset ();
  Trace.set_clock now_ns;
  if dropped > 0 then Error (Printf.sprintf "trace ring dropped %d records" dropped)
  else begin
    let begins = Hashtbl.create 256 and ends = Hashtbl.create 256 in
    let children = Hashtbl.create 256 in
    List.iter
      (fun (r : Trace.record) ->
        match r.kind with
        | Span_begin -> Hashtbl.replace begins r.id r
        | Span_end -> Hashtbl.replace ends r.parent r.clock
        | Instant -> ())
      records;
    let interval (b : Trace.record) =
      Option.map (fun e -> (b.clock, e)) (Hashtbl.find_opt ends b.id)
    in
    Hashtbl.iter
      (fun _ (b : Trace.record) ->
        match interval b with
        | Some iv when b.parent >= 0 ->
          Hashtbl.replace children b.parent
            (iv :: Option.value ~default:[] (Hashtbl.find_opt children b.parent))
        | _ -> ())
      begins;
    Hashtbl.iter
      (fun id (b : Trace.record) ->
        match interval b with
        | None -> ()
        | Some (lo, hi) ->
          let kids = Option.value ~default:[] (Hashtbl.find_opt children id) in
          let t =
            match Hashtbl.find_opt totals b.name with
            | Some t -> t
            | None ->
              let t = { calls = 0; incl_ns = 0; self_ns = 0 } in
              Hashtbl.add totals b.name t;
              t
          in
          t.calls <- t.calls + 1;
          t.incl_ns <- t.incl_ns + (hi - lo);
          t.self_ns <- t.self_ns + max 0 (hi - lo - covered kids))
      begins;
    Ok ()
  end

(* mean inclusive time per call of span [name], in units of [scale] ns;
   0 when the workload never made that call *)
let mean_incl name ~scale =
  match Hashtbl.find_opt totals name with
  | Some t when t.calls > 0 -> float t.incl_ns /. float t.calls /. scale
  | _ -> 0.

(* the layer a span belongs to: its name up to the first dot, with the
   program's "undo" span counted under the apply layer *)
let layer_of name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  if prefix = "undo" then "apply" else prefix

(* self time per layer, ns, summed over every harvested span *)
let self_by_layer () =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name t ->
      let l = layer_of name in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc l) in
      Hashtbl.replace acc l (prev + t.self_ns))
    totals;
  Hashtbl.fold (fun l ns a -> (l, ns) :: a) acc [] |> List.sort compare
