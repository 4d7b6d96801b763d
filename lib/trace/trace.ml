type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind =
  | Span_begin
  | Span_end
  | Instant

type record = {
  id : int;
  parent : int;
  clock : int;
  kind : kind;
  name : string;
  fields : (string * value) list;
}

type span = {
  span_id : int;
  span_name : string;
}

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

(* --- global state --- *)

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b

(* Every mutable structure below is guarded by [lock]; the per-domain
   span context lives in domain-local storage and needs none. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let clock_fn = ref (fun () -> 0)
let set_clock f = locked (fun () -> clock_fn := f)

(* bounded ring: [ring.(i)] valid for the [ring_len] slots ending just
   before [ring_head] (mod capacity); overwrite-oldest when full *)
let default_capacity = 16384
let ring = ref (Array.make default_capacity None)
let ring_head = ref 0
let ring_len = ref 0
let dropped_count = ref 0
let next_id = ref 0

let set_capacity n =
  let n = max 16 n in
  locked (fun () ->
      ring := Array.make n None;
      ring_head := 0;
      ring_len := 0;
      dropped_count := 0)

let capacity () = locked (fun () -> Array.length !ring)

let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64

type hist_acc = {
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  a_buckets : int array;
}

(* power-of-4 bounds: fine enough to separate a 5-byte trampoline poke
   from a 20k-step quiescence stall, coarse enough to stay tiny *)
let bucket_bounds =
  [| 1.; 4.; 16.; 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144.;
     1048576.; infinity |]

let hists_tbl : (string, hist_acc) Hashtbl.t = Hashtbl.create 16

(* per-domain current-span stack (innermost first), as begin-record ids *)
let context_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let reset () =
  locked (fun () ->
      ring := Array.make (Array.length !ring) None;
      ring_head := 0;
      ring_len := 0;
      dropped_count := 0;
      next_id := 0;
      Hashtbl.reset counters_tbl;
      Hashtbl.reset hists_tbl;
      clock_fn := fun () -> 0);
  Domain.DLS.get context_key := []

(* --- emission --- *)

let push_record ~parent ~kind ~name ~fields =
  locked (fun () ->
      let r =
        { id = !next_id; parent; clock = !clock_fn (); kind; name; fields }
      in
      incr next_id;
      let cap = Array.length !ring in
      !ring.(!ring_head) <- Some r;
      ring_head := (!ring_head + 1) mod cap;
      if !ring_len < cap then incr ring_len else incr dropped_count;
      r.id)

let current_parent () =
  match !(Domain.DLS.get context_key) with [] -> -1 | p :: _ -> p

let begin_span ?(fields = []) name =
  if not (Atomic.get enabled) then { span_id = -1; span_name = name }
  else begin
    let id = push_record ~parent:(current_parent ()) ~kind:Span_begin ~name
        ~fields in
    let stack = Domain.DLS.get context_key in
    stack := id :: !stack;
    { span_id = id; span_name = name }
  end

let end_span ?(fields = []) sp =
  if Atomic.get enabled && sp.span_id >= 0 then begin
    let stack = Domain.DLS.get context_key in
    (* tolerate out-of-order ends: drop the span wherever it sits *)
    stack := List.filter (fun id -> id <> sp.span_id) !stack;
    ignore
      (push_record ~parent:sp.span_id ~kind:Span_end ~name:sp.span_name
         ~fields
        : int)
  end

let with_span ?(fields = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let sp = begin_span ~fields name in
    match f () with
    | v ->
      end_span sp;
      v
    | exception e ->
      end_span ~fields:[ ("raised", Str (Printexc.to_string e)) ] sp;
      raise e
  end

let instant ?(fields = []) name =
  if Atomic.get enabled then
    ignore
      (push_record ~parent:(current_parent ()) ~kind:Instant ~name ~fields
        : int)

(* --- cross-domain context --- *)

type context = int list

let context () = !(Domain.DLS.get context_key)

let with_context ctx f =
  let stack = Domain.DLS.get context_key in
  let saved = !stack in
  stack := ctx;
  Fun.protect ~finally:(fun () -> stack := saved) f

(* --- metrics --- *)

let count name by =
  if Atomic.get enabled then
    locked (fun () ->
        match Hashtbl.find_opt counters_tbl name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add counters_tbl name (ref by))

let observe name v =
  if Atomic.get enabled then
    locked (fun () ->
        let h =
          match Hashtbl.find_opt hists_tbl name with
          | Some h -> h
          | None ->
            let h =
              { a_count = 0; a_sum = 0.; a_min = infinity;
                a_max = neg_infinity;
                a_buckets = Array.make (Array.length bucket_bounds) 0 }
            in
            Hashtbl.add hists_tbl name h;
            h
        in
        h.a_count <- h.a_count + 1;
        h.a_sum <- h.a_sum +. v;
        if v < h.a_min then h.a_min <- v;
        if v > h.a_max then h.a_max <- v;
        let rec slot i =
          if v <= bucket_bounds.(i) || i = Array.length bucket_bounds - 1
          then i
          else slot (i + 1)
        in
        let i = slot 0 in
        h.a_buckets.(i) <- h.a_buckets.(i) + 1)

let counter_value name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some r -> !r
      | None -> 0)

let counters () =
  locked (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters_tbl [])
  |> List.sort compare

let snapshot_hist (h : hist_acc) =
  {
    h_count = h.a_count;
    h_sum = h.a_sum;
    h_min = h.a_min;
    h_max = h.a_max;
    h_buckets =
      Array.to_list
        (Array.mapi (fun i c -> (bucket_bounds.(i), c)) h.a_buckets);
  }

let histograms () =
  locked (fun () ->
      Hashtbl.fold
        (fun k h acc -> (k, snapshot_hist h) :: acc)
        hists_tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- inspection --- *)

let records () =
  locked (fun () ->
      let cap = Array.length !ring in
      let out = ref [] in
      for i = 0 to !ring_len - 1 do
        let slot = (!ring_head - !ring_len + i + (2 * cap)) mod cap in
        match !ring.(slot) with
        | Some r -> out := r :: !out
        | None -> ()
      done;
      List.rev !out)

let dropped () = locked (fun () -> !dropped_count)

(* --- export --- *)

module J = Report.Json

let kind_name = function
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Instant -> "instant"

let value_json = function
  | Int i -> J.Num (float_of_int i)
  | Float f -> J.Num f
  | Str s -> J.Str s
  | Bool b -> J.Bool b

let record_json (r : record) =
  J.Obj
    [
      ("id", J.Num (float_of_int r.id));
      ("parent", J.Num (float_of_int r.parent));
      ("clock", J.Num (float_of_int r.clock));
      ("kind", J.Str (kind_name r.kind));
      ("name", J.Str r.name);
      ("fields", J.Obj (List.map (fun (k, v) -> (k, value_json v)) r.fields));
    ]

let export () =
  J.Obj
    [
      ("schema", J.Str "ksplice-trace/1");
      ("capacity", J.Num (float_of_int (capacity ())));
      ("dropped", J.Num (float_of_int (dropped ())));
      ("records", J.Arr (List.map record_json (records ())));
    ]

let metrics () =
  let hist_json (h : histogram) =
    J.Obj
      [
        ("count", J.Num (float_of_int h.h_count));
        ("sum", J.Num h.h_sum);
        ("min", if h.h_count = 0 then J.Null else J.Num h.h_min);
        ("max", if h.h_count = 0 then J.Null else J.Num h.h_max);
        ( "buckets",
          J.Arr
            (List.map
               (fun (bound, c) ->
                 J.Obj
                   [
                     ( "le",
                       if Float.is_finite bound then J.Num bound
                       else J.Str "inf" );
                     ("count", J.Num (float_of_int c));
                   ])
               h.h_buckets) );
      ]
  in
  J.Obj
    [
      ("schema", J.Str "ksplice-metrics/1");
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v)))
                 (counters ())) );
      ( "histograms",
        J.Obj (List.map (fun (k, h) -> (k, hist_json h)) (histograms ())) );
    ]
