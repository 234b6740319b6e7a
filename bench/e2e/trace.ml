(* The clock, the traced mode's spans, and quantiles.

   A span is one call into a layer, named "<layer>.<call>" after the
   module directory it enters (kernel, algebra, datalog, plan, bin).
   Spans are recorded only here, around calls the benchmark makes; each
   top-level span opens a request id that its children share. They are
   kept in memory and written out when the run ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = { id : int; name : string; parent : int; req : int; start : int; stop : int }

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let parent = ref 0
let req = ref 0

(* Run [f] as the layer call [name]; returns its result and its elapsed
   nanoseconds, which untraced runs measure as well. *)
let span name f =
  if not !on then begin
    let t0 = now () in
    let r = f () in
    (r, now () - t0)
  end
  else begin
    incr next_id;
    let id = !next_id and outer = !parent in
    if outer = 0 then incr req;
    parent := id;
    let t0 = now () in
    let r = try f () with e -> parent := outer; raise e in
    let t1 = now () in
    parent := outer;
    spans := { id; name; parent = outer; req = !req; start = t0; stop = t1 } :: !spans;
    (r, t1 - t0)
  end

(* Per-request kernel counters, summed over traced requests. They are
   read outside the request span, so reading them costs the span
   nothing. *)
type kernel = {
  mutable requests : int;
  mutable alloc_words : float;
  mutable major_gcs : int;
  mutable hits : int;
  mutable misses : int;
}

let kernel = { requests = 0; alloc_words = 0.; major_gcs = 0; hits = 0; misses = 0 }

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One request of the workload's main lane. *)
let request f =
  if not !on then fst (span "request" f)
  else begin
    let g0 = Gc.quick_stat () and i0 = Engine.intern () in
    let r = fst (span "request" f) in
    let g1 = Gc.quick_stat () and i1 = Engine.intern () in
    kernel.requests <- kernel.requests + 1;
    kernel.alloc_words <- kernel.alloc_words +. allocated g1 -. allocated g0;
    kernel.major_gcs <- kernel.major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
    kernel.hits <- kernel.hits + i1.Engine.hits - i0.Engine.hits;
    kernel.misses <- kernel.misses + i1.Engine.misses - i0.Engine.misses;
    r
  end

(* --- quantiles ------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* --- analysis ------------------------------------------------------- *)

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

type row = { name : string; calls : int; self_ns : int; p50_self_ns : float }

(* Self time is a span's duration minus what its children cover. Returns
   one row per span name (request spans excluded) and the summed
   duration of the top-level spans. *)
let analyse () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (Option.value (Hashtbl.find_opt children s.parent) ~default:0 + (s.stop - s.start)))
    !spans;
  let by_name = Hashtbl.create 16 and top = ref 0 in
  List.iter
    (fun s ->
      if s.parent = 0 then top := !top + (s.stop - s.start);
      if s.name <> "request" then begin
        let self = s.stop - s.start - Option.value (Hashtbl.find_opt children s.id) ~default:0 in
        Hashtbl.replace by_name s.name
          (self :: Option.value (Hashtbl.find_opt by_name s.name) ~default:[])
      end)
    !spans;
  let rows =
    Hashtbl.fold
      (fun name selfs acc ->
        { name;
          calls = List.length selfs;
          self_ns = List.fold_left ( + ) 0 selfs;
          p50_self_ns = quantile 0.5 (List.map float_of_int selfs) }
        :: acc)
      by_name []
  in
  (List.sort (fun a b -> compare a.name b.name) rows, !top)

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start_ns\": %d, \"end_ns\": %d}\n"
            s.id s.name s.parent s.req s.start s.stop)
        (List.rev !spans))
