(* Timing helpers and the Bechamel bridge shared by all experiments. *)

(* The clock library's module is shadowed by Toolkit's measure of the
   same name; alias it first. *)
module Clock = Monotonic_clock
open Bechamel
open Toolkit

(* Median wall-clock milliseconds over [runs] executions. *)
let time_ms ?(runs = 3) f =
  let sample () =
    let t0 = Clock.now () in
    let result = f () in
    let t1 = Clock.now () in
    (Int64.to_float (Int64.sub t1 t0) /. 1e6, result)
  in
  let samples = List.init runs (fun _ -> sample ()) in
  let times = List.sort compare (List.map fst samples) in
  let median = List.nth times (runs / 2) in
  let _, result = List.nth samples 0 in
  (median, result)

(* Median wall-clock ms of [a] and [b] over [runs] interleaved
   executions. Interleaving the pair inside each sample cancels the
   load/frequency drift that biases two back-to-back [time_ms] blocks —
   what the overhead experiment (E15) needs, since its signal is a
   ratio of a few percent. *)
let time_pair_ms ?(runs = 9) a b =
  let once f =
    let t0 = Clock.now () in
    let r = f () in
    let t1 = Clock.now () in
    (Int64.to_float (Int64.sub t1 t0) /. 1e6, r)
  in
  let samples = List.init runs (fun _ -> (once a, once b)) in
  let median xs = List.nth (List.sort compare xs) (runs / 2) in
  let a_ms = median (List.map (fun ((t, _), _) -> t) samples) in
  let b_ms = median (List.map (fun (_, (t, _)) -> t) samples) in
  (* The ratio is the median of per-sample ratios, not the ratio of
     medians: each sample's pair ran back to back, so machine-load
     drift over the whole sweep cancels within it. *)
  let ratio =
    median (List.map (fun ((ta, _), (tb, _)) -> tb /. ta) samples)
  in
  let (_, ra), (_, rb) = List.hd samples in
  (a_ms, b_ms, ratio, ra, rb)

(* Run a list of named thunks through Bechamel's OLS analysis and return
   nanoseconds per run. *)
let bechamel_ns_per_run tests =
  let grouped =
    Test.make_grouped ~name:"bench" ~fmt:"%s %s"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | Some _ | None -> acc)
    analyzed []

let hr title = Fmt.pr "@.== %s ==@." title

let row fmt = Fmt.pr fmt

(* --- machine-readable records (the CI perf trajectory) --- *)

(* A JSON object per benchmark row; collected during a run and written
   out by [flush_json] when [--json FILE] was given, so numbers are
   diffable across PRs without scraping the tables. Rows are mostly
   flat, but [L]/[O] let a row carry an observability block such as the
   per-iteration delta-size series of a fixpoint run. *)
type json =
  | F of float
  | I of int
  | B of bool
  | S of string
  | L of json list
  | O of (string * json) list

let json_path : string option ref = ref None
let smoke = ref false
let records : (string * json) list list ref = ref []

let set_json_path path = json_path := Some path
let set_smoke () = smoke := true
let is_smoke () = !smoke
let record fields = records := fields :: !records

let escape_json s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec json_of_field v =
  match v with
  | F x -> if Float.is_finite x then Printf.sprintf "%.4f" x else "null"
  | I n -> string_of_int n
  | B b -> string_of_bool b
  | S s -> Printf.sprintf "\"%s\"" (escape_json s)
  | L items -> "[" ^ String.concat ", " (List.map json_of_field items) ^ "]"
  | O fields ->
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\": %s" (escape_json k) (json_of_field v))
           fields)
    ^ "}"

let flush_json () =
  match !json_path with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i fields ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf "  {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\": %s" (escape_json k) (json_of_field v)))
          fields;
        Buffer.add_string buf "}")
      (List.rev !records);
    Buffer.add_string buf "\n]\n";
    (* tmp + rename: an interrupted bench run never leaves a torn
       records file for check_records.py to choke on. *)
    Recalg.Safe_io.with_file path (fun oc ->
        output_string oc (Buffer.contents buf));
    Fmt.pr "@.wrote %d bench record(s) to %s@." (List.length !records) path
