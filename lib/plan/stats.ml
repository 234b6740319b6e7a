open Recalg_kernel
module Db = Recalg_algebra.Db
module Metrics = Recalg_obs.Metrics

type rel = {
  card : int;
  fingerprint : int;
  sampled : int;
  distinct : (int * int) list;
}

module Smap = Map.Make (String)
module Vset = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type t = rel Smap.t

let empty = Smap.empty
let is_empty = Smap.is_empty
let default_sample = 512

(* Distinct counts per column over the first [sample] elements, scaled
   linearly to the full cardinality (standard naive scale-up, capped at
   [card]). Column 0 is the element itself — the selectivity source for
   [Id]-keyed joins; columns i >= 1 are tuple components, matching
   [Proj i] keys. Non-tuple elements only feed column 0. *)
let sample_distinct ~card ~sample elems =
  let taken, sampled =
    let rec go acc n xs =
      match xs with
      | x :: rest when n < sample -> go (x :: acc) (n + 1) rest
      | _ -> (acc, n)
    in
    go [] 0 elems
  in
  let sets : (int, Vset.t ref) Hashtbl.t = Hashtbl.create 8 in
  let add col v =
    match Hashtbl.find_opt sets col with
    | Some s -> s := Vset.add v !s
    | None -> Hashtbl.add sets col (ref (Vset.singleton v))
  in
  List.iter
    (fun el ->
      add 0 el;
      match Value.node el with
      | Value.Tuple parts -> List.iteri (fun i p -> add (i + 1) p) parts
      | Value.Int _ | Value.Str _ | Value.Bool _ | Value.Sym _ | Value.Set _
      | Value.Cstr _ ->
        ())
    taken;
  let scale d =
    if sampled = 0 || sampled >= card then d
    else min card (d * card / sampled)
  in
  let distinct =
    Hashtbl.fold (fun col s acc -> (col, scale (Vset.cardinal !s)) :: acc) sets []
  in
  (sampled, List.sort (fun (a, _) (b, _) -> Int.compare a b) distinct)

let rel_of_value ~sample v =
  let card = Value.cardinal v in
  let sampled, distinct = sample_distinct ~card ~sample (Value.elements v) in
  { card; fingerprint = Value.hash v; sampled; distinct }

let observe ?(sample = default_sample) name v t =
  Smap.add name (rel_of_value ~sample v) t

let of_db ?(sample = default_sample) db =
  List.fold_left
    (fun acc name ->
      match Db.find db name with
      | Some v -> observe ~sample name v acc
      | None -> acc)
    empty (Db.rels db)

(* Harvest the live metrics registry mid-run: the [db/card/<name>]
   gauges the evaluators emit on every base-relation resolution, read at
   a fixpoint-round boundary. Cardinality only — no fingerprint, no
   per-column distincts. Entries that carry real identity (a fingerprint
   from a sampling pass, or sampled distincts) are kept — a live
   card-only reading estimates, it never outranks a measured one — so
   refreshing only ever fills gaps. *)
let card_gauge_prefix = "db/card/"

let refresh_live ?snapshot t =
  let sn = match snapshot with Some s -> s | None -> Metrics.snapshot () in
  Metrics.fold_gauges
    (fun name ~last ~max:_ acc ->
      let plen = String.length card_gauge_prefix in
      if
        String.length name > plen
        && String.equal (String.sub name 0 plen) card_gauge_prefix
      then begin
        let rel_name = String.sub name plen (String.length name - plen) in
        match Smap.find_opt rel_name acc with
        | Some r when r.fingerprint <> 0 || r.sampled > 0 -> acc
        | Some _ | None ->
          Smap.add rel_name
            { card = int_of_float last;
              fingerprint = 0;
              sampled = 0;
              distinct = [] }
            acc
      end
      else acc)
    sn t

let find t name = Smap.find_opt name t
let card t name = Option.map (fun r -> r.card) (find t name)

let distinct t name col =
  Option.bind (find t name) (fun r -> List.assoc_opt col r.distinct)

let fingerprint t name = Option.map (fun r -> r.fingerprint) (find t name)

let fresh t name v =
  match find t name with
  | Some r -> r.fingerprint <> 0 && r.fingerprint = Value.hash v
  | None -> false

let prune_stale db t =
  Smap.filter
    (fun name r ->
      match Db.find db name with
      | Some v -> r.fingerprint = 0 || r.fingerprint = Value.hash v
      | None -> true)
    t

let merge older newer = Smap.union (fun _ _ newer -> Some newer) older newer

(* Text persistence: a version line, then one line per relation. The
   fingerprint is the memoized structural FNV-1a hash of the full set
   value ({!Recalg_kernel.Value.hash}), which is stable across runs and
   independent of interning order — so a loaded entry can be checked
   against a live relation with one hash read. Relation names are
   whitespace-free in every frontend, which keeps the format split-safe. *)
let magic = "recalg-stats 1"

let save path t =
  (* tmp + rename: a crash (or injected fault) mid-save leaves any
     previous stats file intact, so the next load never sees a torn
     write of its own making. *)
  Safe_io.write_file path (fun oc ->
      output_string oc (magic ^ "\n");
      Smap.iter
        (fun name r ->
          Printf.fprintf oc "%s %d %d %d" name r.fingerprint r.card r.sampled;
          List.iter (fun (col, d) -> Printf.fprintf oc " %d:%d" col d) r.distinct;
          output_char oc '\n')
        t)

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | name :: fp :: card :: sampled :: cols when name <> "" ->
    let parse_col s =
      match String.split_on_char ':' s with
      | [ c; d ] -> (int_of_string c, int_of_string d)
      | _ -> failwith "bad column entry"
    in
    ( name,
      { fingerprint = int_of_string fp;
        card = int_of_string card;
        sampled = int_of_string sampled;
        distinct = List.map parse_col cols } )
  | _ -> failwith "bad stats line"

(* A missing file is the normal cold-start case and stays silent; a
   file that exists but cannot be parsed (corrupt, truncated, foreign)
   is worth a warning — the caller proceeds statless either way. *)
let warn_corrupt path reason =
  Fmt.epr "warning: ignoring stats file %s: %s@." path reason

let load path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file ->
          warn_corrupt path "empty file";
          None
        | first when not (String.equal (String.trim first) magic) ->
          warn_corrupt path
            (Printf.sprintf "bad header (expected %S)" magic);
          None
        | _ -> (
          let rec go acc =
            match input_line ic with
            | exception End_of_file -> Some acc
            | "" -> go acc
            | line -> (
              match parse_line line with
              | exception _ ->
                warn_corrupt path "corrupt or truncated entry";
                None
              | name, r -> go (Smap.add name r acc))
          in
          go empty))

let pp ppf t =
  Smap.iter
    (fun name r ->
      Fmt.pf ppf "%s: card=%d sampled=%d fp=%d distinct=[%a]@." name r.card
        r.sampled r.fingerprint
        Fmt.(list ~sep:sp (pair ~sep:(any ":") int int))
        r.distinct)
    t
