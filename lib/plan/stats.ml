open Recalg_kernel
module Db = Recalg_algebra.Db

type rel = { card : int; distinct : (int * int) list }

module Smap = Map.Make (String)

type t = rel Smap.t

let empty = Smap.empty

(* Elements inspected per relation for the distinct counts. *)
let sample = 512

(* Distinct counts per column over the first [sample] elements, scaled
   linearly to the full cardinality (standard naive scale-up, capped at
   [card]). Column 0 is the element itself — the selectivity source for
   [Id]-keyed joins; columns i >= 1 are tuple components, matching
   [Proj i] keys. Non-tuple elements only feed column 0. A column's
   distinct values are its distinct interned ids. *)
let sample_distinct ~card elems =
  let ids : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let add col v =
    let seen =
      match Hashtbl.find_opt ids col with
      | Some seen -> seen
      | None ->
        let seen = Hashtbl.create 64 in
        Hashtbl.add ids col seen;
        seen
    in
    Hashtbl.replace seen (Value.id v) ()
  in
  let rec go n xs =
    match xs with
    | el :: rest when n < sample ->
      add 0 el;
      (match Value.node el with
      | Value.Tuple parts -> List.iteri (fun i p -> add (i + 1) p) parts
      | Value.Int _ | Value.Str _ | Value.Bool _ | Value.Sym _ | Value.Set _
      | Value.Cstr _ ->
        ());
      go (n + 1) rest
    | _ -> n
  in
  let sampled = go 0 elems in
  let scale d =
    if sampled = 0 || sampled >= card then d
    else min card (d * card / sampled)
  in
  Hashtbl.fold (fun col seen acc -> (col, scale (Hashtbl.length seen)) :: acc) ids []

let observe name v t =
  let card = Value.cardinal v in
  Smap.add name { card; distinct = sample_distinct ~card (Value.elements v) } t

let of_db db =
  List.fold_left
    (fun acc name ->
      match Db.find db name with
      | Some v -> observe name v acc
      | None -> acc)
    empty (Db.rels db)

let card t name = Option.map (fun r -> r.card) (Smap.find_opt name t)

let distinct t name col =
  Option.bind (Smap.find_opt name t) (fun r -> List.assoc_opt col r.distinct)
