open Recalg_kernel
module Smap = Map.Make (String)

type t = Tuples.t Smap.t

let empty = Smap.empty

let relation db pred =
  Option.value ~default:Tuples.empty (Smap.find_opt pred db)

let add pred tup db = Smap.add pred (Tuples.add tup (relation db pred)) db

let add_all pred tups db = List.fold_left (fun db tup -> add pred tup db) db tups

let of_list l =
  List.fold_left (fun db (pred, tups) -> add_all pred tups db) empty l

let mem db pred tup = Tuples.mem tup (relation db pred)

let tuples db pred = Tuples.elements (relation db pred)

let add_relation pred set db =
  if Tuples.is_empty set then db
  else
    Smap.update pred
      (function None -> Some set | Some old -> Some (Tuples.union old set))
      db

let preds db = List.map fst (Smap.bindings db)

let cardinal db pred = Tuples.cardinal (relation db pred)

let remove pred tup db =
  match Smap.find_opt pred db with
  | None -> db
  | Some set ->
    let set' = Tuples.remove tup set in
    (* Drop empty relations so a database that loses its last [pred]
       tuple equals one that never had the relation. *)
    if Tuples.is_empty set' then Smap.remove pred db
    else Smap.add pred set' db

let union a b = Smap.union (fun _ x y -> Some (Tuples.union x y)) a b

let diff a b =
  Smap.merge
    (fun _ x y ->
      match x, y with
      | Some x, Some y ->
        let d = Tuples.diff x y in
        if Tuples.is_empty d then None else Some d
      | Some x, None -> Some x
      | None, _ -> None)
    a b

let equal a b = Smap.equal Tuples.equal a b

let fold f db acc =
  Smap.fold (fun pred set acc -> Tuples.fold (fun tup acc -> f pred tup acc) set acc) db acc

(* [sign pred(tup).] as one string token, then a break hint: line breaks
   fall only between facts (see [Propgm.pp_fact]). *)
let pp_signed_fact ppf sign pred tup =
  let b = Buffer.create 32 in
  Buffer.add_string b sign;
  Value.cstr_to_buffer b pred tup;
  Buffer.add_char b '.';
  Fmt.pf ppf "%s@ " (Buffer.contents b)

let pp ppf db =
  Smap.iter (fun pred set -> Tuples.iter (pp_signed_fact ppf "" pred) set) db

(* ------------------------------------------------------------------ *)
(* Update batches: signed fact multisets, Z-set style. Opposite-signed
   entries for one fact cancel; [effective] collapses the remaining
   weights to the membership changes they actually cause. *)

module Update = struct
  module Tmap = Map.Make (struct
    type t = Value.t list

    let compare = List.compare Value.compare
  end)

  type edb = t
  type t = int Tmap.t Smap.t

  let empty = Smap.empty
  let is_empty (u : t) = Smap.is_empty u

  let shift pred tup w u =
    if w = 0 then u
    else begin
      let m = Option.value ~default:Tmap.empty (Smap.find_opt pred u) in
      let w' = Option.value ~default:0 (Tmap.find_opt tup m) + w in
      let m' = if w' = 0 then Tmap.remove tup m else Tmap.add tup w' m in
      if Tmap.is_empty m' then Smap.remove pred u else Smap.add pred m' u
    end

  let insert pred tup u = shift pred tup 1 u
  let delete pred tup u = shift pred tup (-1) u

  let of_facts l =
    List.fold_left
      (fun u (ins, pred, tup) -> shift pred tup (if ins then 1 else -1) u)
      empty l

  let effective (db : edb) (u : t) =
    Smap.fold
      (fun pred m acc ->
        Tmap.fold
          (fun tup w (adds, dels) ->
            if w > 0 && not (mem db pred tup) then
              (add pred tup adds, dels)
            else if w < 0 && mem db pred tup then (adds, add pred tup dels)
            else (adds, dels))
          m acc)
      u (empty, empty)

  let apply (u : t) (db : edb) =
    let adds, dels = effective db u in
    let db = fold (fun pred tup db -> add pred tup db) adds db in
    fold (fun pred tup db -> remove pred tup db) dels db

  let pp ppf (u : t) =
    Smap.iter
      (fun pred m ->
        Tmap.iter
          (fun tup w -> pp_signed_fact ppf (if w > 0 then "+" else "-") pred tup)
          m)
      u
end
