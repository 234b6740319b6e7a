open Recalg_kernel
module Smap = Map.Make (String)

type t = Value.t Smap.t

let empty = Smap.empty

let add name set db =
  if not (Value.is_set set) then invalid_arg "Db.add: relation content must be a set";
  Smap.add name set db

let add_elems name elems db = add name (Value.set elems) db
let of_list l = List.fold_left (fun db (name, elems) -> add_elems name elems db) empty l
let find db name = Smap.find_opt name db
let rels db = List.map fst (Smap.bindings db)
let equal a b = Smap.equal Value.equal a b

let pp ppf db =
  let pp_rel ppf (name, set) =
    Fmt.pf ppf "@[<h>let %a = %a;@]" Efun.pp_name name Efun.pp_value set
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_rel) (Smap.bindings db)
