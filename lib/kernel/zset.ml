(* Z-sets: maps from values to non-zero integer weights. The invariant —
   no stored weight is ever zero — is what makes [equal] structural and
   [is_empty] a map emptiness check; every constructor below normalises
   accordingly. *)

module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type t = int Vmap.t

let empty = Vmap.empty
let is_empty = Vmap.is_empty

let singleton ?(weight = 1) v = if weight = 0 then empty else Vmap.singleton v weight

let weight z v = Option.value ~default:0 (Vmap.find_opt v z)

let put v w z = if w = 0 then Vmap.remove v z else Vmap.add v w z

let add a b =
  Vmap.union
    (fun _ wa wb -> if wa + wb = 0 then None else Some (wa + wb))
    a b

let negate z = Vmap.map (fun w -> -w) z
let sub a b = add a (negate b)

let of_set v = List.fold_left (fun z x -> Vmap.add x 1 z) empty (Value.elements v)

let map f z =
  Vmap.fold
    (fun v w acc ->
      match f v with
      | Some v' -> put v' (weight acc v' + w) acc
      | None -> acc)
    z empty

let fold f z acc = Vmap.fold f z acc
let equal a b = Vmap.equal Int.equal a b

let pp ppf z =
  let pp_entry ppf (v, w) = Fmt.pf ppf "%+d%a" w Value.pp v in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp_entry) (Vmap.bindings z)
