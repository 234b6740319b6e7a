open Recalg_kernel

type fact = string * Value.t list

let fact_equal (p, a) (q, b) = String.equal p q && List.equal Value.equal a b
let fact_hash (p, args) = List.fold_left Value.hash_fold (Hashtbl.hash p) args

type rule = { head : int; pos : int array; neg : int array }
type t = { atoms : fact Interner.t; rules : rule array }

let n_atoms t = Interner.size t.atoms
let fact_of_id t id = Interner.get t.atoms id
let id_of_fact t f = Interner.find_opt t.atoms f

(* One string token, so a fact never breaks across lines. An [h] box
   would keep it whole too, but Format breaks the line before a box that
   opens past its maximum indentation, after the space already printed. *)
let pp_fact ppf (pred, args) =
  match args with
  | [] -> Fmt.string ppf pred
  | _ ->
    let b = Buffer.create 32 in
    Value.cstr_to_buffer b pred args;
    Fmt.string ppf (Buffer.contents b)

let pp ppf t =
  let pp_rule ppf r =
    let lit sign id ppf = Fmt.pf ppf "%s%a" sign pp_fact (fact_of_id t id) in
    Fmt.pf ppf "%a :-" pp_fact (fact_of_id t r.head);
    Array.iter (fun id -> Fmt.pf ppf " %t" (lit "" id)) r.pos;
    Array.iter (fun id -> Fmt.pf ppf " %t" (lit "not " id)) r.neg;
    Fmt.pf ppf "."
  in
  Array.iter (fun r -> Fmt.pf ppf "%a@ " pp_rule r) t.rules
