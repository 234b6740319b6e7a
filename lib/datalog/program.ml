open Recalg_kernel

type t = { rules : Rule.t list; builtins : Builtins.t }

let make ?(builtins = Builtins.default) rules = { rules; builtins }

(* One pass over the rules, not one per group. *)
let bucket_rules groups rules =
  let group_of = Hashtbl.create 64 in
  List.iteri (fun i g -> List.iter (fun p -> Hashtbl.replace group_of p i) g) groups;
  let buckets = Array.make (List.length groups) [] in
  List.iter
    (fun r ->
      Option.iter (fun i -> buckets.(i) <- r :: buckets.(i))
        (Hashtbl.find_opt group_of (Rule.head_pred r)))
    (List.rev rules);
  Array.to_list buckets

let add_unique x acc = if List.mem x acc then acc else x :: acc

(* [xs] without repeats, each kept at its first occurrence. *)
let distinct xs =
  let seen = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc x ->
         if Hashtbl.mem seen x then acc
         else begin
           Hashtbl.add seen x ();
           x :: acc
         end)
       [] xs)

let idb_preds p = distinct (List.map Rule.head_pred p.rules)

let all_preds p =
  distinct
    (List.concat_map
       (fun r -> Rule.head_pred r :: List.map fst (Rule.body_preds r))
       p.rules)

let edb_preds p =
  let idb = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace idb (Rule.head_pred r) ()) p.rules;
  List.filter (fun q -> not (Hashtbl.mem idb q)) (all_preds p)

let dependencies p =
  List.concat_map
    (fun r ->
      let h = Rule.head_pred r in
      List.map (fun (q, pol) -> (h, q, pol)) (Rule.body_preds r))
    p.rules

let union a b =
  {
    rules = a.rules @ b.rules;
    builtins =
      List.fold_left
        (fun env name ->
          match Builtins.find b.builtins name with
          | Some f when not (Builtins.is_interpreted env name) -> Builtins.add_fn name f env
          | Some _ | None -> env)
        a.builtins (Builtins.names b.builtins);
  }

let constants p =
  let rec of_term acc t =
    match t with
    | Dterm.Var _ -> acc
    | Dterm.Cst v -> if List.exists (Value.equal v) acc then acc else v :: acc
    | Dterm.App (_, args) -> List.fold_left of_term acc args
  in
  let of_atom acc (a : Literal.atom) = List.fold_left of_term acc a.Literal.args in
  let of_lit acc l =
    match l with
    | Literal.Pos a | Literal.Neg a -> of_atom acc a
    | Literal.Eq (t1, t2) | Literal.Neq (t1, t2) -> of_term (of_term acc t1) t2
  in
  List.rev
    (List.fold_left
       (fun acc (r : Rule.t) -> List.fold_left of_lit (of_atom acc r.head) r.body)
       [] p.rules)

let function_symbols p =
  let rec of_term acc t =
    match t with
    | Dterm.Var _ | Dterm.Cst _ -> acc
    | Dterm.App (f, args) ->
      List.fold_left of_term (add_unique (f, List.length args) acc) args
  in
  let of_atom acc (a : Literal.atom) = List.fold_left of_term acc a.Literal.args in
  let of_lit acc l =
    match l with
    | Literal.Pos a | Literal.Neg a -> of_atom acc a
    | Literal.Eq (t1, t2) | Literal.Neq (t1, t2) -> of_term (of_term acc t1) t2
  in
  List.rev
    (List.fold_left
       (fun acc (r : Rule.t) -> List.fold_left of_lit (of_atom acc r.head) r.body)
       [] p.rules)

let pp ppf p = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Rule.pp) p.rules
let to_string p = Fmt.str "%a" pp p
