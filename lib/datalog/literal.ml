type atom = { pred : string; args : Dterm.t list }

type t =
  | Pos of atom
  | Neg of atom
  | Eq of Dterm.t * Dterm.t
  | Neq of Dterm.t * Dterm.t

let atom pred args = { pred; args }
let pos pred args = Pos (atom pred args)
let neg pred args = Neg (atom pred args)
let eq a b = Eq (a, b)
let neq a b = Neq (a, b)

let compare_atom a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else List.compare Dterm.compare a.args b.args

let tag l =
  match l with
  | Pos _ -> 0
  | Neg _ -> 1
  | Eq _ -> 2
  | Neq _ -> 3

let compare l1 l2 =
  match l1, l2 with
  | Pos a, Pos b | Neg a, Neg b -> compare_atom a b
  | Eq (a, b), Eq (c, d) | Neq (a, b), Neq (c, d) ->
    let x = Dterm.compare a c in
    if x <> 0 then x else Dterm.compare b d
  | _, _ -> Int.compare (tag l1) (tag l2)

let equal l1 l2 = compare l1 l2 = 0

let atom_vars a =
  let add acc x = if List.mem x acc then acc else x :: acc in
  List.rev
    (List.fold_left (fun acc t -> List.fold_left add acc (Dterm.vars t)) [] a.args)

let vars l =
  match l with
  | Pos a | Neg a -> atom_vars a
  | Eq (t1, t2) | Neq (t1, t2) ->
    let add acc x = if List.mem x acc then acc else x :: acc in
    List.rev
      (List.fold_left add (List.fold_left add [] (Dterm.vars t1)) (Dterm.vars t2))

let is_positive l =
  match l with
  | Pos _ -> true
  | Neg _ | Eq _ | Neq _ -> false

let ground_atom builtins subst a =
  let rec go acc args =
    match args with
    | [] -> Some (a.pred, List.rev acc)
    | t :: rest -> (
      match Dterm.eval builtins subst t with
      | Some v -> go (v :: acc) rest
      | None -> None)
  in
  go [] a.args

let rename f l =
  let rn_atom a = { a with args = List.map (Dterm.rename f) a.args } in
  match l with
  | Pos a -> Pos (rn_atom a)
  | Neg a -> Neg (rn_atom a)
  | Eq (t1, t2) -> Eq (Dterm.rename f t1, Dterm.rename f t2)
  | Neq (t1, t2) -> Neq (Dterm.rename f t1, Dterm.rename f t2)

let pp_atom ppf a =
  match a.args with
  | [] -> Fmt.string ppf a.pred
  | args -> Fmt.pf ppf "@[<h>%s(%a)@]" a.pred Fmt.(list ~sep:comma Dterm.pp) args

let pp ppf l =
  match l with
  | Pos a -> pp_atom ppf a
  | Neg a -> Fmt.pf ppf "not %a" pp_atom a
  | Eq (t1, t2) -> Fmt.pf ppf "%a = %a" Dterm.pp t1 Dterm.pp t2
  | Neq (t1, t2) -> Fmt.pf ppf "%a != %a" Dterm.pp t1 Dterm.pp t2
