open Recalg_kernel

type t =
  | Rel of string
  | Lit of Value.t
  | Param of string
  | Union of t * t
  | Diff of t * t
  | Product of t * t
  | Select of Pred.t * t
  | Map of Efun.t * t
  | Ifp of string * t
  | Call of string * t list

let rel name = Rel name
let lit elems = Lit (Value.set elems)
let empty = Lit Value.empty_set
let union a b = Union (a, b)
let diff a b = Diff (a, b)
let product a b = Product (a, b)
let select p e = Select (p, e)
let map f e = Map (f, e)
let ifp x e = Ifp (x, e)
let call name args = Call (name, args)
let inter a b = Diff (a, Diff (a, b))
let xor a b = Union (Diff (a, b), Diff (b, a))
let pi i e = Map (Efun.Proj i, e)

let add_unique x acc = if List.mem x acc then acc else x :: acc

let rel_names e =
  let rec go bound acc e =
    match e with
    | Rel name -> if List.mem name bound then acc else add_unique name acc
    | Lit _ | Param _ -> acc
    | Union (a, b) | Diff (a, b) | Product (a, b) -> go bound (go bound acc a) b
    | Select (_, a) | Map (_, a) -> go bound acc a
    | Ifp (x, a) -> go (x :: bound) acc a
    | Call (_, args) -> List.fold_left (go bound) acc args
  in
  List.rev (go [] [] e)

let called_ops e =
  let rec go acc e =
    match e with
    | Rel _ | Lit _ | Param _ -> acc
    | Union (a, b) | Diff (a, b) | Product (a, b) -> go (go acc a) b
    | Select (_, a) | Map (_, a) | Ifp (_, a) -> go acc a
    | Call (name, args) -> List.fold_left go (add_unique name acc) args
  in
  List.rev (go [] e)

let params e =
  let rec go acc e =
    match e with
    | Param x -> add_unique x acc
    | Rel _ | Lit _ -> acc
    | Union (a, b) | Diff (a, b) | Product (a, b) -> go (go acc a) b
    | Select (_, a) | Map (_, a) | Ifp (_, a) -> go acc a
    | Call (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] e)

let rec size e =
  match e with
  | Rel _ | Lit _ | Param _ -> 1
  | Union (a, b) | Diff (a, b) | Product (a, b) -> 1 + size a + size b
  | Select (_, a) | Map (_, a) | Ifp (_, a) -> 1 + size a
  | Call (_, args) -> List.fold_left (fun acc a -> acc + size a) 1 args

let map_rels f e =
  let rec go bound e =
    match e with
    | Rel name -> if List.mem name bound then e else f name
    | Lit _ | Param _ -> e
    | Union (a, b) -> Union (go bound a, go bound b)
    | Diff (a, b) -> Diff (go bound a, go bound b)
    | Product (a, b) -> Product (go bound a, go bound b)
    | Select (p, a) -> Select (p, go bound a)
    | Map (g, a) -> Map (g, go bound a)
    | Ifp (x, a) -> Ifp (x, go (x :: bound) a)
    | Call (name, args) -> Call (name, List.map (go bound) args)
  in
  go [] e

let subst_params bindings e =
  let rec go e =
    match e with
    | Param x -> (
      match List.assoc_opt x bindings with
      | Some replacement -> replacement
      | None -> e)
    | Rel _ | Lit _ -> e
    | Union (a, b) -> Union (go a, go b)
    | Diff (a, b) -> Diff (go a, go b)
    | Product (a, b) -> Product (go a, go b)
    | Select (p, a) -> Select (p, go a)
    | Map (g, a) -> Map (g, go a)
    | Ifp (x, a) -> Ifp (x, go a)
    | Call (name, args) -> Call (name, List.map go args)
  in
  go e

let compare = Stdlib.compare
let equal a b = compare a b = 0

let rec pp ppf e =
  match e with
  | Rel name -> Efun.pp_name ppf name
  | Lit v -> Efun.pp_value ppf v
  | Param x -> Fmt.pf ppf "$%a" Efun.pp_name x
  | Union (a, b) -> Fmt.pf ppf "%a + %a" pp_operand a pp_operand b
  | Diff (a, b) -> Fmt.pf ppf "%a - %a" pp_operand a pp_operand b
  | Product (a, b) -> Fmt.pf ppf "%a x %a" pp_operand a pp_operand b
  | Select (p, a) -> Fmt.pf ppf "sel[%a](%a)" Pred.pp p pp a
  | Map (f, a) -> Fmt.pf ppf "map[%a](%a)" Efun.pp f pp a
  | Ifp (x, a) -> Fmt.pf ppf "ifp %a. %a" Efun.pp_name x pp a
  | Call (name, args) ->
    Fmt.pf ppf "%a(%a)" Efun.pp_name name Fmt.(list ~sep:(any ", ") pp) args

and pp_operand ppf e =
  match e with
  | Union _ | Diff _ | Product _ | Ifp _ -> Fmt.pf ppf "(%a)" pp e
  | Rel _ | Lit _ | Param _ | Select _ | Map _ | Call _ -> pp ppf e

let to_string e = Fmt.str "@[<h>%a@]" pp e
