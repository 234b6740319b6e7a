open Recalg_kernel

type t =
  | True
  | False
  | Eq of Efun.t * Efun.t
  | Neq of Efun.t * Efun.t
  | Lt of Efun.t * Efun.t
  | Leq of Efun.t * Efun.t
  | Is_cstr of string * int * Efun.t
  | Mem of Efun.t * Efun.t
  | And of t * t
  | Or of t * t
  | Not of t

let compare2 builtins f g v k =
  match Efun.apply builtins f v, Efun.apply builtins g v with
  | Some a, Some b -> k a b
  | _, _ -> None

let int_compare2 builtins f g v op =
  compare2 builtins f g v (fun a b ->
      match Value.node a, Value.node b with
      | Value.Int x, Value.Int y -> Some (op x y)
      | _, _ -> None)

let rec eval builtins p v =
  match p with
  | True -> Some true
  | False -> Some false
  | Eq (f, g) -> compare2 builtins f g v (fun a b -> Some (Value.equal a b))
  | Neq (f, g) -> compare2 builtins f g v (fun a b -> Some (not (Value.equal a b)))
  | Lt (f, g) -> int_compare2 builtins f g v ( < )
  | Leq (f, g) -> int_compare2 builtins f g v ( <= )
  | Is_cstr (name, arity, f) -> (
    match Efun.apply builtins f v with
    | None -> None
    | Some w ->
      Some
        (match Value.node w with
        | Value.Cstr (g, args) -> String.equal name g && List.length args = arity
        | Value.Int _ | Value.Str _ | Value.Bool _ | Value.Sym _ | Value.Tuple _
        | Value.Set _ ->
          false))
  | Mem (f, g) ->
    compare2 builtins f g v (fun x s ->
        if Value.is_set s then Some (Value.mem x s) else None)
  | And (p1, p2) -> (
    match eval builtins p1 v, eval builtins p2 v with
    | Some a, Some b -> Some (a && b)
    | _, _ -> None)
  | Or (p1, p2) -> (
    match eval builtins p1 v, eval builtins p2 v with
    | Some a, Some b -> Some (a || b)
    | _, _ -> None)
  | Not p1 -> Option.map not (eval builtins p1 v)

let eq_const c = Eq (Efun.Id, Efun.Const c)

let rec pp ppf p =
  match p with
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Eq (f, g) -> Fmt.pf ppf "%a = %a" Efun.pp f Efun.pp g
  | Neq (f, g) -> Fmt.pf ppf "%a != %a" Efun.pp f Efun.pp g
  | Lt (f, g) -> Fmt.pf ppf "%a < %a" Efun.pp f Efun.pp g
  | Leq (f, g) -> Fmt.pf ppf "%a <= %a" Efun.pp f Efun.pp g
  | Is_cstr (name, arity, f) -> Fmt.pf ppf "is(%a, %d, %a)" Efun.pp_name name arity Efun.pp f
  | Mem (f, g) -> Fmt.pf ppf "%a in %a" Efun.pp f Efun.pp g
  | And (p1, p2) -> Fmt.pf ppf "(%a and %a)" pp p1 pp p2
  | Or (p1, p2) -> Fmt.pf ppf "(%a or %a)" pp p1 pp p2
  | Not p1 -> Fmt.pf ppf "not %a" pp p1
