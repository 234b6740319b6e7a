open Recalg_kernel

type t =
  | Id
  | Proj of int
  | Tuple_of of t list
  | Const of Value.t
  | App of string * t list
  | Arg of string * int
  | Compose of t * t

let rec apply builtins f v =
  match f with
  | Id -> Some v
  | Proj i -> Value.proj i v
  | Tuple_of fs ->
    let rec go acc fs =
      match fs with
      | [] -> Some (Value.tuple (List.rev acc))
      | g :: rest -> (
        match apply builtins g v with
        | Some w -> go (w :: acc) rest
        | None -> None)
    in
    go [] fs
  | Const c -> Some c
  | App (name, fs) ->
    let rec go acc fs =
      match fs with
      | [] -> Builtins.apply builtins name (List.rev acc)
      | g :: rest -> (
        match apply builtins g v with
        | Some w -> go (w :: acc) rest
        | None -> None)
    in
    go [] fs
  | Arg (name, i) -> (
    match Value.node v with
    | Value.Cstr (g, args) when String.equal name g -> List.nth_opt args (i - 1)
    | Value.Cstr _ | Value.Int _ | Value.Str _ | Value.Bool _ | Value.Sym _
    | Value.Tuple _ | Value.Set _ ->
      None)
  | Compose (g, h) -> (
    match apply builtins h v with
    | Some w -> apply builtins g w
    | None -> None)

(* [apply] on the pair [x, y], built only where [f] needs it whole. *)
let rec apply_pair builtins f x y =
  match f with
  | Id -> Some (Value.pair x y)
  | Proj 1 -> Some x
  | Proj 2 -> Some y
  | Proj _ | Arg _ -> apply builtins f (Value.pair x y)
  | Const c -> Some c
  | Compose (g, h) -> (
    match apply_pair builtins h x y with
    | Some w -> apply builtins g w
    | None -> None)
  | Tuple_of fs -> Option.map Value.tuple (args_pair builtins [] fs x y)
  | App (name, fs) ->
    Option.bind (args_pair builtins [] fs x y) (Builtins.apply builtins name)

(* The arguments' results, left to right, or [None] at the first
   undefined one, where [apply] stops too. *)
and args_pair builtins acc fs x y =
  match fs with
  | [] -> Some (List.rev acc)
  | g :: rest -> (
    match apply_pair builtins g x y with
    | Some w -> args_pair builtins (w :: acc) rest x y
    | None -> None)

let add_const k = App ("add", [ Id; Const (Value.int k) ])
let pi i = Proj i

(* The words the [.alg] syntax reserves ({!Parser}). *)
let keywords =
  [ "let"; "query"; "sel"; "map"; "ifp"; "id"; "and"; "or"; "not"; "true";
    "false"; "is"; "arg" ]

let proj_of_ident w =
  if String.length w > 2 && String.sub w 0 2 = "pi" then
    int_of_string_opt (String.sub w 2 (String.length w - 2))
  else None

let check_name w =
  let ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  if w = "" || (w.[0] >= '0' && w.[0] <= '9') || not (String.for_all ident_char w)
     || List.mem w keywords || proj_of_ident w <> None
  then invalid_arg (Fmt.str "%S has no concrete syntax: it is reserved or not an identifier" w)

let pp_name ppf w = check_name w; Fmt.string ppf w

let rec check_names v =
  match Value.node v with
  | Value.Sym w -> check_name w
  | Value.Cstr (w, vs) -> check_name w; List.iter check_names vs
  | Value.Tuple vs | Value.Set vs -> List.iter check_names vs
  | Value.Int _ | Value.Str _ | Value.Bool _ -> ()

let pp_value ppf v = check_names v; Value.pp ppf v

let rec pp ppf f =
  let args = Fmt.(list ~sep:(any ", ") pp) in
  match f with
  | Id -> Fmt.string ppf "id"
  | Proj i -> Fmt.pf ppf "pi%d" i
  | Tuple_of fs -> Fmt.pf ppf "[%a]" args fs
  | Const v -> (
    match Value.node v with
    | Value.Tuple _ | Value.Cstr _ ->
      (* [[a, b]] and [f(a)] would read back as [Tuple_of] and [App]. *)
      invalid_arg (Fmt.str "the constant %a has no element-function syntax" Value.pp v)
    | Value.Int _ | Value.Str _ | Value.Bool _ | Value.Sym _ | Value.Set _ -> pp_value ppf v)
  | App (name, fs) -> Fmt.pf ppf "%a(%a)" pp_name name args fs
  | Arg (name, i) -> Fmt.pf ppf "arg(%a, %d)" pp_name name i
  | Compose ((Compose _ as g), h) -> Fmt.pf ppf "(%a) . %a" pp g pp h
  | Compose (g, h) -> Fmt.pf ppf "%a . %a" pp g pp h
