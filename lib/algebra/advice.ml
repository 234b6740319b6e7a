module Obs = Recalg_obs.Obs

type strategy = Naive | Seminaive

type t = {
  rewrite : Expr.t -> Expr.t;
  join_mode : Expr.t -> Join.mode option;
  join_par : Expr.t -> bool option;
  ifp_strategy : string -> Expr.t -> strategy option;
  refresh : round:int -> bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option;
  split : bool;
}

let none =
  { rewrite = Fun.id;
    join_mode = (fun _ -> None);
    join_par = (fun _ -> None);
    ifp_strategy = (fun _ _ -> None);
    refresh = (fun ~round:_ ~bound:_ _ -> None);
    split = true }

let is_none t = t == none
let naive t = { t with ifp_strategy = (fun _ _ -> Some Naive) }
let unfused t = { t with join_mode = (fun _ -> Some Join.Unfused) }
let unsplit t = { t with split = false }
let strategy t x body = Option.value (t.ifp_strategy x body) ~default:Seminaive

let fused_join t builtins node =
  match node with
  | Expr.Select (p, Expr.Product (a, b)) -> (
    let plan =
      match t.join_mode node with Some Join.Unfused -> None | _ -> Join.plan p
    in
    match plan with
    | Some jp ->
      Obs.count "plan/fused" 1;
      Some (a, b, Join.exec ?par:(t.join_par node) builtins jp)
    | None ->
      Obs.count "plan/unfused" 1;
      None)
  | _ -> None
