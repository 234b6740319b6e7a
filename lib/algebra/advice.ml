module Obs = Recalg_obs.Obs

type t = {
  rewrite : Expr.t -> Expr.t;
  refresh : bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option;
  seminaive : bool;
  fused : bool;
  split : bool;
}

let none =
  { rewrite = Fun.id;
    refresh = (fun ~bound:_ _ -> None);
    seminaive = true;
    fused = true;
    split = true }

let is_none t = t == none
let naive t = { t with seminaive = false }
let unfused t = { t with fused = false }
let unsplit t = { t with split = false }

let fused_join t builtins node =
  match node with
  | Expr.Select (p, Expr.Product (a, b)) -> (
    let plan = if t.fused then Join.plan p else None in
    match plan with
    | Some jp ->
      Obs.count "plan/fused" 1;
      Some (a, b, Join.exec builtins jp)
    | None ->
      Obs.count "plan/unfused" 1;
      None)
  | _ -> None
