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

let fused_join t builtins ?map node =
  match node with
  | Expr.Select (p, Expr.Product (a, b)) -> (
    let plan = if t.fused then Join.plan p else None in
    match plan, map with
    | Some jp, _ ->
      Obs.count "plan/fused" 1;
      Some (a, b, Join.exec builtins jp ~map:(Option.value map ~default:Efun.Id))
    | None, Some _ ->
      (* The caller evaluates [node] under its map, and counts it then. *)
      None
    | None, None ->
      Obs.count "plan/unfused" 1;
      None)
  | _ -> None
