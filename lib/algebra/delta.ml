open Recalg_kernel
module Obs = Recalg_obs.Obs

type strategy = Naive | Seminaive

let is_empty v = Value.equal v Value.empty_set

(* Does [e] mention any of [names] free? Respects Ifp shadowing. *)
let touches names e =
  let rec go bound e =
    match e with
    | Expr.Rel n -> (not (List.mem n bound)) && List.mem n names
    | Expr.Lit _ | Expr.Param _ -> false
    | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Product (a, b) ->
      go bound a || go bound b
    | Expr.Select (_, a) | Expr.Map (_, a) -> go bound a
    | Expr.Ifp (x, a) -> go (x :: bound) a
    | Expr.Call (_, args) -> List.exists (go bound) args
  in
  go [] e

let eligible names e = Positivity.has_linear_occurrence names e

module Acc = struct
  module Members = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

  (* The set is [base ∪ ⋃ pending]; [pending] holds the interned round
     deltas since the last materialisation, newest first, and [members]
     every element of the set. *)
  type t = {
    members : unit Members.t;
    mutable base : Value.t;
    mutable pending : Value.t list;
  }

  let create () = { members = Members.create 64; base = Value.empty_set; pending = [] }
  let cardinal a = Members.length a.members
  let fresh a v = Value.filter (fun x -> not (Members.mem a.members x)) v
  let record a xs = List.iter (fun x -> Members.replace a.members x ()) xs

  let value a =
    match a.pending with
    | [] -> a.base
    | ds ->
      let v = Value.union_all (a.base :: ds) in
      a.base <- v;
      a.pending <- [];
      v

  let extend a v =
    let d = fresh a v in
    (match Value.elements d with
    | [] -> ()
    | xs ->
      record a xs;
      a.pending <- d :: a.pending);
    d

  let replace a v =
    let d = fresh a v in
    (* [v ⊆ set ∪ d] always; [v] contains the old set iff the sizes add
       up, and then only [d] is new to the membership table. *)
    let grows = Value.cardinal v = cardinal a + Value.cardinal d in
    if grows then record a (Value.elements d)
    else begin
      Members.clear a.members;
      record a (Value.elements v)
    end;
    a.base <- v;
    a.pending <- [];
    (d, not (grows && is_empty d))
end

let derive ~builtins ?(join = Join.Fused) ?(join_mode = fun _ -> None)
    ?(join_par = fun _ -> None) ~eval ?eval_diff_right ~deltas e =
  let eval_diff_right = Option.value eval_diff_right ~default:eval in
  let names = List.map fst deltas in
  let rec go e =
    if not (touches names e) then Value.empty_set
    else
      match e with
      | Expr.Rel n -> (
        match List.assoc_opt n deltas with
        | Some d -> d
        | None -> Value.empty_set)
      | Expr.Union (a, b) -> Value.union (go a) (go b)
      | Expr.Product (a, b) ->
        (* Δ(a × b) = Δa × b ∪ a × Δb, against the *current* values of the
           unchanged factors — Δa × Δb is covered by either term. *)
        let da = go a and db = go b in
        let left = if is_empty da then Value.empty_set else Value.product da (eval b) in
        let right = if is_empty db then Value.empty_set else Value.product (eval a) db in
        Value.union left right
      | Expr.Select (p, a) -> (
        (* Fused delta: Δ(σ_p(a × b)) = σ_p(Δa × b) ∪ σ_p(a × Δb), each
           side a hash join probing the *current* value of the unchanged
           factor — the same split as the Product rule, without ever
           materialising a product. *)
        let node_join = Option.value (join_mode e) ~default:join in
        let par = join_par e in
        let fused =
          match node_join, a with
          | Join.Fused, Expr.Product (ea, eb) -> (
            match Join.plan p with
            | Some jp ->
              Obs.count "plan/fused" 1;
              let da = go ea and db = go eb in
              let left =
                if is_empty da then Value.empty_set
                else Join.exec ?par builtins jp da (eval eb)
              in
              let right =
                if is_empty db then Value.empty_set
                else Join.exec ?par builtins jp (eval ea) db
              in
              Some (Value.union left right)
            | None -> None)
          | (Join.Fused | Join.Unfused), _ -> None
        in
        match fused with
        | Some v -> v
        | None ->
          (match a with
          | Expr.Product _ -> Obs.count "plan/unfused" 1
          | _ -> ());
          Value.filter (fun v -> Pred.eval builtins p v = Some true) (go a))
      | Expr.Map (f, a) -> Value.filter_map_set (Efun.apply builtins f) (go a)
      | Expr.Diff (a, b) ->
        if touches names b then
          (* Non-linear: subtraction shrinks as its right side grows, so
             delta propagation is unsound here — re-evaluate in full. The
             result is still a valid delta (superset of the new tuples,
             subset of the current value). *)
          eval e
        else
          let da = go a in
          if is_empty da then Value.empty_set
          else Value.diff da (eval_diff_right b)
      | Expr.Ifp _ | Expr.Call _ ->
        (* Opaque to distribution: a nested fixpoint (or uninlined call)
           over a changed name is re-evaluated in full. *)
        eval e
      | Expr.Lit _ | Expr.Param _ ->
        (* Unreachable: neither mentions a tracked name. *)
        Value.empty_set
  in
  go e
