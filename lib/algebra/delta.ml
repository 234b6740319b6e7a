open Recalg_kernel
module Obs = Recalg_obs.Obs

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


type change = { plus : Value.t; minus : Value.t }

let none = { plus = Value.empty_set; minus = Value.empty_set }
let grown plus = { plus; minus = Value.empty_set }
let is_none c = is_empty c.plus && is_empty c.minus

(* Union, skipping the merge when a side is empty. *)
let union_opt a b = if is_empty a then b else if is_empty b then a else Value.union a b

let apply old c =
  let v = union_opt old c.plus in
  if is_empty c.minus then v else Value.diff v c.minus

type need = Plus | Minus | Both

let flip = function Plus -> Minus | Minus -> Plus | Both -> Both
let wants_plus = function Plus | Both -> true | Minus -> false
let wants_minus = function Minus | Both -> true | Plus -> false

type operand = Value.t Lazy.t * change

(* The sides [need] asks for, each computed only then; the others are
   left empty. *)
let sides need plus minus =
  { plus = (if wants_plus need then plus () else Value.empty_set);
    minus = (if wants_minus need then minus () else Value.empty_set) }

(* [op d v] for a change side [d] and an operand's current value [v],
   which is not read when [d] is empty. *)
let against op d v = if is_empty d then Value.empty_set else op d (Lazy.force v)

let union need (a, da) (b, db) =
  sides need
    (fun () -> union_opt da.plus db.plus)
    (fun () -> union_opt (against Value.diff da.minus b) (against Value.diff db.minus a))

let diff need (a, da) (b, db) =
  sides need
    (fun () -> union_opt (against Value.diff da.plus b) (against Value.inter db.minus a))
    (fun () -> union_opt da.minus db.plus)

(* Each side joins a factor's change against the other factor's current
   value; a removed pair had its factors in [v ∪ Δv⁻], as [old ⊆ now ∪ minus]. *)
let bilinear join need (a, da) (b, db) =
  let join_right d v = join v d in
  let widened (v, d) = lazy (union_opt (Lazy.force v) d.minus) in
  sides need
    (fun () -> union_opt (against join da.plus b) (against join_right db.plus a))
    (fun () ->
      union_opt
        (against join da.minus (widened (b, db)))
        (against join_right db.minus (widened (a, da))))

let select builtins p need d =
  let keep = Value.filter (fun v -> Pred.eval builtins p v = Some true) in
  sides need (fun () -> keep d.plus) (fun () -> keep d.minus)

(* A removed element's image may still be the image of another: only
   the images the [MAP] node's current value lacks are removed. *)
let lacked ~mem c =
  if is_empty c.minus then c
  else { c with minus = Value.filter (fun y -> not (mem y)) c.minus }

let map builtins f ~mem need d =
  let image = Value.filter_map_set (Efun.apply builtins f) in
  lacked ~mem (sides need (fun () -> image d.plus) (fun () -> image d.minus))

type bound = { value : Expr.t -> Value.t; changes : (string * change) list }

(* An [Ifp] or [Call] was asked for its [minus], which is not known. *)
exception Unknown_minus

let derive ~builtins ?(advice = Advice.none) ?(need = Plus) ?other this e =
  let other = Option.value other ~default:this in
  let names b = List.map fst b.changes in
  let this_names = names this and other_names = names other in
  (* [here]: [e] is read at [this], which every difference's right side
     flips. [moves here e]: [e] reads a changed name there; an [Ifp] or
     [Call] may read either bound. *)
  let rec moves here e =
    match e with
    | Expr.Rel n -> List.mem n (if here then this_names else other_names)
    | Expr.Lit _ | Expr.Param _ -> false
    | Expr.Union (x, y) | Expr.Product (x, y) -> moves here x || moves here y
    | Expr.Diff (x, y) -> moves here x || moves (not here) y
    | Expr.Select (_, x) | Expr.Map (_, x) -> moves here x
    | Expr.Ifp _ | Expr.Call _ -> touches this_names e || touches other_names e
  in
  let rec go here need e =
    let b = if here then this else other in
    if not (moves here e) then none
    else
      let now e = lazy (b.value e) in
      let operand e = (now e, go here need e) in
      match e with
      | Expr.Rel n -> Option.value (List.assoc_opt n b.changes) ~default:none
      | Expr.Union (x, y) -> union need (operand x) (operand y)
      | Expr.Product (x, y) -> bilinear Value.product need (operand x) (operand y)
      | Expr.Select (p, x) -> (
        match Advice.fused_join advice builtins e with
        | Some (ex, ey, join) -> bilinear join need (operand ex) (operand ey)
        | None -> select builtins p need (go here need x))
      | Expr.Map (f, x) -> (
        let v = now e in
        let mem y = Value.mem y (Lazy.force v) in
        match Advice.fused_join advice builtins ~map:f x with
        | Some (ex, ey, join) ->
          lacked ~mem (bilinear join need (operand ex) (operand ey))
        | None -> map builtins f ~mem need (go here need x))
      | Expr.Diff (x, y) -> (
        let ((vx, dx) as a) = operand x in
        let vy = lazy ((if here then other else this).value y) in
        match go (not here) (flip need) y with
        | dy -> diff need a (vy, dy)
        | exception Unknown_minus when wants_plus need ->
          (* Read as everything outside [y]'s current value, [y]'s minus
             makes the whole current difference the plus. *)
          Obs.count "delta/reeval" 1;
          let minus () = union_opt dx.minus (go (not here) Plus y).plus in
          sides need (fun () -> Value.diff (Lazy.force vx) (Lazy.force vy)) minus)
      | Expr.Ifp _ | Expr.Call _ ->
        if wants_minus need then raise Unknown_minus;
        Obs.count "delta/reeval" 1;
        grown (b.value e)
      | Expr.Lit _ | Expr.Param _ -> none
  in
  try go true need e
  with Unknown_minus -> invalid_arg "Delta.derive: the minus of an Ifp or Call is unknown"

let eligible names e =
  let rec go e =
    match e with
    | Expr.Rel n -> List.mem n names
    | Expr.Lit _ | Expr.Param _ | Expr.Ifp _ | Expr.Call _ -> false
    | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Product (a, b) -> go a || go b
    | Expr.Select (_, a) | Expr.Map (_, a) -> go a
  in
  go e
