open Recalg_kernel
module Obs = Recalg_obs.Obs

(* Which half of a product pair an element function depends on.
   [Either_side] means the function ignores its input entirely (it is
   built from constants only), so it computes the same value on the pair
   and on either component. *)
type side =
  | Left_only of Efun.t
  | Right_only of Efun.t
  | Either_side of Efun.t
  | Both_sides

let is_both s =
  match s with
  | Both_sides -> true
  | Left_only _ | Right_only _ | Either_side _ -> false

(* [compose g f] = apply [f] first, then [g] — with the identity elided
   so extracted keys stay readable in plans and printers. *)
let compose g f =
  match g, f with
  | Efun.Id, _ -> f
  | _, Efun.Id -> g
  | _, _ -> Efun.Compose (g, f)

(* Factor [f], as applied to a product pair [x, y], through one of the
   components: [Left_only g] means [f [x, y] = g x] exactly, including
   definedness, and symmetrically for [Right_only]. Product elements are
   always 2-tuples, so [Proj 1]/[Proj 2] are total on them and any other
   projection is undefined — we classify the latter [Both_sides] and let
   the fallback path reproduce the (empty) selection. *)
let rec split f =
  match f with
  | Efun.Proj 1 -> Left_only Efun.Id
  | Efun.Proj 2 -> Right_only Efun.Id
  | Efun.Proj _ | Efun.Id | Efun.Arg _ -> Both_sides
  | Efun.Const c -> Either_side (Efun.Const c)
  | Efun.Compose (g, h) -> (
    match split h with
    | Left_only f' -> Left_only (compose g f')
    | Right_only f' -> Right_only (compose g f')
    | Either_side f' -> Either_side (compose g f')
    | Both_sides -> Both_sides)
  | Efun.Tuple_of fs -> split_list (fun fs' -> Efun.Tuple_of fs') fs
  | Efun.App (name, fs) -> split_list (fun fs' -> Efun.App (name, fs')) fs

and split_list rebuild fs =
  let sides = List.map split fs in
  if List.exists is_both sides then Both_sides
  else begin
    let has_left =
      List.exists
        (fun s ->
          match s with
          | Left_only _ -> true
          | Right_only _ | Either_side _ | Both_sides -> false)
        sides
    and has_right =
      List.exists
        (fun s ->
          match s with
          | Right_only _ -> true
          | Left_only _ | Either_side _ | Both_sides -> false)
        sides
    in
    if has_left && has_right then Both_sides
    else begin
      let funs =
        List.map
          (fun s ->
            match s with
            | Left_only f | Right_only f | Either_side f -> f
            | Both_sides -> assert false)
          sides
      in
      if has_left then Left_only (rebuild funs)
      else if has_right then Right_only (rebuild funs)
      else Either_side (rebuild funs)
    end
  end

type t = {
  left_key : Efun.t;
  right_key : Efun.t;
  residual : Pred.t list;
}

(* Top-level conjuncts of a predicate. A pair survives the selection iff
   the whole predicate evaluates to [Some true], which — by the strict
   three-valued [And] — happens iff every conjunct evaluates to
   [Some true]; so checking conjuncts independently is exact. *)
let conjuncts p =
  let rec go acc p =
    match p with
    | Pred.And (p1, p2) -> go (go acc p2) p1
    | _ -> p :: acc
  in
  go [] p

let plan p =
  let keys, residual =
    List.partition_map
      (fun c ->
        match c with
        | Pred.Eq (f, g) -> (
          match split f, split g with
          | Left_only lf, Right_only rg | Right_only rg, Left_only lf ->
            Either.Left (lf, rg)
          | _, _ -> Either.Right c)
        | _ -> Either.Right c)
      (conjuncts p)
  in
  match keys with
  | [] -> None
  | [ (lf, rg) ] -> Some { left_key = lf; right_key = rg; residual }
  | pairs ->
    (* Several equi-conjuncts: join on the tuple of all keys. A pair
       passes them all iff each key is defined on both sides and the key
       tuples agree — exactly [Tuple_of] strictness and tuple equality. *)
    Some
      { left_key = Efun.Tuple_of (List.map fst pairs);
        right_key = Efun.Tuple_of (List.map snd pairs);
        residual }

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* [ys] filed in [index] by [add] under their keys; an element whose key
   is undefined is left out. *)
let rec file_all builtins key add index ys =
  match ys with
  | [] -> index
  | y :: rest ->
    (match Efun.apply builtins key y with
    | Some k -> add index k y
    | None -> ());
    file_all builtins key add index rest

let keyed builtins plan ys add =
  file_all builtins plan.right_key add (Vtbl.create (List.length ys + 1)) ys

let bucket index k = Option.value (Vtbl.find_opt index k) ~default:[]
let file index k y = Vtbl.replace index k (y :: bucket index k)

(* A joined pair is kept iff every residual conjunct holds on it. *)
let passes builtins residual v =
  List.for_all (fun c -> Pred.eval builtins c v = Some true) residual

let exec builtins plan ~map left right =
  let xs = Value.elements left in
  let ys = Value.elements right in
  if Obs.enabled () then begin
    Obs.count "join/exec" 1;
    Obs.count "join/build" (List.length ys);
    Obs.count "join/probe" (List.length xs)
  end;
  let out =
    match plan.residual, split map with
    | [], Left_only g -> (
      (* A semijoin: the left elements whose key [right] has. *)
      let keys = keyed builtins plan ys (fun index k _ -> Vtbl.replace index k ()) in
      let hits x =
        match Efun.apply builtins plan.left_key x with
        | Some k -> Vtbl.mem keys k
        | None -> false
      in
      match g with
      | Efun.Id -> Value.filter hits left
      | _ ->
        Value.filter_map_set
          (fun x -> if hits x then Efun.apply builtins g x else None)
          left)
    | [], Right_only g ->
      (* The other semijoin: a bucket is imaged on its key's first hit
         and dropped, so each right element is imaged once. *)
      let index = keyed builtins plan ys file in
      Value.set
        (List.fold_left
           (fun acc x ->
             match Efun.apply builtins plan.left_key x with
             | None -> acc
             | Some k -> (
               match Vtbl.find_opt index k with
               | None -> acc
               | Some ys ->
                 Vtbl.remove index k;
                 List.fold_left
                   (fun acc y ->
                     match Efun.apply builtins g y with
                     | Some v -> v :: acc
                     | None -> acc)
                   acc ys))
           [] xs)
    | residual, (Left_only _ | Right_only _ | Either_side _ | Both_sides) ->
      (* Each joined pair's image; the pair is built only where the map
         or a residual conjunct reads it whole. *)
      let emit =
        match residual, map with
        | [], Efun.Id -> fun x y acc -> Value.pair x y :: acc
        | [], _ -> (
          fun x y acc ->
            match Efun.apply_pair builtins map x y with
            | Some v -> v :: acc
            | None -> acc)
        | _, Efun.Id ->
          fun x y acc ->
            let v = Value.pair x y in
            if passes builtins residual v then v :: acc else acc
        | _, _ -> (
          fun x y acc ->
            let v = Value.pair x y in
            if not (passes builtins residual v) then acc
            else
              match Efun.apply builtins map v with
              | Some w -> w :: acc
              | None -> acc)
      in
      let index = keyed builtins plan ys file in
      Value.set
        (List.fold_left
           (fun acc x ->
             match Efun.apply builtins plan.left_key x with
             | None -> acc
             | Some k -> List.fold_left (fun acc y -> emit x y acc) acc (bucket index k))
           [] xs)
  in
  if Obs.enabled () then Obs.countf "join/out" (fun () -> Value.cardinal out);
  out
