open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Unsafe of string

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type section = Full | Delta

(* The fixpoint loops keep [full] and [delta] disjoint: they add only
   facts absent from every section, and [promote] only moves facts
   between sections. Probing both therefore enumerates exactly
   [full ∪ delta], without building the union set. *)
type t = {
  mutable full : Tuples.t;
  mutable delta : Tuples.t;
  mutable next : Tuples.t;
  indexes : (section * int, Tuples.t Vtbl.t) Hashtbl.t;
      (* (section, argument position) -> value at that position -> tuples
         of the section. Built lazily on first probe. *)
  lock : Mutex.t;  (* guards [indexes] while the pool is parallel *)
}

let create ~full ~delta =
  {
    full;
    delta;
    next = Tuples.empty;
    indexes = Hashtbl.create 8;
    lock = Mutex.create ();
  }

let full s = s.full
let all s = Tuples.union s.full (Tuples.union s.delta s.next)
let mem s tup = Tuples.mem tup s.full || Tuples.mem tup s.delta
let known s tup = mem s tup || Tuples.mem tup s.next
let add s tup = s.next <- Tuples.add tup s.next

let promote s =
  if not (Tuples.is_empty s.delta && Tuples.is_empty s.next) then begin
    s.full <- Tuples.union s.full s.delta;
    s.delta <- s.next;
    s.next <- Tuples.empty;
    Hashtbl.reset s.indexes
  end

let sections s = (s.full, s.delta, s.next)

let restore s (full, delta, next) =
  s.full <- full;
  s.delta <- delta;
  s.next <- next;
  Hashtbl.reset s.indexes

let section_tuples s = function Full -> s.full | Delta -> s.delta

let build tuples pos =
  let idx = Vtbl.create 64 in
  Tuples.iter
    (fun tup ->
      match List.nth_opt tup pos with
      | Some key ->
        let bucket = Option.value (Vtbl.find_opt idx key) ~default:Tuples.empty in
        Vtbl.replace idx key (Tuples.add tup bucket)
      | None -> ())
    tuples;
  idx

(* An index is published into [indexes] only once fully built, and never
   mutated afterwards, so readers holding one need no lock. Sequential
   runs skip the lock, as the intern shards do. *)
let index s section pos =
  let find_or_build () =
    match Hashtbl.find_opt s.indexes (section, pos) with
    | Some idx -> idx
    | None ->
      let idx = build (section_tuples s section) pos in
      Hashtbl.add s.indexes (section, pos) idx;
      idx
  in
  if Pool.parallel () then Mutex.protect s.lock find_or_build else find_or_build ()

type probe = Hit | Miss | Scan

let probe s section key f =
  match key with
  | Some (pos, v) -> (
    match Vtbl.find_opt (index s section pos) v with
    | Some bucket ->
      Tuples.iter f bucket;
      Hit
    | None -> Miss)
  | None ->
    Tuples.iter f (section_tuples s section);
    Scan

let split delta_pos idx =
  match delta_pos with
  | Some d when d = idx -> [ Delta ]
  | Some d when d > idx -> [ Full ]
  | Some _ | None -> [ Full; Delta ]

let solve builtins ~store ~sections ~neg ~count body k =
  let rec match_args subst args vals =
    match args, vals with
    | [], [] -> Some subst
    | t :: args', v :: vals' -> (
      match Dterm.match_value builtins t v subst with
      | Some subst' -> match_args subst' args' vals'
      | None -> None)
    | _, _ -> None
  in
  let rec go body idx subst =
    match body with
    | [] -> k subst
    | Literal.Pos a :: rest ->
      let s = store a.Literal.pred in
      (* The first argument position fully evaluable under the current
         substitution keys an index probe; a literal with no bound
         argument scans the section. *)
      let rec find i = function
        | [] -> None
        | t :: args -> (
          match Dterm.eval builtins subst t with
          | Some v -> Some (i, v)
          | None -> find (i + 1) args)
      in
      let key = find 0 a.Literal.args in
      let try_tuple tup =
        match match_args subst a.Literal.args tup with
        | Some subst' -> go rest (idx + 1) subst'
        | None -> ()
      in
      List.iter (fun section -> count (probe s section key try_tuple)) (sections idx)
    | Literal.Neg a :: rest -> if neg subst a then go rest (idx + 1) subst
    | Literal.Eq (t1, t2) :: rest -> (
      match Dterm.eval builtins subst t1, Dterm.eval builtins subst t2 with
      | Some v1, Some v2 -> if Value.equal v1 v2 then go rest (idx + 1) subst
      | Some v, None -> (
        match Dterm.match_value builtins t2 v subst with
        | Some subst' -> go rest (idx + 1) subst'
        | None -> ())
      | None, Some v -> (
        match Dterm.match_value builtins t1 v subst with
        | Some subst' -> go rest (idx + 1) subst'
        | None -> ())
      | None, None -> ())
    | Literal.Neq (t1, t2) :: rest -> (
      match Dterm.eval builtins subst t1, Dterm.eval builtins subst t2 with
      | Some v1, Some v2 -> if not (Value.equal v1 v2) then go rest (idx + 1) subst
      | _, _ -> ())
  in
  go body 0 Subst.empty

let ordered builtins rules =
  List.map
    (fun (r : Rule.t) ->
      match Safety.evaluation_order builtins r.Rule.body with
      | Ok body -> (r, body)
      | Error msg -> raise (Unsafe msg))
    rules

type task = Rule.t * Literal.t list * int option

let has_delta s = not (Tuples.is_empty s.delta)

(* Every genuinely new derivation consumes a fact new in the previous
   round at some positive body position (induction over rounds); firing
   each position whose store has a delta, with the split of [split],
   covers exactly those. A position whose store has none would probe an
   empty section after enumerating everything before it. *)
let delta_tasks stores rules =
  let pred_has_delta pred =
    match Hashtbl.find_opt stores pred with
    | Some s -> has_delta s
    | None -> false
  in
  List.concat_map
    (fun ((r : Rule.t), body) ->
      List.concat
        (List.mapi
           (fun i lit ->
             match lit with
             | Literal.Pos a when pred_has_delta a.Literal.pred -> [ (r, body, Some i) ]
             | Literal.Pos _ | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ -> [])
           body))
    rules

let rounds ~fuel ~what ~site ~derived ~first ~variant ~fire stores rules =
  let full_tasks () = List.map (fun (r, body) -> (r, body, None)) rules in
  let round tasks =
    Faultinj.hit site;
    Obs.count site 1;
    fire tasks;
    Hashtbl.iter (fun _ s -> promote s) stores;
    Obs.countf derived (fun () ->
        Hashtbl.fold (fun _ s n -> n + Tuples.cardinal s.delta) stores 0)
  in
  round
    (match first with
    | `Full -> full_tasks ()
    | `Delta -> delta_tasks stores rules);
  while Hashtbl.fold (fun _ s acc -> acc || has_delta s) stores false do
    Limits.check fuel ~what;
    round
      (match variant with
      | `Naive -> full_tasks ()
      | `Seminaive -> delta_tasks stores rules)
  done
