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
      (* (section, argument position ≥ 1) -> value at that position ->
         tuples of the section. Built lazily on first probe; a key at
         position 0 walks the sorted section instead. *)
}

let create ~full ~delta =
  { full; delta; next = Tuples.empty; indexes = Hashtbl.create 8 }

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

let set_delta s delta =
  s.delta <- delta;
  Hashtbl.filter_map_inplace
    (fun (section, _) idx -> match section with Full -> Some idx | Delta -> None)
    s.indexes

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

let index s section pos =
  match Hashtbl.find_opt s.indexes (section, pos) with
  | Some idx -> idx
  | None ->
    let idx = build (section_tuples s section) pos in
    Hashtbl.add s.indexes (section, pos) idx;
    idx

type probe = Hit | Miss | Scan

(* What a positive literal's arguments fix under the current
   substitution: the whole tuple, the first argument that evaluates, or
   nothing. *)
type key = Tuple of Value.t list | Arg of int * Value.t | Unbound

let key_of vals =
  let rec first i = function
    | [] -> Unbound
    | Some v :: _ -> Arg (i, v)
    | None :: vals -> first (i + 1) vals
  in
  if List.for_all Option.is_some vals then Tuple (List.map Option.get vals)
  else first 0 vals

(* [Tuples] is ordered lexicographically, so the tuples whose first
   argument is [v] are the run of the set that starts at [[v]], in the
   order an index bucket would list them. *)
let walk tuples v f =
  let rec go seq found =
    match seq () with
    | Seq.Cons ((w :: _ as tup), rest) when Value.equal w v ->
      f tup;
      go rest true
    | Seq.Cons _ | Seq.Nil -> found
  in
  if go (Tuples.to_seq_from [ v ] tuples) false then Hit else Miss

let probe s section key f =
  let tuples = section_tuples s section in
  match key with
  | Tuple tup ->
    if Tuples.mem tup tuples then begin
      f tup;
      Hit
    end
    else Miss
  | Arg (0, v) -> walk tuples v f
  | Arg (pos, v) -> (
    match Vtbl.find_opt (index s section pos) v with
    | Some bucket ->
      Tuples.iter f bucket;
      Hit
    | None -> Miss)
  | Unbound ->
    Tuples.iter f tuples;
    Scan

let split delta_pos idx =
  match delta_pos with
  | Some d when d = idx -> [ Delta ]
  | Some d when d > idx -> [ Full ]
  | Some _ | None -> [ Full; Delta ]

let solve builtins ?(subst = Subst.empty) ~store ~sections ~neg ~count body k =
  (* An argument that evaluated is compared by value; the others match
     as in {!Dterm.match_value}, left to right. *)
  let rec match_args subst args vals tup =
    match args, vals, tup with
    | [], [], [] -> Some subst
    | _ :: args', Some v :: vals', w :: tup' ->
      if Value.equal v w then match_args subst args' vals' tup' else None
    | t :: args', None :: vals', w :: tup' -> (
      match Dterm.match_value builtins t w subst with
      | Some subst' -> match_args subst' args' vals' tup'
      | None -> None)
    | _, _, _ -> None
  in
  let rec go body idx subst =
    match body with
    | [] -> k subst
    | Literal.Pos a :: rest ->
      let s = store a.Literal.pred in
      (* The arguments are evaluated once: every one evaluating makes
         the probe a membership test, which binds nothing; otherwise the
         first that evaluates keys the probe, and a literal with none
         scans the section. *)
      let vals = List.map (Dterm.eval builtins subst) a.Literal.args in
      let key = key_of vals in
      let try_tuple =
        match key with
        | Tuple _ -> fun _ -> go rest (idx + 1) subst
        | Arg _ | Unbound -> (
          fun tup ->
            match match_args subst a.Literal.args vals tup with
            | Some subst' -> go rest (idx + 1) subst'
            | None -> ())
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
  go body 0 subst

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
