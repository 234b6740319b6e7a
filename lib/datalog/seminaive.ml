open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Unsafe = Store.Unsafe

(* Every predicate an evaluation reads has a {!Store}: derived predicates
   a full/delta/next store per fixpoint, extensional ones a store over
   the base relation. Each evaluation builds its own table, so no two
   domains share a store. *)
type stores = (string, Store.t) Hashtbl.t

let store_in (stores : stores) pred = Hashtbl.find stores pred

(* A negative literal's atom is ground by safety; it passes when its
   store — the fully materialised relation of a lower stratum or the
   EDB — lacks it. *)
let solve builtins stores ?subst ~sections body k =
  let neg subst a =
    match Literal.ground_atom builtins subst a with
    | Some (pred, args) -> not (Store.mem (store_in stores pred) args)
    | None -> false
  in
  Store.solve builtins ?subst ~store:(store_in stores) ~sections ~neg ~count:ignore
    body k

(* Stores for the body predicates that no rule derives, [section pred]
   giving each one's [(full, delta)]. *)
let add_body_stores stores rules section =
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun (pred, _) ->
          if not (Hashtbl.mem stores pred) then begin
            let full, delta = section pred in
            Hashtbl.add stores pred (Store.create ~full ~delta)
          end)
        (Rule.body_preds r))
    rules

let rec interpreted builtins = function
  | Dterm.App (f, args) ->
    Builtins.is_interpreted builtins f || List.exists (interpreted builtins) args
  | Dterm.Var _ | Dterm.Cst _ -> false

(* Fire one task, calling [emit] on each head fact it derives; the
   positive literal at body position [i] reads [sections i]. The literal
   a task restricts to its delta is evaluated first when it needs no
   bindings — a positive atom with no interpreted argument — so the task
   walks the delta and probes the other literals with what it binds,
   instead of enumerating them to reach it. [sections] stays keyed on
   the written positions. *)
let fire_task builtins stores ~sections ((r : Rule.t), body, delta_pos) emit =
  let body, sections =
    match delta_pos with
    | Some d when d > 0 -> (
      match List.nth body d with
      | Literal.Pos a as lit
        when not (List.exists (interpreted builtins) a.Literal.args) ->
        ( lit :: List.filteri (fun j _ -> j <> d) body,
          fun j -> sections (if j = 0 then d else if j <= d then j - 1 else j) )
      | Literal.Pos _ | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ ->
        (body, sections))
    | Some _ | None -> (body, sections)
  in
  solve builtins stores ~sections body (fun subst ->
      match Literal.ground_atom builtins subst r.Rule.head with
      | Some (pred, args) -> emit pred args
      | None -> ())

(* The shared fixpoint loop: [stores] arrive pre-seeded (that is the only
   difference between a from-scratch run and a resumed one), and
   {!Store.rounds} runs the rounds. The first is governed by [first]:
   [`Full] runs it unrestricted (the from-scratch seeding), while
   [`Delta] fires only the delta-restricted instantiations, like every
   later semi-naive round — a resumed run's stores carry the facts new
   since the materialization as their delta, so its first round never
   rescans the materialized bulk. *)
let eval_loop ~variant ~first ~fuel program ~stores ~derived rules =
  let builtins = program.Program.builtins in
  let store = store_in stores in
  let rules = Store.ordered builtins rules in
  let commit pred args =
    let s = store pred in
    if not (Store.known s args) then begin
      Limits.spend fuel ~what:"seminaive: fact";
      Store.add s args
    end
  in
  let fire =
    List.iter (fun ((_, _, delta_pos) as task) ->
        fire_task builtins stores ~sections:(Store.split delta_pos) task commit)
  in
  (* Under a [~degrade:true] budget, exhaustion anywhere in the loop is
     caught at this level: the facts derived so far (including the
     not-yet-promoted current round) are a sound under-approximation of
     the monotone fixpoint, returned with the budget latched as
     degraded. Injected faults and other exceptions propagate. *)
  (try
     Store.rounds ~fuel ~what:"seminaive: round" ~site:"seminaive/round"
       ~derived:"seminaive/derived" ~first ~variant ~fire stores rules
   with e when Limits.degradable fuel e -> Limits.latch fuel e);
  (* Normally [delta]/[next] are empty here; after a degraded cut they
     hold the in-flight facts, all of which are genuinely derived. *)
  List.fold_left
    (fun acc pred -> Edb.add_relation pred (Store.all (store pred)) acc)
    Edb.empty derived

let head_preds rules = List.sort_uniq String.compare (List.map Rule.head_pred rules)

let run ~variant ?(fuel = Limits.default ()) program ~base rules =
  Obs.span "seminaive" @@ fun () ->
  let stores : stores = Hashtbl.create 16 in
  let derived = head_preds rules in
  (* A derived predicate may also have extensional facts (ground facts of
     the same name in the database); they behave as axioms, i.e. as part
     of the initial "old" facts. *)
  List.iter
    (fun pred ->
      Hashtbl.add stores pred
        (Store.create ~full:(Edb.relation base pred) ~delta:Tuples.empty))
    derived;
  add_body_stores stores rules (fun pred -> (Edb.relation base pred, Tuples.empty));
  eval_loop ~variant ~first:`Full ~fuel program ~stores ~derived rules

let resume ?(fuel = Limits.default ()) program ~base ~init ~delta rules =
  Obs.span "seminaive.resume" @@ fun () ->
  let stores : stores = Hashtbl.create 16 in
  let derived = head_preds rules in
  (* A derived predicate's store holds [init] as its full section and,
     as its delta, its facts in [delta] or [base] (new axioms) that
     [init] lacks; an extensional one holds [base] split the same way.
     The first round is then an ordinary delta round. Every derivation
     over [init] and [base] that reads no delta fact must already be in
     [init] or [delta] — the caller's obligation; from there the loop
     converges to exactly the from-scratch result. *)
  List.iter
    (fun pred ->
      let full = Edb.relation init pred in
      let fresh = Tuples.union (Edb.relation base pred) (Edb.relation delta pred) in
      Hashtbl.add stores pred (Store.create ~full ~delta:(Tuples.diff fresh full)))
    derived;
  add_body_stores stores rules (fun pred ->
      let delta = Edb.relation delta pred in
      (Tuples.diff (Edb.relation base pred) delta, delta));
  eval_loop ~variant:`Seminaive ~first:`Delta ~fuel program ~stores ~derived rules

(* One set of stores over [base] serves every frontier: each call swaps
   the frontier in as their delta, which only the restricted position
   reads; every other literal reads [base] alone. *)
let dependents program ~base rules =
  let builtins = program.Program.builtins in
  let stores : stores = Hashtbl.create 16 in
  add_body_stores stores rules (fun pred -> (Edb.relation base pred, Tuples.empty));
  let rules = Store.ordered builtins rules in
  fun frontier emit ->
    Hashtbl.iter (fun pred s -> Store.set_delta s (Edb.relation frontier pred)) stores;
    List.iter
      (fun ((_, _, delta_pos) as task) ->
        let sections j =
          if delta_pos = Some j then [ Store.Delta ] else [ Store.Full ]
        in
        fire_task builtins stores ~sections task emit)
      (Store.delta_tasks stores rules)

exception Derived

(* Goal-directed: a fact binds the head arguments that apply no
   interpreted function — [Dterm.match_value] cannot invert one — and
   the body is solved from that substitution. The whole head is then
   evaluated under each solution and compared with the fact. *)
let rederive ?(fuel = Limits.default ()) program ~base facts rules =
  let builtins = program.Program.builtins in
  let stores : stores = Hashtbl.create 16 in
  add_body_stores stores rules (fun pred -> (Edb.relation base pred, Tuples.empty));
  let by_head = Hashtbl.create 16 in
  List.iter
    (fun ((r : Rule.t), body) -> Hashtbl.add by_head (Rule.head_pred r) (r, body))
    (Store.ordered builtins rules);
  let rec bind subst args tup =
    match args, tup with
    | [], [] -> Some subst
    | t :: args', v :: tup' ->
      if interpreted builtins t then bind subst args' tup'
      else
        Option.bind (Dterm.match_value builtins t v subst) (fun s ->
            bind s args' tup')
    | _, _ -> None
  in
  let derives tup ((r : Rule.t), body) =
    match bind Subst.empty r.Rule.head.Literal.args tup with
    | None -> false
    | Some subst -> (
      match
        solve builtins stores ~subst ~sections:(fun _ -> [ Store.Full ]) body (fun s ->
            match Literal.ground_atom builtins s r.Rule.head with
            | Some (_, args) when List.equal Value.equal args tup ->
              raise_notrace Derived
            | Some _ | None -> ())
      with
      | () -> false
      | exception Derived -> true)
  in
  Edb.fold
    (fun pred tup acc ->
      if (not (Edb.mem base pred tup))
         && List.exists (derives tup) (Hashtbl.find_all by_head pred)
      then begin
        Limits.spend fuel ~what:"seminaive: fact";
        Edb.add pred tup acc
      end
      else acc)
    facts Edb.empty

let naive ?fuel program ~base rules = run ~variant:`Naive ?fuel program ~base rules

let seminaive ?fuel program ~base rules =
  run ~variant:`Seminaive ?fuel program ~base rules

let stratified ?fuel program edb =
  match Safety.check program with
  | Error violations ->
    Error
      (Fmt.str "unsafe program: %a"
         Fmt.(list ~sep:sp Safety.pp_violation)
         violations)
  | Ok () -> (
    match Stratify.schedule program with
    | Error msg -> Error msg
    | Ok strata ->
      (* A stratum's components read only lower strata and the EDB, never
         each other's relations, so their fixpoints evaluate as
         independent {!Pool} tasks against the same base (in order, on
         the caller, at pool size 1) and merge in component order. Fuel
         is per derived fact and the components partition the stratum's
         facts, so results and fuel are the same at every pool size
         (DESIGN.md §9). *)
      let eval_stratum base (comps, rules) =
        if Obs.enabled () && List.length comps > 1 then
          Obs.count "pool/strata_tasks" (List.length comps);
        Pool.map
          (fun rules -> seminaive ?fuel program ~base rules)
          (Program.bucket_rules comps rules)
        |> List.fold_left Edb.union base
      in
      (* Degradation stops at the stratum that ran out: its facts are a
         sound under-approximation, but evaluating *later* strata
         against it would be unsound (a missing fact could satisfy a
         negative literal), so they are skipped entirely — every
         reported fact remains true, the result just stops early. *)
      let degraded_now () =
        match fuel with
        | Some f -> Limits.degraded f <> None
        | None -> false
      in
      let rec fold_strata base = function
        | [] -> base
        | s :: rest ->
          let base' = eval_stratum base s in
          if degraded_now () then base' else fold_strata base' rest
      in
      let rules =
        Program.bucket_rules (List.map List.concat strata) program.Program.rules
      in
      Ok (fold_strata edb (List.combine strata rules)))
