open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Unsafe = Store.Unsafe

(* Every predicate an evaluation reads has a {!Store}: derived predicates
   a full/delta/next store per fixpoint, extensional ones a store over
   the base relation. The table is complete before the first round, so
   concurrent [collect] tasks only read it. *)
type stores = (string, Store.t) Hashtbl.t

let store_in (stores : stores) pred = Hashtbl.find stores pred

(* A negative literal's atom is ground by safety; it passes when its
   store — the fully materialised relation of a lower stratum or the
   EDB — lacks it. *)
let solve builtins stores ~sections body k =
  let neg subst a =
    match Literal.ground_atom builtins subst a with
    | Some (pred, args) -> not (Store.mem (store_in stores pred) args)
    | None -> false
  in
  Store.solve builtins ~store:(store_in stores) ~sections ~neg ~count:ignore
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

(* The shared fixpoint loop: [stores] arrive pre-seeded (that is the only
   difference between a from-scratch run and a resumed one), and
   {!Store.rounds} runs the rounds. The first is governed by [first]:
   [`Full] runs it unrestricted (the from-scratch seeding, and DRed's
   rederivation pass), while [`Delta] fires only the delta-restricted
   instantiations, like every later semi-naive round — with [resume
   ~adds] the extensional stores carry the newly inserted facts as their
   delta, so the first round is the semi-naive continuation, which never
   rescans the materialized bulk. *)
let eval_loop ~variant ~first ~fuel program ~stores ~derived rules =
  let builtins = program.Program.builtins in
  let store = store_in stores in
  let solve delta_pos body k =
    solve builtins stores ~sections:(Store.split delta_pos) body k
  in
  let rules = Store.ordered builtins rules in
  let commit pred args =
    let s = store pred in
    if not (Store.known s args) then begin
      Limits.spend fuel ~what:"seminaive: fact";
      Store.add s args
    end
  in
  let derive (r : Rule.t) body delta_pos =
    solve delta_pos body (fun subst ->
        match Literal.ground_atom builtins subst r.Rule.head with
        | Some (pred, args) -> commit pred args
        | None -> ())
  in
  (* Parallel round shape: every (rule, delta position) task enumerates
     its instantiations against the frozen stores — reads only, with a
     task-local dedup — and the candidate streams are then committed
     sequentially in task order. That replays exactly the derivation
     sequence of the sequential loop (same facts, same order, same fuel
     spends), so stores and fuel stay byte-identical to [domains:1];
     only the enumeration work fans out (DESIGN.md §9). Every predicate
     has its store before the first round, and the only shared state a
     task can create, a store's index, is built under that store's lock
     (see {!Store.solve}). *)
  let collect (r : Rule.t) body delta_pos () =
    let seen : (string, Tuples.t ref) Hashtbl.t = Hashtbl.create 8 in
    let acc = ref [] in
    solve delta_pos body (fun subst ->
        match Literal.ground_atom builtins subst r.Rule.head with
        | Some (pred, args) when not (Store.mem (store pred) args) ->
          let local =
            match Hashtbl.find_opt seen pred with
            | Some l -> l
            | None ->
              let l = ref Tuples.empty in
              Hashtbl.add seen pred l;
              l
          in
          if not (Tuples.mem args !local) then begin
            local := Tuples.add args !local;
            acc := (pred, args) :: !acc
          end
        | Some _ | None -> ());
    List.rev !acc
  in
  let derive_all tasks =
    match tasks with
    | [] -> ()
    | [ (r, body, delta_pos) ] -> derive r body delta_pos
    | tasks when not (Pool.parallel ()) ->
      List.iter (fun (r, body, delta_pos) -> derive r body delta_pos) tasks
    | tasks ->
      if Obs.enabled () then Obs.count "pool/rule_tasks" (List.length tasks);
      let candidates =
        Pool.run
          (List.map (fun (r, body, delta_pos) -> collect r body delta_pos) tasks)
      in
      List.iter (List.iter (fun (pred, args) -> commit pred args)) candidates
  in
  (* Under a [~degrade:true] budget, exhaustion anywhere in the loop is
     caught at this level: the facts derived so far (including the
     not-yet-promoted current round) are a sound under-approximation of
     the monotone fixpoint, returned with the budget latched as
     degraded. Injected faults and other exceptions propagate. *)
  (try
     Store.rounds ~fuel ~what:"seminaive: round" ~site:"seminaive/round"
       ~derived:"seminaive/derived" ~first ~variant ~fire:derive_all stores
       rules
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

let resume ?(fuel = Limits.default ()) ?adds program ~base ~init rules =
  Obs.span "seminaive.resume" @@ fun () ->
  let stores : stores = Hashtbl.create 16 in
  let derived = head_preds rules in
  (* Seed full from the materialized previous state; extensional facts of
     derived predicates that are new in [base] enter as the initial delta
     — they are new axioms. With [adds] the extensional stores hold the
     new facts as their delta, and the first round fires only the
     delta-restricted instantiations drawn from them (pure semi-naive
     continuation, for the insert-only path); without it the first round
     wakes every rule against the resumed state (the rederivation pass
     DRed needs). Starting below the fixpoint of the rules over [base] is
     the caller's obligation; from there the loop converges to exactly
     the from-scratch result. *)
  List.iter
    (fun pred ->
      let full = Edb.relation init pred in
      Hashtbl.add stores pred
        (Store.create ~full ~delta:(Tuples.diff (Edb.relation base pred) full)))
    derived;
  let first, sections =
    match adds with
    | None -> (`Full, fun pred -> (Edb.relation base pred, Tuples.empty))
    | Some adds ->
      ( `Delta,
        fun pred ->
          let delta = Edb.relation adds pred in
          (Tuples.diff (Edb.relation base pred) delta, delta) )
  in
  add_body_stores stores rules sections;
  eval_loop ~variant:`Seminaive ~first ~fuel program ~stores ~derived rules

(* Each store holds [base] as its full section and the frontier (a
   subset of it) as its delta, which only the restricted position reads;
   every other literal reads [base] alone. *)
let delta_heads program ~base ~frontier rules =
  let builtins = program.Program.builtins in
  let stores : stores = Hashtbl.create 16 in
  add_body_stores stores rules (fun pred ->
      (Edb.relation base pred, Edb.relation frontier pred));
  let out = ref Edb.empty in
  List.iter
    (fun ((r : Rule.t), body, delta_pos) ->
      let sections j =
        match delta_pos with
        | Some d when d = j -> [ Store.Delta ]
        | Some _ | None -> [ Store.Full ]
      in
      solve builtins stores ~sections body (fun subst ->
          match Literal.ground_atom builtins subst r.Rule.head with
          | Some (pred, args) -> out := Edb.add pred args !out
          | None -> ()))
    (Store.delta_tasks stores (Store.ordered builtins rules));
  !out

let naive ?fuel program ~base rules = run ~variant:`Naive ?fuel program ~base rules

let seminaive ?fuel program ~base rules =
  run ~variant:`Seminaive ?fuel program ~base rules

(* The rules whose head is in each group, one bucket per group, each in
   program order: one pass over the rules, not one per group. *)
let bucket_rules groups rules =
  let group_of = Hashtbl.create 64 in
  List.iteri (fun i g -> List.iter (fun p -> Hashtbl.replace group_of p i) g) groups;
  let buckets = Array.make (List.length groups) [] in
  List.iter
    (fun r ->
      Option.iter (fun i -> buckets.(i) <- r :: buckets.(i))
        (Hashtbl.find_opt group_of (Rule.head_pred r)))
    (List.rev rules);
  Array.to_list buckets

let stratified ?fuel program edb =
  match Safety.check program with
  | Error violations ->
    Error
      (Fmt.str "unsafe program: %a"
         Fmt.(list ~sep:sp Safety.pp_violation)
         violations)
  | Ok () -> (
    match Stratify.strata program with
    | Error msg -> Error msg
    | Ok groups ->
      let eval_rules base rules =
        if rules = [] then Edb.empty
        else seminaive ?fuel program ~base rules
      in
      (* With a live pool, a stratum splits into the connected components
         of its dependency graph: components cannot read each other's
         relations, so their fixpoints evaluate as independent tasks
         against the same base and merge in component order. Fuel is
         per-derived-fact, so the shared budget spends the same total as
         the joint sequential loop; the merged EDB is identical because
         the component fixpoints partition the stratum's derived facts
         (DESIGN.md §9). At pool size 1 the stratum is evaluated whole,
         exactly the pre-multicore path. *)
      let eval_group base (group, rules) =
        let comps =
          if Pool.parallel () then Stratify.components program group
          else [ group ]
        in
        match comps with
        | [] -> base
        | [ _ ] -> Edb.union base (eval_rules base rules)
        | comps ->
          if Obs.enabled () then Obs.count "pool/strata_tasks" (List.length comps);
          let results = Pool.map (eval_rules base) (bucket_rules comps rules) in
          List.fold_left Edb.union base results
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
      let rec fold_groups base = function
        | [] -> base
        | g :: rest ->
          let base' = eval_group base g in
          if degraded_now () then base' else fold_groups base' rest
      in
      Ok
        (fold_groups edb
           (List.combine groups (bucket_rules groups program.Program.rules))))
