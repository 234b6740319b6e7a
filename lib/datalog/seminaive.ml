open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Unsafe of string

type order = [ `Syntactic | `Stats ]

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

(* [`Stats] ranks the ready literals at each ordering step by their
   envelope cardinality estimate (see {!Cardest}) — smallest relation
   first. Any valid ordering derives the same facts on the same rounds,
   so the choice affects enumeration cost only, never results or fuel. *)
let ordered_rules ?(order = `Syntactic) ?live program ~base rules =
  let prefer =
    match order with
    | `Syntactic -> fun _ -> 0
    | `Stats -> (
      match live with
      | None -> Cardest.prefer program base
      | Some live -> Cardest.prefer_with ~live program base)
  in
  List.map
    (fun (r : Rule.t) ->
      match
        Safety.evaluation_order_with program.Program.builtins ~prefer
          r.Rule.body
      with
      | Ok body -> (r, body)
      | Error msg -> raise (Unsafe msg))
    rules

(* The shared fixpoint loop: [stores] arrive pre-seeded (that is the only
   difference between a from-scratch run and a resumed one). The first
   round is governed by [first]: [`Full] runs it unrestricted (the
   from-scratch seeding, and DRed's rederivation pass), while [`Delta]
   fires only the delta-restricted instantiations, like every later
   semi-naive round — with [resume ~adds] the extensional stores carry
   the newly inserted facts as their delta, so the first round is the
   semi-naive continuation, which never rescans the materialized bulk.
   Afterwards, delta-restricted rounds close up either way. *)
let eval_loop ~variant ~first ~fuel ~order program ~base ~stores ~derived rules =
  let builtins = program.Program.builtins in
  let store = store_in stores in
  let solve delta_pos body k =
    solve builtins stores ~sections:(Store.split delta_pos) body k
  in
  let ordered = ordered_rules ~order program ~base rules in
  (* Under [`Stats], re-rank the body literals each round against the
     live store cardinalities: as derived relations grow past their
     static envelopes, the cheapest enumeration order changes. Every
     valid ordering derives the same facts on the same rounds, so the
     re-rank moves enumeration cost only — results and fuel are
     untouched — and it reads the stores, not the metrics registry, so
     runs are identical with metrics on or off. *)
  let live_ordered prev =
    match order with
    | `Syntactic -> prev
    | `Stats ->
      let live pred =
        if List.mem pred derived then
          let s = store pred in
          Some (Tuples.cardinal (Store.full s) + Tuples.cardinal (Store.delta s))
        else None
      in
      let next = ordered_rules ~order ~live program ~base rules in
      let same =
        List.for_all2
          (fun (_, b1) (_, b2) -> List.for_all2 ( == ) b1 b2)
          prev next
      in
      if not same then Obs.count "seminaive/reorder" 1;
      next
  in
  let cur_ordered = ref ordered in
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
  let full_tasks ordered = List.map (fun (r, body) -> (r, body, None)) ordered in
  (* Every genuinely new derivation consumes at least one new fact at
     some body position (induction over rounds); firing each position
     whose store has a delta, with the standard old/delta/all split,
     covers exactly those instantiations. *)
  let delta_tasks ordered =
    List.concat_map
      (fun ((r : Rule.t), body) ->
        List.concat
          (List.mapi
             (fun i lit ->
               match lit with
               | Literal.Pos a
                 when not (Tuples.is_empty (Store.delta (store a.Literal.pred)))
                 ->
                 [ (r, body, Some i) ]
               | Literal.Pos _ | Literal.Neg _ | Literal.Eq _ | Literal.Neq _
                 -> [])
             body))
      ordered
  in
  let promote () = Hashtbl.iter (fun _ s -> Store.promote s) stores in
  let delta_nonempty () =
    Hashtbl.fold
      (fun _ s acc -> acc || not (Tuples.is_empty (Store.delta s)))
      stores false
  in
  let derived_this_round () =
    Hashtbl.fold (fun _ s acc -> acc + Tuples.cardinal (Store.next s)) stores 0
  in
  (* Under a [~degrade:true] budget, exhaustion anywhere in the loop is
     caught at this level: the facts derived so far (including the
     not-yet-promoted current round) are a sound under-approximation of
     the monotone fixpoint, returned with the budget latched as
     degraded. Injected faults and other exceptions propagate. *)
  (try
     Obs.count "seminaive/round" 1;
     Faultinj.hit "seminaive/round";
     derive_all
       (match first with
       | `Full -> full_tasks ordered
       | `Delta -> delta_tasks ordered);
     Obs.countf "seminaive/derived" derived_this_round;
     promote ();
     while delta_nonempty () do
       Limits.check fuel ~what:"seminaive: round";
       Faultinj.hit "seminaive/round";
       Obs.count "seminaive/round" 1;
       cur_ordered := live_ordered !cur_ordered;
       let ordered = !cur_ordered in
       derive_all
         (match variant with
         | `Naive ->
           (* Full re-evaluation: recompute everything from the whole
              store. *)
           full_tasks ordered
         | `Seminaive -> delta_tasks ordered);
       Obs.countf "seminaive/derived" derived_this_round;
       promote ()
     done
   with e when Limits.degradable fuel e -> Limits.latch fuel e);
  (* Normally [delta]/[next] are empty here; after a degraded cut they
     hold the in-flight facts, all of which are genuinely derived. *)
  List.fold_left
    (fun acc pred -> Edb.add_relation pred (Store.all (store pred)) acc)
    Edb.empty derived

let head_preds rules = List.sort_uniq String.compare (List.map Rule.head_pred rules)

let run ~variant ?(fuel = Limits.default ()) ?(order = `Syntactic) program
    ~base rules =
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
  eval_loop ~variant ~first:`Full ~fuel ~order program ~base ~stores ~derived
    rules

let resume ?(fuel = Limits.default ()) ?(order = `Syntactic) ?adds program
    ~base ~init rules =
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
  eval_loop ~variant:`Seminaive ~first ~fuel ~order program ~base ~stores
    ~derived rules

(* Each store holds [base] as its full section and the frontier (a
   subset of it) as its delta, which only the restricted position reads;
   every other literal reads [base] alone. *)
let delta_heads ?order program ~base ~frontier rules =
  let builtins = program.Program.builtins in
  let stores : stores = Hashtbl.create 16 in
  add_body_stores stores rules (fun pred ->
      (Edb.relation base pred, Edb.relation frontier pred));
  let out = ref Edb.empty in
  List.iter
    (fun ((r : Rule.t), body) ->
      List.iteri
        (fun i lit ->
          match lit with
          | Literal.Pos a when Edb.cardinal frontier a.Literal.pred > 0 ->
            solve builtins stores
              ~sections:(fun j -> if j = i then [ Store.Delta ] else [ Store.Full ])
              body
              (fun subst ->
                match Literal.ground_atom builtins subst r.Rule.head with
                | Some (pred, args) -> out := Edb.add pred args !out
                | None -> ())
          | Literal.Pos _ | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ -> ())
        body)
    (ordered_rules ?order program ~base rules);
  !out

let naive ?fuel ?order program ~base rules =
  run ~variant:`Naive ?fuel ?order program ~base rules

let seminaive ?fuel ?order program ~base rules =
  run ~variant:`Seminaive ?fuel ?order program ~base rules

let stratified ?fuel ?order program edb =
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
      let eval_rules base group =
        let rules =
          List.filter (fun r -> List.mem (Rule.head_pred r) group) program.Program.rules
        in
        if rules = [] then Edb.empty
        else seminaive ?fuel ?order program ~base rules
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
      let eval_group base group =
        let comps =
          if Pool.parallel () then Stratify.components program group
          else [ group ]
        in
        match comps with
        | [] -> base
        | [ comp ] -> Edb.union base (eval_rules base comp)
        | comps ->
          if Obs.enabled () then Obs.count "pool/strata_tasks" (List.length comps);
          let results = Pool.map (fun comp -> eval_rules base comp) comps in
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
      Ok (fold_groups edb groups))
