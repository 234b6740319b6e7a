open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Undefined_relation of string
exception Recursive_definition of string

type vset = { low : Value.t; high : Value.t }

let is_defined s = Value.equal s.low s.high

(* A defined constant's two bounds are one set: one probe answers. *)
let member s v =
  if Value.mem v s.low then Tvl.True
  else if (not (is_defined s)) && Value.mem v s.high then Tvl.Undef
  else Tvl.False

let exact v = { low = v; high = v }

let pp_vset ppf s =
  if is_defined s then Value.pp ppf s.low
  else Fmt.pf ppf "[certain %a, possible %a]" Value.pp s.low Value.pp s.high

module Smap = Map.Make (String)

(* Which bounds an evaluation must produce. A phase grows one bound and
   needs the other only where a difference subtracts it, so evaluating
   only the needed side halves the work of every operator below it. *)
type mask = Low | High | Both

let flip = function Low -> High | High -> Low | Both -> Both
let wants_low = function Low | Both -> true | High -> false
let wants_high = function High | Both -> true | Low -> false

let pick mask s =
  match mask with
  | Low -> s.low
  | High -> s.high
  | Both -> invalid_arg "Rec_eval.pick: Both"

(* The sides of a result outside its mask are unspecified and never
   read; the helpers below leave them empty. An operator on defined
   inputs computes once and returns its one set as both bounds. *)
let read mask low high =
  { low = (if wants_low mask then low () else Value.empty_set);
    high = (if wants_high mask then high () else Value.empty_set) }

let map_bounds mask f s =
  if is_defined s then exact (f s.low)
  else read mask (fun () -> f s.low) (fun () -> f s.high)

let lift mask f a b =
  if is_defined a && is_defined b then exact (f a.low b.low)
  else read mask (fun () -> f a.low b.low) (fun () -> f a.high b.high)

(* What an evaluation reads besides the expression. [consts] gives the
   current bounds of every defined constant, per mask, so a phase's
   accumulator is merged only when something reads it. [two_valued]:
   every set read is defined ({!two_valued}). *)
type ctx = {
  builtins : Builtins.t;
  db : Db.t;
  consts : (mask -> vset) Smap.t;
  fuel : Limits.fuel;
  advice : Advice.t;
  two_valued : bool;
}

type solution = {
  ctx : ctx;  (* [consts]: every constant, solved *)
  defs : Defs.t;  (* as given to [solve] *)
  rounds : int;
}

(* Whether a name in scope is one set for both bounds, as a database
   relation always is. *)
let defined ctx env name =
  match (List.assoc_opt name env, Smap.find_opt name ctx.consts) with
  | Some bounds, _ | None, Some bounds -> is_defined (bounds Both)
  | None, None -> true

(* Three-valued evaluation of an inlined expression given current bounds
   for the defined constants. The difference operator realises the valid
   reading of subtraction: an element is certainly in [a - b] when it is
   certainly in [a] and not possibly in [b]; possibly in [a - b] when
   possibly in [a] and not certainly in [b]. Only the bounds in [mask]
   are computed, so a difference's right side is evaluated for the
   flipped mask. *)
let rec eval_vset ctx mask env e =
  let { builtins; fuel; advice; _ } = ctx in
  let recur = eval_vset ctx in
  match e with
  | Expr.Rel name -> (
    match List.assoc_opt name env with
    | Some bounds -> bounds mask
    | None -> (
      match Smap.find_opt name ctx.consts with
      | Some bounds -> bounds mask
      | None -> (
        match Db.find ctx.db name with
        | Some v ->
          if Obs.enabled () then
            Obs.gauge ("db/card/" ^ name) (float_of_int (Value.cardinal v));
          exact v
        | None -> raise (Undefined_relation name))))
  | Expr.Lit v -> exact v
  | Expr.Param x -> invalid_arg ("Rec_eval: unsubstituted parameter " ^ x)
  | Expr.Union (a, b) -> lift mask Value.union (recur mask env a) (recur mask env b)
  | Expr.Diff (a, b) ->
    let sb = recur (flip mask) env b in
    lift mask Value.diff (recur mask env a) { low = sb.high; high = sb.low }
  | Expr.Product (a, b) ->
    let s = lift mask Value.product (recur mask env a) (recur mask env b) in
    Obs.countf "eval/product_out" (fun () ->
        Value.cardinal (if wants_high mask then s.high else s.low));
    s
  | Expr.Select (p, a) -> (
    match Advice.fused_join advice builtins e with
    | Some (ea, eb, join) -> lift mask join (recur mask env ea) (recur mask env eb)
    | None ->
      let sa = recur mask env a in
      map_bounds mask (Value.filter (fun v -> Pred.eval builtins p v = Some true)) sa)
  | Expr.Map (f, a) -> (
    match Advice.fused_join advice builtins ~map:f a with
    | Some (ea, eb, join) -> lift mask join (recur mask env ea) (recur mask env eb)
    | None ->
      let sa = recur mask env a in
      map_bounds mask (Value.filter_map_set (Efun.apply builtins f)) sa)
  | Expr.Ifp (x, body) ->
    Obs.span "ifp" @@ fun () ->
    (* The only algebra IFP loop. Over defined free names the two bounds
       are one set, iterated once at the caller's bound; otherwise both
       iterate, whatever the mask, so the rounds do not depend on it. *)
    let one =
      ctx.two_valued
      || List.for_all (fun n -> n = x || defined ctx env n) (Expr.rel_names body)
    in
    let imask = if not one then Both else if mask = High then High else Low in
    (* Exhaustion returns the iterate so far only where the answer grows
       with it: in a two-valued evaluation, at the low bound. *)
    let degrades e = ctx.two_valued && imask = Low && Limits.degradable fuel e in
    (* With [one], [low] is [high] and holds the one set. *)
    let low = Delta.Acc.create () in
    let high = if one then low else Delta.Acc.create () in
    let current mask =
      read mask (fun () -> Delta.Acc.value low) (fun () -> Delta.Acc.value high)
    in
    let env' = (x, current) :: env in
    (* A round's new tuples: the body against the current iterate (the
       first round, and every naive one), or derived from the last delta
       ({!Delta}); both derivations read the previous iterate. *)
    let seminaive = advice.Advice.seminaive && Delta.eligible [ x ] body in
    let step round body d =
      if round = 0 || not seminaive then
        let s = eval_vset ctx imask env' body in
        if one then exact (pick imask s) else s
      else if one then
        let changes = [ (x, Delta.grown d.low) ] in
        exact (derive_bound ctx env' imask ~changes ~other:changes body)
      else
        let low = [ (x, Delta.grown d.low) ] and high = [ (x, Delta.grown d.high) ] in
        let dlow = derive_bound ctx env' Low ~changes:low ~other:high body in
        { low = dlow; high = derive_bound ctx env' High ~changes:high ~other:low body }
    in
    let extend d =
      let dlow = Delta.Acc.extend low d.low in
      if one then exact dlow else { low = dlow; high = Delta.Acc.extend high d.high }
    in
    let rec loop round body d =
      (* Re-planning on the observed cardinality: a result-exact body,
         adopted by a semi-naive loop only while delta-eligible. *)
      let body =
        if round = 0 || Advice.is_none advice then body
        else
          let bound = [ (x, fun () -> Delta.Acc.cardinal low) ] in
          match advice.Advice.refresh ~bound body with
          | Some body' when (not seminaive) || Delta.eligible [ x ] body' -> body'
          | Some _ | None -> body
      in
      (* Each round probes the budget unamortized, carries the
         eval/round chaos point and spends one unit. After a degradation
         no round starts, so a truncated value meets no later round. *)
      match
        if ctx.two_valued && Option.is_some (Limits.degraded fuel) then
          Limits.fail_degraded fuel;
        Limits.check fuel ~what:"IFP round";
        Faultinj.hit "eval/round";
        Limits.spend fuel ~what:"IFP iteration";
        Obs.count "eval/ifp_iter" 1;
        let d' = extend (step round body d) in
        Obs.countf "eval/ifp_delta" (fun () -> Value.cardinal d'.low);
        d'
      with
      | exception e when degrades e ->
        Limits.latch fuel e;
        current Both
      | d' ->
        if Delta.is_empty d'.low && Delta.is_empty d'.high then current Both
        else loop (round + 1) body d'
    in
    loop 0 body (exact Value.empty_set)
  | Expr.Call _ -> invalid_arg "Rec_eval: Call survived inlining"

(* The new tuples of [e]'s [mask] bound: the plus side of its change
   ({!Delta.derive}) given [changes] at that bound and [other] at the
   flipped one, which a difference's right side reads, as in
   [low = a.low - b.high]. *)
and derive_bound ctx env mask ~changes ~other e =
  let bound mask changes =
    { Delta.value = (fun e -> pick mask (eval_vset ctx mask env e)); changes }
  in
  (Delta.derive ~builtins:ctx.builtins ~advice:ctx.advice
     ~other:(bound (flip mask) other) (bound mask changes) e)
    .Delta.plus

let clip window v =
  match window with
  | None -> v
  | Some u -> Value.inter v u

let solve ?(fuel = Limits.default ()) ?window ?(advice = Advice.none) defs db =
  Obs.span "rec_eval" @@ fun () ->
  let inlined = Defs.inline_all defs in
  let builtins = Defs.builtins inlined in
  (* Rewrite each body once, up front: every phase below revisits the
     planned bodies rather than re-planning them. *)
  let bodies =
    List.map (fun (n, b) -> (n, advice.Advice.rewrite b)) (Defs.constant_bodies inlined)
  in
  let all_names = List.map fst bodies in
  (* Per-constant semi-naive eligibility within a component [names]:
     the advice must not force the naive reference, and some member of
     the component must occur in the constant's body [n = b] outside
     every nested [IFP] ({!Delta.eligible}) — constants of lower
     components are fixed inputs, not deltas. Ineligible constants are recomputed in full every phase
     iteration, exactly as the naive engine does. Recomputed whenever
     re-planning swaps a body — a constant whose new body loses
     eligibility falls back to full recomputation, which visits
     identical maps on identical iterations. *)
  let eligible_for names bodies =
    let table =
      List.map
        (fun (n, b) ->
          (n, advice.Advice.seminaive && Delta.eligible names b))
        bodies
    in
    fun n -> List.assoc n table
  in
  (* Round-boundary re-planning: offer the planner each body with the
     observed low-bound cardinalities of every constant solved so far or
     being solved (lazily, so identity advice forces nothing). Adopted
     bodies are result-exact rewrites, so the map sequences — and the
     fuel they meter — are unchanged. Round 1 is skipped: nothing has
     been observed yet. *)
  let refresh_bodies bodies lows rounds =
    if rounds <= 1 || Advice.is_none advice then bodies
    else begin
      let bound =
        List.filter_map
          (fun n ->
            Option.map (fun v -> (n, fun () -> Value.cardinal v)) (lows n))
          all_names
      in
      let changed = ref false in
      let bodies' =
        List.map
          (fun (n, b) ->
            match advice.Advice.refresh ~bound b with
            | Some b' ->
              changed := true;
              (n, b')
            | None -> (n, b))
          bodies
      in
      if !changed then bodies' else bodies
    end
  in
  (* Least fixpoint of one phase over a component's [bodies]: refine
     every member until nothing changes. [ctx.consts] holds the
     solved lower components. [grow] is the bound the phase grows, from
     the empty map, while the other stays at [fixed] ([None]: the grown
     set itself, a two-valued phase); evaluations compute only [grow],
     and the other side only where a difference subtracts it or a nested
     [IFP] reads both. The phase operator is monotone in the growing map
     (a difference's right side flips the bound as it flips polarity),
     so the Kleene iterates grow and a constant's next value is its
     current value united with the delta-derived tuples — semi-naive and
     full recomputation visit identical maps on identical iterations. *)
  let phase_lfp ctx ~bodies ~eligible ~grow ~fixed =
    Obs.span (if grow = Low then "low" else "high") @@ fun () ->
    let accs = List.map (fun (n, _) -> (n, Delta.Acc.create ())) bodies in
    let consts =
      List.fold_left
        (fun m (n, acc) ->
          let grown () = Delta.Acc.value acc in
          let bounds =
            match fixed with
            | None -> fun mask -> read mask grown grown
            | Some fixed ->
              let fixed () = Smap.find n fixed in
              if grow = Low then fun mask -> read mask grown fixed
              else fun mask -> read mask fixed grown
          in
          Smap.add n bounds m)
        ctx.consts accs
    in
    let ctx = { ctx with consts } in
    let rec iterate deltas first =
      Limits.check fuel ~what:"Rec_eval: phase iteration";
      Limits.spend fuel ~what:"Rec_eval: phase iteration";
      Obs.count "rec_eval/phase_iter" 1;
      (* The grown bound's changes; the other bound is fixed, or, in a
         two-valued phase, the same set. *)
      let changes = List.map (fun (n, d) -> (n, Delta.grown d)) deltas in
      let other = if Option.is_none fixed then changes else [] in
      (* Every constant is evaluated against the previous iterate; the
         accumulators take the new tuples only once all are evaluated. *)
      let steps =
        List.map
          (fun (name, b) ->
            if first || not (eligible name) then
              `Full (clip window (pick grow (eval_vset ctx grow [] b)))
            else `Derived (clip window (derive_bound ctx [] grow ~changes ~other b)))
          bodies
      in
      let changed = ref false in
      let next_deltas =
        List.map2
          (fun (name, acc) step ->
            let d =
              match step with
              | `Full v ->
                let d, c = Delta.Acc.replace acc v in
                if c then changed := true;
                d
              | `Derived v ->
                let d = Delta.Acc.extend acc v in
                if not (Delta.is_empty d) then changed := true;
                d
            in
            (name, d))
          accs steps
      in
      Obs.countf "rec_eval/delta" (fun () ->
          List.fold_left (fun acc (_, d) -> acc + Value.cardinal d) 0 next_deltas);
      if !changed then iterate next_deltas false
      else
        List.fold_left
          (fun m (n, acc) -> Smap.add n (Delta.Acc.value acc) m)
          Smap.empty accs
    in
    iterate [] true
  in
  (* Every round of every component probes the governed budget, carries
     the rec_eval/round chaos point and is counted. *)
  let round () =
    Limits.check fuel ~what:"Rec_eval: outer round";
    Faultinj.hit "rec_eval/round";
    Limits.spend fuel ~what:"Rec_eval: outer round";
    Obs.count "rec_eval/round" 1
  in
  let empty_map bodies =
    List.fold_left (fun m (n, _) -> Smap.add n Value.empty_set m) Smap.empty bodies
  in
  (* A component none of whose members occurs negatively in a member
     body, and whose nested [IFP]s are positive, is monotone in its own
     constants: its equations define their least fixpoint (Prop 3.4),
     reached in one round. When every lower constant it reads is
     two-valued, the round is one two-valued phase whose result is both
     bounds. Otherwise it is a high phase and a low phase; as no member
     occurs negatively, neither bound depends on the other's. *)
  let positive ctx bodies =
    round ();
    let eligible = eligible_for (List.map fst bodies) bodies in
    Obs.span "round" @@ fun () ->
    let defined = defined ctx [] in
    if List.for_all (fun (_, b) -> List.for_all defined (Expr.rel_names b)) bodies
    then begin
      let exact = phase_lfp ctx ~bodies ~eligible ~grow:Low ~fixed:None in
      (exact, exact, 1)
    end
    else begin
      let high =
        phase_lfp ctx ~bodies ~eligible ~grow:High ~fixed:(Some (empty_map bodies))
      in
      (phase_lfp ctx ~bodies ~eligible ~grow:Low ~fixed:(Some high), high, 1)
    end
  in
  (* The alternating fixpoint over one component, whose members' lows
     are [lows_prev] between rounds. It is not monotone round-to-round,
     so a truncated run is not a sound under-approximation and this
     engine never degrades: it finishes or raises. *)
  let alternate ctx bodies =
    let names = List.map fst bodies in
    let rec outer bodies eligible lows_prev rounds =
      round ();
      let known n =
        match Smap.find_opt n lows_prev with
        | None -> Option.map (fun bounds -> (bounds Low).low) (Smap.find_opt n ctx.consts)
        | v -> v
      in
      let bodies' = refresh_bodies bodies known rounds in
      let eligible =
        if bodies' == bodies then eligible else eligible_for names bodies'
      in
      let bodies = bodies' in
      let highs, lows =
        Obs.span "round" @@ fun () ->
        (* High phase: lows fixed at the previous round's value, highs
           grow from the empty map to their least fixpoint. *)
        let highs = phase_lfp ctx ~bodies ~eligible ~grow:High ~fixed:(Some lows_prev) in
        (* Low phase: highs fixed, lows grow from the empty map. *)
        let lows = phase_lfp ctx ~bodies ~eligible ~grow:Low ~fixed:(Some highs) in
        (highs, lows)
      in
      if Smap.equal Value.equal lows lows_prev then (lows, highs, rounds)
      else outer bodies eligible lows (rounds + 1)
    in
    outer bodies (eligible_for names bodies) (empty_map bodies) 1
  in
  (* Components in dependency order, each solved with the lower ones'
     bounds fixed in [consts]; unsplit, all constants are one
     alternating component. A constant that does not read itself is no
     fixpoint: it is evaluated once, for both bounds, with no round. *)
  let components =
    if advice.Advice.split then Defs.components inlined else [ all_names ]
  in
  let solved ctx n s = { ctx with consts = Smap.add n (fun _ -> s) ctx.consts } in
  let ctx, rounds =
    List.fold_left
      (fun (ctx, rounds) names ->
        let comp = List.map (fun n -> (n, List.assoc n bodies)) names in
        match comp with
        | [ (n, b) ] when advice.Advice.split && not (List.mem n (Expr.rel_names b)) ->
          let s = map_bounds Both (clip window) (eval_vset ctx Both [] b) in
          (solved ctx n s, rounds)
        | _ ->
          let lows, highs, r =
            if advice.Advice.split
               && List.for_all (fun (_, b) -> Positivity.monotone_in names b) comp
            then positive ctx comp
            else alternate ctx comp
          in
          let solved n low ctx = solved ctx n { low; high = Smap.find n highs } in
          (Smap.fold solved lows ctx, rounds + r))
      ({ builtins; db; consts = Smap.empty; fuel; advice; two_valued = false }, 0)
      components
  in
  { ctx; defs; rounds }

let constant sol name =
  match Smap.find_opt name sol.ctx.consts with
  | Some bounds -> bounds Both
  | None -> raise (Undefined_relation name)

let rounds sol = sol.rounds

let query sol expr =
  eval_vset sol.ctx Both [] (sol.ctx.advice.Advice.rewrite (Defs.inline sol.defs expr))

let well_defined ?fuel ?window ?advice defs db =
  let sol = solve ?fuel ?window ?advice defs db in
  List.for_all
    (fun name -> is_defined (constant sol name))
    (Defs.constant_names sol.defs)

(* Two-valued evaluation ({!Eval.eval}): every set is defined, so every
   operator computes once and every [Ifp] iterates one bound. A constant
   is evaluated once, when first read, at its reader's bound, so its
   [Ifp]s degrade only where the answer grows with them. A value cut
   short that way is not read at the other bound: that read raises. *)
let two_valued ?(fuel = Limits.default ()) ?(advice = Advice.none) defs db expr =
  Obs.span "eval" @@ fun () ->
  let memo = Hashtbl.create 8 in
  let rec ctx =
    lazy
      { builtins = Defs.builtins defs; db; fuel; advice; two_valued = true;
        consts =
          List.fold_left
            (fun m n -> Smap.add n (value n) m)
            Smap.empty (Defs.constant_names defs) }
  and value n mask =
    match Hashtbl.find_opt memo n with
    | Some (Some (m, s, cut)) ->
      if cut && m <> mask then Limits.fail_degraded fuel else s
    | Some None -> raise (Recursive_definition n)
    | None -> (
      Hashtbl.replace memo n None;
      let body = Defs.inline defs (Option.get (Defs.find defs n)).Defs.body in
      let body = advice.Advice.rewrite body in
      match exact (pick mask (eval_vset (Lazy.force ctx) mask [] body)) with
      | exception e ->
        Hashtbl.remove memo n;
        raise e
      | s ->
        Hashtbl.replace memo n (Some (mask, s, Limits.degraded fuel <> None));
        s)
  in
  let expr = advice.Advice.rewrite (Defs.inline defs expr) in
  (eval_vset (Lazy.force ctx) Low [] expr).low
