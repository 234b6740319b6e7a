open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Undefined_relation of string

type vset = { low : Value.t; high : Value.t }

let is_defined s = Value.equal s.low s.high

(* A defined constant's two bounds are one set: one probe answers. *)
let member s v =
  if Value.mem v s.low then Tvl.True
  else if (not (is_defined s)) && Value.mem v s.high then Tvl.Undef
  else Tvl.False

let exact v = { low = v; high = v }

let undef_elements s = Value.elements (Value.diff s.high s.low)

let pp_vset ppf s =
  if is_defined s then Value.pp ppf s.low
  else Fmt.pf ppf "[certain %a, possible %a]" Value.pp s.low Value.pp s.high

let vset_union a b = { low = Value.union a.low b.low; high = Value.union a.high b.high }
let vset_equal a b = Value.equal a.low b.low && Value.equal a.high b.high

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
   read; the two helpers below leave them empty. *)
let read mask low high =
  { low = (if wants_low mask then low () else Value.empty_set);
    high = (if wants_high mask then high () else Value.empty_set) }

let map_bounds mask f s =
  { low = (if wants_low mask then f s.low else Value.empty_set);
    high = (if wants_high mask then f s.high else Value.empty_set) }

let lift mask f a b =
  { low = (if wants_low mask then f a.low b.low else Value.empty_set);
    high = (if wants_high mask then f a.high b.high else Value.empty_set) }

(* What an evaluation reads besides the expression. [consts] gives the
   current bounds of every defined constant, per mask, so a phase's
   accumulator is merged only when something reads it. *)
type ctx = {
  builtins : Builtins.t;
  db : Db.t;
  consts : (mask -> vset) Smap.t;
  fuel : Limits.fuel;
  advice : Advice.t;
}

type solution = {
  ctx : ctx;  (* [consts]: every constant, solved *)
  defs : Defs.t;  (* as given to [solve] *)
  rounds : int;
}

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
    let sa = recur mask env a and sb = recur (flip mask) env b in
    { low = (if wants_low mask then Value.diff sa.low sb.high else Value.empty_set);
      high = (if wants_high mask then Value.diff sa.high sb.low else Value.empty_set) }
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
  | Expr.Map (f, a) ->
    let sa = recur mask env a in
    map_bounds mask (Value.filter_map_set (Efun.apply builtins f)) sa
  | Expr.Ifp (x, body) ->
    (* Iterates on both bounds whatever the mask: the loop stops only
       when neither bound grows, so its rounds — and the fuel they
       spend — must not depend on which bound the caller reads. *)
    let full s = recur Both ((x, fun _ -> s) :: env) body in
    let naive () =
      let rec iterate s =
        Limits.check fuel ~what:"Rec_eval: IFP iteration";
        Limits.spend fuel ~what:"Rec_eval: IFP iteration";
        Obs.count "rec_eval/ifp_iter" 1;
        let s' = vset_union s (full s) in
        if vset_equal s s' then s else iterate s'
      in
      iterate (exact Value.empty_set)
    in
    if not (advice.Advice.seminaive && Delta.eligible [ x ] body) then naive ()
    else (
      (* Semi-naive on both bounds: the low (resp. high) delta of a
         linear body depends only on the low (resp. high) delta of the
         variable; a difference's right argument is variable-free here,
         so its opposite bound is what gets subtracted — mirroring
         [low = a.low - b.high], [high = a.high - b.low]. *)
      Limits.check fuel ~what:"Rec_eval: IFP iteration";
      Limits.spend fuel ~what:"Rec_eval: IFP iteration";
      Obs.count "rec_eval/ifp_iter" 1;
      let s0 = full (exact Value.empty_set) in
      let low = Delta.Acc.create () and high = Delta.Acc.create () in
      let bounds mask =
        read mask (fun () -> Delta.Acc.value low) (fun () -> Delta.Acc.value high)
      in
      let env = (x, bounds) :: env in
      let rec loop d =
        if Delta.is_empty d.low && Delta.is_empty d.high then bounds Both
        else begin
          Limits.check fuel ~what:"Rec_eval: IFP iteration";
          Limits.spend fuel ~what:"Rec_eval: IFP iteration";
          Obs.count "rec_eval/ifp_iter" 1;
          (* Both derivations read the previous iterate, so neither
             accumulator grows before both are done. *)
          let dlow = derive_bound ctx env Low ~deltas:[ (x, d.low) ] body in
          let dhigh = derive_bound ctx env High ~deltas:[ (x, d.high) ] body in
          loop { low = Delta.Acc.extend low dlow; high = Delta.Acc.extend high dhigh }
        end
      in
      loop { low = Delta.Acc.extend low s0.low; high = Delta.Acc.extend high s0.high })
  | Expr.Call _ -> invalid_arg "Rec_eval: Call survived inlining"

(* The delta of [e]'s [mask] bound ({!Delta.derive}); a difference's
   right side reads the other bound, as in [low = a.low - b.high]. *)
and derive_bound ctx env mask ~deltas e =
  let eval mask e = pick mask (eval_vset ctx mask env e) in
  Delta.derive ~builtins:ctx.builtins ~advice:ctx.advice ~eval:(eval mask)
    ~eval_diff_right:(eval (flip mask)) ~deltas e

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
  let advise e = if Advice.is_none advice then e else advice.Advice.rewrite e in
  let bodies =
    List.map (fun (n, b) -> (n, advise b)) (Defs.constant_bodies inlined)
  in
  let all_names = List.map fst bodies in
  (* Per-constant semi-naive eligibility within a component [names]:
     the advice must not force the naive reference, and some member of
     the component must occur delta-linearly in the constant's body
     [n = b] — constants of lower components are fixed inputs, not
     deltas. Ineligible constants are recomputed in full every phase
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
      (* Every constant is evaluated against the previous iterate; the
         accumulators take the new tuples only once all are evaluated. *)
      let steps =
        List.map
          (fun (name, b) ->
            if first || not (eligible name) then
              `Full (clip window (pick grow (eval_vset ctx grow [] b)))
            else `Derived (clip window (derive_bound ctx [] grow ~deltas b)))
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
    let two_valued m =
      match Smap.find_opt m ctx.consts with
      | Some bounds -> is_defined (bounds Both)
      | None -> true
    in
    Obs.span "round" @@ fun () ->
    if List.for_all (fun (_, b) -> List.for_all two_valued (Expr.rel_names b)) bodies
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
     so — unlike {!Eval}'s IFP — a truncated run is not a sound
     under-approximation and this engine never degrades: it finishes or
     raises. *)
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
     alternating component. *)
  let components =
    if advice.Advice.split then Defs.components inlined else [ all_names ]
  in
  let ctx, rounds =
    List.fold_left
      (fun (ctx, rounds) names ->
        let comp = List.map (fun n -> (n, List.assoc n bodies)) names in
        let lows, highs, r =
          if advice.Advice.split
             && List.for_all (fun (_, b) -> Positivity.monotone_in names b) comp
          then positive ctx comp
          else alternate ctx comp
        in
        (* A solved constant's bounds, whatever the mask asks for. *)
        let consts =
          Smap.fold
            (fun n low consts ->
              let s = { low; high = Smap.find n highs } in
              Smap.add n (fun _ -> s) consts)
            lows ctx.consts
        in
        ({ ctx with consts }, rounds + r))
      ({ builtins; db; consts = Smap.empty; fuel; advice }, 0)
      components
  in
  { ctx; defs; rounds }

let constant sol name =
  match Smap.find_opt name sol.ctx.consts with
  | Some bounds -> bounds Both
  | None -> raise (Undefined_relation name)

let rounds sol = sol.rounds

let query sol expr =
  let advice = sol.ctx.advice in
  let expr = Defs.inline sol.defs expr in
  let expr = if Advice.is_none advice then expr else advice.Advice.rewrite expr in
  eval_vset sol.ctx Both [] expr

let well_defined ?fuel ?window ?advice defs db =
  let sol = solve ?fuel ?window ?advice defs db in
  List.for_all
    (fun name -> is_defined (constant sol name))
    (Defs.constant_names sol.defs)
