open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Undefined_relation of string

type vset = { low : Value.t; high : Value.t }

let member s v =
  if Value.mem v s.low then Tvl.True
  else if Value.mem v s.high then Tvl.Undef
  else Tvl.False

let exact v = { low = v; high = v }
let is_defined s = Value.equal s.low s.high

let undef_elements s = Value.elements (Value.diff s.high s.low)

let pp_vset ppf s =
  if is_defined s then Value.pp ppf s.low
  else Fmt.pf ppf "[certain %a, possible %a]" Value.pp s.low Value.pp s.high

let vset_union a b = { low = Value.union a.low b.low; high = Value.union a.high b.high }
let vset_equal a b = Value.equal a.low b.low && Value.equal a.high b.high

module Smap = Map.Make (String)

type solution = {
  lows : Value.t Smap.t;
  highs : Value.t Smap.t;
  defs : Defs.t;  (* inlined *)
  db : Db.t;
  fuel : Limits.fuel;
  window : Value.t option;
  strategy : Delta.strategy;
  join : Join.mode;
  advice : Advice.t;
  rounds : int;
}

(* Three-valued evaluation of an inlined expression given current bounds
   for the defined constants. The difference operator realises the valid
   reading of subtraction: an element is certainly in [a - b] when it is
   certainly in [a] and not possibly in [b]; possibly in [a - b] when
   possibly in [a] and not certainly in [b]. *)
let rec eval_vset builtins db lows highs fuel strategy join advice env e =
  let recur = eval_vset builtins db lows highs fuel strategy join advice in
  match e with
  | Expr.Rel name -> (
    match List.assoc_opt name env with
    | Some s -> s
    | None -> (
      match Smap.find_opt name lows with
      | Some low -> { low; high = Smap.find name highs }
      | None -> (
        match Db.find db name with
        | Some v ->
          if Obs.enabled () then
            Obs.gauge ("db/card/" ^ name) (float_of_int (Value.cardinal v));
          exact v
        | None -> raise (Undefined_relation name))))
  | Expr.Lit v -> exact v
  | Expr.Param x -> invalid_arg ("Rec_eval: unsubstituted parameter " ^ x)
  | Expr.Union (a, b) -> vset_union (recur env a) (recur env b)
  | Expr.Diff (a, b) ->
    let sa = recur env a and sb = recur env b in
    { low = Value.diff sa.low sb.high; high = Value.diff sa.high sb.low }
  | Expr.Product (a, b) ->
    let sa = recur env a and sb = recur env b in
    let s =
      { low = Value.product sa.low sb.low; high = Value.product sa.high sb.high }
    in
    Obs.countf "eval/product_out" (fun () -> Value.cardinal s.high);
    s
  | Expr.Select (p, a) -> (
    let node_join = Option.value (advice.Advice.join_mode e) ~default:join in
    let par = advice.Advice.join_par e in
    let fused =
      match node_join, a with
      | Join.Fused, Expr.Product (ea, eb) -> (
        match Join.plan p with
        | Some jp ->
          Obs.count "plan/fused" 1;
          let sa = recur env ea and sb = recur env eb in
          Some
            { low = Join.exec ?par builtins jp sa.low sb.low;
              high = Join.exec ?par builtins jp sa.high sb.high }
        | None -> None)
      | (Join.Fused | Join.Unfused), _ -> None
    in
    match fused with
    | Some s -> s
    | None ->
      (match a with
      | Expr.Product _ -> Obs.count "plan/unfused" 1
      | _ -> ());
      let sa = recur env a in
      let keep v = Pred.eval builtins p v = Some true in
      { low = Value.filter keep sa.low; high = Value.filter keep sa.high })
  | Expr.Map (f, a) ->
    let sa = recur env a in
    let apply = Efun.apply builtins f in
    { low = Value.filter_map_set apply sa.low;
      high = Value.filter_map_set apply sa.high }
  | Expr.Ifp (x, body) ->
    let strategy =
      Option.value (advice.Advice.ifp_strategy x body) ~default:strategy
    in
    let full s = recur ((x, s) :: env) body in
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
    (match strategy with
    | Delta.Naive -> naive ()
    | Delta.Seminaive when not (Delta.eligible [ x ] body) -> naive ()
    | Delta.Seminaive ->
      (* Semi-naive on both bounds: the low (resp. high) delta of a
         linear body depends only on the low (resp. high) delta of the
         variable; a difference's right argument is variable-free here,
         so its opposite bound is what gets subtracted — mirroring
         [low = a.low - b.high], [high = a.high - b.low]. *)
      Limits.check fuel ~what:"Rec_eval: IFP iteration";
      Limits.spend fuel ~what:"Rec_eval: IFP iteration";
      Obs.count "rec_eval/ifp_iter" 1;
      let s0 = full (exact Value.empty_set) in
      let rec loop s d =
        if Delta.is_empty d.low && Delta.is_empty d.high then s
        else begin
          Limits.check fuel ~what:"Rec_eval: IFP iteration";
          Limits.spend fuel ~what:"Rec_eval: IFP iteration";
          Obs.count "rec_eval/ifp_iter" 1;
          let derive proj opp dval =
            Delta.derive ~builtins ~join ~join_mode:advice.Advice.join_mode
              ~join_par:advice.Advice.join_par
              ~eval:(fun e -> proj (recur ((x, s) :: env) e))
              ~eval_diff_right:(fun e -> opp (recur ((x, s) :: env) e))
              ~deltas:[ (x, dval) ]
              body
          in
          let dlow = derive (fun v -> v.low) (fun v -> v.high) d.low in
          let dhigh = derive (fun v -> v.high) (fun v -> v.low) d.high in
          let d' = { low = Value.diff dlow s.low; high = Value.diff dhigh s.high } in
          loop (vset_union s d') d'
        end
      in
      loop s0 s0)
  | Expr.Call _ -> invalid_arg "Rec_eval: Call survived inlining"

let clip window v =
  match window with
  | None -> v
  | Some u -> Value.inter v u

let solve ?(fuel = Limits.default ()) ?window ?(strategy = Delta.Seminaive)
    ?(join = Join.Fused) ?(advice = Advice.none) defs db =
  Obs.span "rec_eval" @@ fun () ->
  let inlined = Defs.inline_all defs in
  let builtins = Defs.builtins inlined in
  (* Rewrite each body once, up front — the per-node advice tables then
     key on exactly the node values every phase below revisits. *)
  let advise e = if Advice.is_none advice then e else advice.Advice.rewrite e in
  let bodies =
    List.map (fun (n, b) -> (n, advise b)) (Defs.constant_bodies inlined)
  in
  let names = List.map fst bodies in
  (* Per-constant semi-naive eligibility: some defined constant occurs
     delta-linearly in the body. Ineligible constants are recomputed in
     full every phase iteration, exactly as the naive engine does.
     Recomputed whenever re-planning swaps a body — a constant whose new
     body loses eligibility falls back to full recomputation, which
     visits identical maps on identical iterations. *)
  let eligible_for bodies =
    match strategy with
    | Delta.Naive -> fun _ -> false
    | Delta.Seminaive ->
      let table = List.map (fun (n, b) -> (n, Delta.eligible names b)) bodies in
      fun n -> List.assoc n table
  in
  (* Round-boundary re-planning: offer the planner each body with the
     observed low-bound cardinalities of every defined constant (lazily,
     so identity advice forces nothing). Adopted bodies are result-exact
     rewrites, so the map sequences — and the fuel they meter — are
     unchanged. Round 1 is skipped: nothing has been observed yet. *)
  let refresh_bodies bodies lows rounds =
    if rounds <= 1 || Advice.is_none advice then bodies
    else begin
      let bound =
        List.map
          (fun n -> (n, fun () -> Value.cardinal (Smap.find n lows)))
          names
      in
      let changed = ref false in
      let bodies' =
        List.map
          (fun (n, b) ->
            match advice.Advice.refresh ~round:rounds ~bound b with
            | Some b' ->
              changed := true;
              (n, b')
            | None -> (n, b))
          bodies
      in
      if !changed then bodies' else bodies
    end
  in
  let empty_map = List.fold_left (fun m n -> Smap.add n Value.empty_set m) Smap.empty names in
  (* Least fixpoint of one phase: refine every constant from the given
     evaluation until nothing changes. [project] picks which bound the
     phase grows; [opposite] is the other bound, subtracted under Diff.
     The phase operator is monotone in the growing map (a difference's
     right side flips the bound as it flips polarity), so the Kleene
     iterates from the empty map grow and a constant's next value is its
     current value united with the delta-derived tuples — semi-naive and
     full recomputation visit identical maps on identical iterations. *)
  let phase_lfp ~bodies ~eligible ~label ~eval_bounds ~project ~opposite =
    let body name = List.assoc name bodies in
    Obs.span label @@ fun () ->
    let rec iterate current deltas first =
      Limits.check fuel ~what:"Rec_eval: phase iteration";
      Limits.spend fuel ~what:"Rec_eval: phase iteration";
      Obs.count "rec_eval/phase_iter" 1;
      let changed = ref false in
      let next, next_deltas =
        List.fold_left
          (fun (acc, ds) name ->
            let b = body name in
            let cur = Smap.find name current in
            let value =
              if first || not (eligible name) then
                clip window (project (eval_bounds current b))
              else
                let derived =
                  Delta.derive ~builtins ~join ~join_mode:advice.Advice.join_mode
                    ~join_par:advice.Advice.join_par
                    ~eval:(fun e -> project (eval_bounds current e))
                    ~eval_diff_right:(fun e -> opposite (eval_bounds current e))
                    ~deltas b
                in
                Value.union cur (clip window derived)
            in
            if not (Value.equal value cur) then changed := true;
            (Smap.add name value acc, (name, Value.diff value cur) :: ds))
          (current, []) names
      in
      Obs.countf "rec_eval/delta" (fun () ->
          List.fold_left (fun acc (_, d) -> acc + Value.cardinal d) 0 next_deltas);
      if !changed then iterate next next_deltas false else next
    in
    iterate empty_map [] true
  in
  (* The alternating fixpoint is not monotone round-to-round, so —
     unlike {!Eval}'s IFP — a truncated run is not a sound
     under-approximation and this engine never degrades: it finishes or
     raises. Round boundaries still probe the governed budget and carry
     the rec_eval/round chaos point. *)
  let rec outer bodies eligible lows_prev rounds =
    Limits.check fuel ~what:"Rec_eval: outer round";
    Faultinj.hit "rec_eval/round";
    Limits.spend fuel ~what:"Rec_eval: outer round";
    Obs.count "rec_eval/round" 1;
    let bodies' = refresh_bodies bodies lows_prev rounds in
    let eligible =
      if bodies' == bodies then eligible else eligible_for bodies'
    in
    let bodies = bodies' in
    let highs, lows =
      Obs.spanf (fun () -> "round " ^ string_of_int rounds) @@ fun () ->
      (* High phase: lows fixed at the previous round's value, highs grow
         from the empty map to their least fixpoint. *)
      let highs =
        phase_lfp ~bodies ~eligible ~label:"high"
          ~eval_bounds:(fun highs_cur e ->
            eval_vset builtins db lows_prev highs_cur fuel strategy join advice [] e)
          ~project:(fun s -> s.high)
          ~opposite:(fun s -> s.low)
      in
      (* Low phase: highs fixed, lows grow from the empty map. *)
      let lows =
        phase_lfp ~bodies ~eligible ~label:"low"
          ~eval_bounds:(fun lows_cur e ->
            eval_vset builtins db lows_cur highs fuel strategy join advice [] e)
          ~project:(fun s -> s.low)
          ~opposite:(fun s -> s.high)
      in
      (highs, lows)
    in
    if Smap.equal Value.equal lows lows_prev then
      { lows; highs; defs = inlined; db; fuel; window; strategy; join; advice; rounds }
    else outer bodies eligible lows (rounds + 1)
  in
  outer bodies (eligible_for bodies) empty_map 1

let constant sol name =
  match Smap.find_opt name sol.lows with
  | Some low -> { low; high = Smap.find name sol.highs }
  | None -> raise (Undefined_relation name)

let rounds sol = sol.rounds

let eval ?fuel ?window ?strategy ?join ?advice defs db expr =
  let sol = solve ?fuel ?window ?strategy ?join ?advice defs db in
  let inlined_expr = Defs.inline sol.defs (Defs.inline defs expr) in
  let inlined_expr =
    if Advice.is_none sol.advice then inlined_expr
    else sol.advice.Advice.rewrite inlined_expr
  in
  eval_vset (Defs.builtins sol.defs) sol.db sol.lows sol.highs sol.fuel sol.strategy
    sol.join sol.advice [] inlined_expr

let well_defined ?fuel ?window ?strategy ?join ?advice defs db =
  let sol = solve ?fuel ?window ?strategy ?join ?advice defs db in
  List.for_all
    (fun name -> is_defined (constant sol name))
    (Defs.constant_names sol.defs)
