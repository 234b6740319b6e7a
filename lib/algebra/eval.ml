open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Undefined_relation of string
exception Recursive_definition of string

let eval ?(fuel = Limits.default ()) ?(advice = Advice.none) defs db expr =
  Obs.span "eval" @@ fun () ->
  let builtins = Defs.builtins defs in
  (* The rewrite runs after inlining, so the planner sees every join
     region whole, across definition boundaries. *)
  let advise e = if Advice.is_none advice then e else advice.Advice.rewrite e in
  let memo : (string, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let rec eval_name visiting name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None -> (
      match Defs.find defs name with
      | Some d when d.Defs.params = [] ->
        if List.mem name visiting then raise (Recursive_definition name);
        let v = go (name :: visiting) [] (advise (Defs.inline defs d.Defs.body)) in
        Hashtbl.replace memo name v;
        v
      | Some _ | None -> (
        match Db.find db name with
        | Some v ->
          if Obs.enabled () then
            Obs.gauge ("db/card/" ^ name) (float_of_int (Value.cardinal v));
          v
        | None -> raise (Undefined_relation name)))
  and go visiting env e =
    match e with
    | Expr.Rel name -> (
      match List.assoc_opt name env with
      | Some v -> v ()
      | None -> eval_name visiting name)
    | Expr.Lit v -> v
    | Expr.Param x -> invalid_arg ("Eval.eval: unsubstituted parameter " ^ x)
    | Expr.Union (a, b) -> Value.union (go visiting env a) (go visiting env b)
    | Expr.Diff (a, b) -> Value.diff (go visiting env a) (go visiting env b)
    | Expr.Product (a, b) ->
      let v = Value.product (go visiting env a) (go visiting env b) in
      Obs.countf "eval/product_out" (fun () -> Value.cardinal v);
      v
    | Expr.Select (p, a) -> (
      match Advice.fused_join advice builtins e with
      | Some (ea, eb, join) -> join (go visiting env ea) (go visiting env eb)
      | None ->
        Value.filter (fun v -> Pred.eval builtins p v = Some true) (go visiting env a))
    | Expr.Map (f, a) -> Value.filter_map_set (Efun.apply builtins f) (go visiting env a)
    | Expr.Ifp (x, body) ->
      Obs.span "ifp" @@ fun () ->
      let full body s = go visiting ((x, fun () -> s) :: env) body in
      (* Round-boundary re-planning: offer the planner the observed
         cardinality of the accumulating set (lazily — identity advice
         forces nothing) and adopt a re-planned body when it answers.
         The rewrite is result-exact, so the value sequence — and with
         it the round count and fuel — is unchanged; only enumeration
         cost moves. Round 0 is skipped (nothing observed yet), and the
         semi-naive loop re-checks delta eligibility before adopting. *)
      let refresh_body ~check_eligible round body cardinal =
        if round = 0 || Advice.is_none advice then body
        else
          match advice.Advice.refresh ~bound:[ (x, cardinal) ] body with
          | Some body' when (not check_eligible) || Delta.eligible [ x ] body' ->
            body'
          | Some _ | None -> body
      in
      (* Each round starts with an unamortized budget probe (deadline /
         memory / cancellation notice promptly even when fuel is
         unlimited) and the eval/round chaos point. Under a
         [~degrade:true] budget, exhaustion anywhere in a round is
         caught here: the accumulated set — a sound under-approximation
         of the monotone fixpoint — is returned and the budget latched
         as degraded. Injected faults are never degradable. *)
      let naive () =
        let rec iterate round body s =
          let body =
            refresh_body ~check_eligible:false round body (fun () -> Value.cardinal s)
          in
          match
            Limits.check fuel ~what:"IFP round";
            Faultinj.hit "eval/round";
            Limits.spend fuel ~what:"IFP iteration";
            Obs.count "eval/ifp_iter" 1;
            let s' = Value.union s (full body s) in
            Obs.countf "eval/ifp_delta" (fun () ->
                Value.cardinal s' - Value.cardinal s);
            if Value.equal s s' then None else Some s'
          with
          | exception e when Limits.degradable fuel e ->
            Limits.latch fuel e;
            s
          | None -> s
          | Some s' -> iterate (round + 1) body s'
        in
        iterate 0 body Value.empty_set
      in
      if not (advice.Advice.seminaive && Delta.eligible [ x ] body) then naive ()
      else (
        (* Semi-naive: after the first full pass, each round joins only
           the delta of the previous round against the accumulated set,
           which a {!Delta.Acc} merges only when the body reads it or the
           loop ends. Visits the same states as [naive] on the same
           rounds (and spends the same fuel) — see {!Delta}. *)
        match
          Limits.check fuel ~what:"IFP round";
          Faultinj.hit "eval/round";
          Limits.spend fuel ~what:"IFP iteration";
          Obs.count "eval/ifp_iter" 1;
          let s0 = full body Value.empty_set in
          Obs.countf "eval/ifp_delta" (fun () -> Value.cardinal s0);
          s0
        with
        | exception e when Limits.degradable fuel e ->
          Limits.latch fuel e;
          Value.empty_set
        | s0 ->
          let acc = Delta.Acc.create () in
          let current () = Delta.Acc.value acc in
          let rec loop round body d =
            if Delta.is_empty d then current ()
            else
              let body =
                refresh_body ~check_eligible:true round body (fun () ->
                    Delta.Acc.cardinal acc)
              in
              match
                Limits.check fuel ~what:"IFP round";
                Faultinj.hit "eval/round";
                Limits.spend fuel ~what:"IFP iteration";
                Obs.count "eval/ifp_iter" 1;
                let derived =
                  Delta.derive ~builtins ~advice
                    ~eval:(fun e -> go visiting ((x, current) :: env) e)
                    ~deltas:[ (x, d) ]
                    body
                in
                let d' = Delta.Acc.extend acc derived in
                Obs.countf "eval/ifp_delta" (fun () -> Value.cardinal d');
                d'
              with
              | exception e when Limits.degradable fuel e ->
                Limits.latch fuel e;
                current ()
              | d' -> loop (round + 1) body d'
          in
          loop 1 body (Delta.Acc.extend acc s0))
    | Expr.Call _ -> go visiting env (advise (Defs.inline defs e))
  in
  go [] [] (advise (Defs.inline defs expr))
