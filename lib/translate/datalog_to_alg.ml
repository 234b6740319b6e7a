open Recalg_kernel
open Recalg_datalog
open Recalg_algebra

exception Untranslatable of string

type t = {
  defs : Defs.t;
  db : Db.t;
  pred_constants : (string * string) list;
}

let tuple_of_args args = Value.tuple args

let edb_to_db edb =
  List.fold_left
    (fun db pred ->
      Db.add_elems pred (List.map tuple_of_args (Edb.tuples edb pred)) db)
    Db.empty (Edb.preds edb)

(* Compilation environment for one rule body: the set expression computes
   environment tuples; [vars] lists the bound variables in tuple order. *)
type env = { vars : string list; expr : Expr.t }

let path_in env x =
  let rec index i vars =
    match vars with
    | [] -> None
    | v :: rest -> if String.equal v x then Some i else index (i + 1) rest
  in
  Option.map (fun i -> Efun.Proj (i + 1)) (index 0 env.vars)

(* Element function computing a fully bound term over an environment
   tuple, with [lookup] resolving variables to element functions. *)
let rec efun_of_term builtins lookup term =
  match term with
  | Dterm.Var x -> (
    match lookup x with
    | Some f -> f
    | None -> raise (Untranslatable ("unbound variable " ^ x ^ " in computed term")))
  | Dterm.Cst v -> Efun.Const v
  | Dterm.App (f, args) -> Efun.App (f, List.map (efun_of_term builtins lookup) args)

(* Match [term] against the value produced by [src]; returns selection
   conditions and fresh variable bindings (variable, element function),
   both relative to the same input element as [src]. [lookup] resolves
   already-bound variables. *)
let rec bind_term builtins lookup term ~src =
  match term with
  | Dterm.Var x -> (
    match lookup x with
    | Some f -> ([ Pred.Eq (f, src) ], [])
    | None -> ([], [ (x, src) ]))
  | Dterm.Cst v -> ([ Pred.Eq (src, Efun.Const v) ], [])
  | Dterm.App (f, args) ->
    if Builtins.is_interpreted builtins f then
      ([ Pred.Eq (efun_of_term builtins lookup term, src) ], [])
    else begin
      (* Free constructor: test the shape, then destructure. *)
      let arity = List.length args in
      let init = ([ Pred.Is_cstr (f, arity, src) ], []) in
      let _, conds, binds =
        List.fold_left
          (fun (i, conds, binds) arg ->
            let sub_src = Efun.Compose (Efun.Arg (f, i), src) in
            let lookup' x =
              match List.assoc_opt x binds with
              | Some f -> Some f
              | None -> lookup x
            in
            let c, b = bind_term builtins lookup' arg ~src:sub_src in
            (i + 1, conds @ c, binds @ b))
          (1, fst init, snd init)
          args
      in
      (conds, binds)
    end

let conj conds =
  match conds with
  | [] -> Pred.True
  | c :: rest -> List.fold_left (fun acc c' -> Pred.And (acc, c')) c rest

(* Join the environment with a relation through a positive atom. In the
   joined space (pairs [ [env_tuple; rel_elem] ]), environment variables
   live under Proj 1 and the relation element's components under Proj 2. *)
let join_pos builtins env rel_expr (a : Literal.atom) =
  let joined = Expr.product env.expr rel_expr in
  let env_path x = Option.map (fun f -> Efun.Compose (f, Efun.Proj 1)) (path_in env x) in
  let _, conds, binds =
    List.fold_left
      (fun (i, conds, binds) arg ->
        let src = Efun.Compose (Efun.Proj i, Efun.Proj 2) in
        let lookup x =
          match List.assoc_opt x binds with
          | Some f -> Some f
          | None -> env_path x
        in
        let c, b = bind_term builtins lookup arg ~src in
        (i + 1, conds @ c, binds @ b))
      (1, [], []) a.Literal.args
  in
  let kept_env_paths =
    List.map (fun x -> Efun.Compose (Option.get (path_in env x), Efun.Proj 1)) env.vars
  in
  let new_paths = List.map snd binds in
  let restructure = Efun.Tuple_of (kept_env_paths @ new_paths) in
  {
    vars = env.vars @ List.map fst binds;
    expr = Expr.map restructure (Expr.select (conj conds) joined);
  }

(* Environments that have at least one match in the relation — the sets
   subtracted for a negative atom. *)
let matching_envs builtins env rel_expr (a : Literal.atom) =
  let joined = Expr.product env.expr rel_expr in
  let env_path x = Option.map (fun f -> Efun.Compose (f, Efun.Proj 1)) (path_in env x) in
  let _, conds, binds =
    List.fold_left
      (fun (i, conds, binds) arg ->
        let src = Efun.Compose (Efun.Proj i, Efun.Proj 2) in
        let lookup x =
          match List.assoc_opt x binds with
          | Some f -> Some f
          | None -> env_path x
        in
        let c, b = bind_term builtins lookup arg ~src in
        (i + 1, conds @ c, binds @ b))
      (1, [], []) a.Literal.args
  in
  (* A safe negative atom may still destructure fresh variables inside
     constructor terms (they are implicitly existential); only the
     environment part is projected back out. *)
  ignore binds;
  let env_projection =
    Efun.Tuple_of
      (List.map
         (fun x -> Efun.Compose (Option.get (path_in env x), Efun.Proj 1))
         env.vars)
  in
  Expr.map env_projection (Expr.select (conj conds) joined)

let compile_literal builtins resolve env lit =
  match lit with
  | Literal.Pos a -> join_pos builtins env (resolve a.Literal.pred) a
  | Literal.Neg a ->
    let matches = matching_envs builtins env (resolve a.Literal.pred) a in
    { env with expr = Expr.diff env.expr matches }
  | Literal.Eq (t1, t2) -> (
    let lookup x = path_in env x in
    let bound t = List.for_all (fun x -> path_in env x <> None) (Dterm.vars t) in
    match bound t1, bound t2 with
    | true, true ->
      let f1 = efun_of_term builtins lookup t1
      and f2 = efun_of_term builtins lookup t2 in
      { env with expr = Expr.select (Pred.Eq (f1, f2)) env.expr }
    | false, true ->
      let src = efun_of_term builtins lookup t2 in
      let conds, binds = bind_term builtins lookup t1 ~src in
      let kept = List.map (fun x -> Option.get (path_in env x)) env.vars in
      let restructure = Efun.Tuple_of (kept @ List.map snd binds) in
      {
        vars = env.vars @ List.map fst binds;
        expr = Expr.map restructure (Expr.select (conj conds) env.expr);
      }
    | true, false ->
      let src = efun_of_term builtins lookup t1 in
      let conds, binds = bind_term builtins lookup t2 ~src in
      let kept = List.map (fun x -> Option.get (path_in env x)) env.vars in
      let restructure = Efun.Tuple_of (kept @ List.map snd binds) in
      {
        vars = env.vars @ List.map fst binds;
        expr = Expr.map restructure (Expr.select (conj conds) env.expr);
      }
    | false, false ->
      raise (Untranslatable "equality with both sides unbound"))
  | Literal.Neq (t1, t2) ->
    let lookup x = path_in env x in
    let f1 = efun_of_term builtins lookup t1
    and f2 = efun_of_term builtins lookup t2 in
    { env with expr = Expr.select (Pred.Neq (f1, f2)) env.expr }

(* Literal ordering matters for the precision of the three-valued
   evaluator: an environment built only from exact sources (database
   relations, equalities, disequalities) supports exact subtraction, so
   among the evaluable literals we take exact positives and equalities
   first, then negative literals, and join uncertain (derived) positives
   last. On rules whose variables are bound by extensional atoms this
   makes the compositional evaluation coincide with the fact-level valid
   semantics; in the remaining cases it is still a sound (knowledge-
   order lower) approximation. *)
let literal_preference uncertain l =
  match l with
  | Literal.Eq _ | Literal.Neq _ -> 0
  | Literal.Pos a -> if uncertain a.Literal.pred then 3 else 1
  | Literal.Neg _ -> 2

let compile_rule builtins ~uncertain resolve (r : Rule.t) =
  match
    Safety.evaluation_order_with builtins
      ~prefer:(literal_preference uncertain)
      r.Rule.body
  with
  | Error msg -> raise (Untranslatable msg)
  | Ok ordered ->
    let unit_env = { vars = []; expr = Expr.lit [ Value.tuple [] ] } in
    (* A run of consecutive negative literals subtracts match sets all
       computed against the environment at the start of the run, not the
       progressively diffed one. The match operator is pointwise in the
       environment tuple, so under two-valued semantics the nested form
       [(env - m1) - m2(env - m1)] and the flat form [(env - m1(env)) -
       m2(env)] coincide — but under the three-valued bounds the nested
       form evaluates [m2]'s certain side against [low (env - m1)],
       which an *unknown* first literal empties, hiding certain matches
       of the second. The flat form keeps each literal's certain matches
       visible, matching the fact-level valid semantics that judges body
       literals independently. *)
    let rec compile env lits =
      match lits with
      | [] -> env
      | Literal.Neg _ :: _ ->
        let rec split acc = function
          | Literal.Neg a :: rest -> split (a :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let negs, rest = split [] lits in
        let expr =
          List.fold_left
            (fun acc a ->
              Expr.diff acc (matching_envs builtins env (resolve a.Literal.pred) a))
            env.expr negs
        in
        compile { env with expr } rest
      | l :: rest -> compile (compile_literal builtins resolve env l) rest
    in
    let env = compile unit_env ordered in
    let lookup x = path_in env x in
    let head_fun =
      Efun.Tuple_of (List.map (efun_of_term builtins lookup) r.Rule.head.Literal.args)
    in
    Expr.map head_fun env.expr

let edb_alias p = p ^ "__edb"

let translate program edb =
  let builtins = program.Program.builtins in
  let idb = Program.idb_preds program in
  let idb_tbl = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace idb_tbl p ()) idb;
  let is_idb = Hashtbl.mem idb_tbl in
  let defs =
    List.map2
      (fun pred rules ->
        let rule_exprs =
          List.map (compile_rule builtins ~uncertain:is_idb Expr.rel) rules
        in
        let with_edb =
          if Edb.tuples edb pred <> [] then Expr.rel (edb_alias pred) :: rule_exprs
          else rule_exprs
        in
        let body =
          match with_edb with
          | [] -> Expr.empty
          | e :: rest -> List.fold_left Expr.union e rest
        in
        Defs.constant pred body)
      idb
      (Program.bucket_rules (List.map (fun p -> [ p ]) idb) program.Program.rules)
  in
  let db =
    (* EDB relations under their own name; relations sharing a name with a
       derived predicate additionally under an alias referenced by the
       definition. *)
    List.fold_left
      (fun db pred ->
        let tuples = List.map tuple_of_args (Edb.tuples edb pred) in
        if is_idb pred then Db.add_elems (edb_alias pred) tuples db
        else Db.add_elems pred tuples db)
      Db.empty (Edb.preds edb)
  in
  (* Body predicates with neither rules nor database tuples denote empty
     relations; materialise them so the equations always evaluate. *)
  let db =
    List.fold_left
      (fun db pred -> if Db.find db pred = None then Db.add_elems pred [] db else db)
      db
      (Program.edb_preds program)
  in
  {
    defs = Defs.make ~builtins defs;
    db;
    pred_constants = List.map (fun p -> (p, p)) idb;
  }

let pred_tuples solution t pred =
  match List.assoc_opt pred t.pred_constants with
  | None -> raise (Untranslatable ("unknown predicate " ^ pred))
  | Some const ->
    let vset = Rec_eval.constant solution const in
    let unwrap v =
      match Value.node v with
      | Value.Tuple args -> Some args
      | _ -> None
    in
    let certain = List.filter_map unwrap (Value.elements vset.Rec_eval.low) in
    let possible = List.filter_map unwrap (Value.elements vset.Rec_eval.high) in
    (certain, possible)
