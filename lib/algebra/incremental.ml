open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Undefined_relation = Rec_eval.Undefined_relation
exception Recursive_definition = Rec_eval.Recursive_definition

module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Update batches over algebra databases.                              *)

module Update = struct
  type t = Zset.t Smap.t

  let empty = Smap.empty
  let is_empty u = Smap.for_all (fun _ z -> Zset.is_empty z) u

  let shift name z u =
    let cur = Option.value ~default:Zset.empty (Smap.find_opt name u) in
    let z' = Zset.add cur z in
    if Zset.is_empty z' then Smap.remove name u else Smap.add name z' u

  let insert name v u = shift name (Zset.singleton v) u
  let delete name v u = shift name (Zset.singleton ~weight:(-1) v) u

  (* The post-batch database and the exact change of each relation. A
     tuple is in the new relation iff its old membership plus its summed
     weight is positive, so inserting a present tuple or deleting an
     absent one changes nothing. *)
  let advance db u =
    Smap.fold
      (fun name z (db, changes) ->
        let old = Option.value ~default:Value.empty_set (Db.find db name) in
        let plus, minus =
          Zset.fold
            (fun v w (plus, minus) ->
              let was = Value.mem v old in
              if w > 0 && not was then (v :: plus, minus)
              else if w < 0 && was then (plus, v :: minus)
              else (plus, minus))
            z ([], [])
        in
        let c = { Delta.plus = Value.set plus; minus = Value.set minus } in
        let changes = if Delta.is_none c then changes else (name, c) :: changes in
        (Db.add name (Delta.apply old c) db, changes))
      u (db, [])

  let apply u db = fst (advance db u)
  let effective db u = snd (advance db u)

  let pp ppf u =
    Smap.iter (fun name z -> Fmt.pf ppf "%s %a@ " name Zset.pp z) u
end

(* ------------------------------------------------------------------ *)
(* The materialized operator tree.                                     *)

type ifp_state = {
  var : string;
  body : Expr.t;
  inputs : string list;  (* free relation names of the body, minus var *)
  positive : bool;
      (* the fixpoint variable and every nested IFP are positive, so the
         body is monotone in every input that also occurs only positively
         — the precondition for extension / delete-rederive maintenance *)
}

type node = {
  expr : Expr.t;
  frees : string list;
  mutable value : Value.t;
  shape : shape;
}

and shape =
  | Leaf_rel of string
  | Leaf_lit of Value.t
  | Union_n of node * node
  | Diff_n of node * node
  | Pair_n of (Value.t -> Value.t -> Value.t) * node * node
      (* a product, or a selection on one run as a hash join *)
  | Select_n of Pred.t * node
  | Map_n of Efun.t * node * Zset.t ref
      (* each image with its number of preimages *)
  | Ifp_n of ifp_state

type t = {
  builtins : Builtins.t;
  fuel : Limits.fuel;
  mutable db : Db.t;
  root : node;
}

(* Fully resolve defined names: [Defs.inline] expands parameterised
   calls; nullary constants are substituted bodily, mirroring [Eval]'s
   name resolution (including its cycle detection). *)
let expand defs expr =
  let rec go visiting e =
    Expr.map_rels
      (fun n ->
        match Defs.find defs n with
        | Some d when d.Defs.params = [] ->
          if List.mem n visiting then raise (Recursive_definition n);
          go (n :: visiting) (Defs.inline defs d.Defs.body)
        | Some _ | None -> Expr.Rel n)
      (Defs.inline defs e)
  in
  go [] expr

(* Plain evaluation of an expression under an environment of set values
   for fixpoint variables, against [db]. Environment bindings become
   ground literals, then [Eval] does the work (semi-naive IFPs, fused
   joins) — byte-identical to the from-scratch evaluator by
   construction. *)
let beval eng db env e =
  let e' =
    match env with
    | [] -> e
    | env ->
      Expr.map_rels
        (fun n ->
          match List.assoc_opt n env with
          | Some v -> Expr.Lit v
          | None -> Expr.Rel n)
        e
  in
  Eval.eval ~fuel:eng.fuel (Defs.make ~builtins:eng.builtins []) db e'

(* The tuples the body gains at [x = s] against [db] when the names in
   [changes] grow: the plus side of its change ({!Delta.derive}). *)
let derive_body eng st db s changes =
  (Delta.derive ~builtins:eng.builtins
     { Delta.value = beval eng db [ (st.var, s) ]; changes }
     st.body)
    .Delta.plus

(* Close an inflationary iteration by semi-naive delta rounds: [s0] is a
   pre-fixpoint below the target, [d0] its current frontier, disjoint
   from it. For a monotone body this converges exactly to the least
   fixpoint above [s0] — which equals the from-scratch IFP whenever [s0]
   is below it. Returns the fixpoint and the tuples it added to [s0]. *)
let ifp_close eng st s0 d0 =
  let rec loop s d added =
    if Delta.is_empty d then (s, Value.union_all added)
    else begin
      Limits.spend eng.fuel ~what:"incremental: IFP round";
      Obs.count "incr/ifp_round" 1;
      let derived = derive_body eng st eng.db s [ (st.var, Delta.grown d) ] in
      let d' = Value.diff derived s in
      loop (Value.union s d') d' (d' :: added)
    end
  in
  if Delta.is_empty d0 then (s0, Value.empty_set) else loop (Value.union s0 d0) d0 [ d0 ]

(* Insert-only extension: seed with the tuples the input insertions
   contribute at [x = s_old], then close. Correct because the old
   fixpoint is a pre-fixpoint of the new (larger) round map. The change
   is the tuples added. *)
let ifp_extend eng st s_old ~input_adds =
  let seed = derive_body eng st eng.db s_old input_adds in
  let s_new, added = ifp_close eng st s_old (Value.diff seed s_old) in
  (s_new, Delta.grown added)

(* Delete & rederive (DRed): overapproximate the tuples whose
   derivations touch a deleted input fact by propagating a deletion
   delta through the body against the *pre-update* state, remove them,
   then one full body round against the new database rederives every
   still-derivable tuple (and picks up any insertions); closing finishes
   the job. Sound for monotone bodies: the remainder is below both the
   old and the new fixpoint. The change removes the overdeleted tuples
   that were not rederived and adds the rest of what closing added. *)
let ifp_dred eng st s_old ~old_db ~input_dels =
  let derive_old changes = derive_body eng st old_db s_old changes in
  let rec overdelete deleted frontier =
    if Delta.is_empty frontier then deleted
    else begin
      Limits.spend eng.fuel ~what:"incremental: DRed round";
      Obs.count "incr/dred_round" 1;
      let hit =
        Value.inter (derive_old [ (st.var, Delta.grown frontier) ]) s_old
      in
      let fresh = Value.diff hit deleted in
      overdelete (Value.union deleted fresh) fresh
    end
  in
  let d0 = Value.inter (derive_old input_dels) s_old in
  let deleted = overdelete d0 d0 in
  Obs.countf "incr/dred_deleted" (fun () -> Value.cardinal deleted);
  let s_minus = Value.diff s_old deleted in
  let rederived =
    Value.diff (beval eng eng.db [ (st.var, s_minus) ] st.body) s_minus
  in
  let s_new, added = ifp_close eng st s_minus rederived in
  (* [s_old] is [s_minus ∪ deleted] and [s_new] is [s_minus ∪ added],
     both unions disjoint. *)
  (s_new, { Delta.plus = Value.diff added deleted; minus = Value.diff deleted added })

(* The [IFP] node's change under the batch, by the first regime that
   applies; filling the tree ([fresh]), it is evaluated in full. Sets
   the node's value. *)
let ifp_repair eng node st ~fresh ~old_db changes =
  let s_old = node.value in
  let relevant = List.filter (fun (n, _) -> List.mem n st.inputs) changes in
  let side f =
    List.filter_map
      (fun (n, c) ->
        let v = f c in
        if Delta.is_empty v then None else Some (n, Delta.grown v))
      relevant
  in
  let s_new, c =
    if fresh then
      let v = beval eng eng.db [] node.expr in
      (v, Delta.grown v)
    else if relevant = [] then (s_old, Delta.none)
    else begin
      let input_adds = side (fun c -> c.Delta.plus) in
      let input_dels = side (fun c -> c.Delta.minus) in
      let negative_input =
        List.exists
          (fun (n, _) -> Positivity.occurs_negatively st.body n)
          relevant
      in
      if st.positive && not negative_input then
        if input_dels = [] then begin
          Obs.count "incr/ifp_extend" 1;
          ifp_extend eng st s_old ~input_adds
        end
        else begin
          Obs.count "incr/ifp_dred" 1;
          ifp_dred eng st s_old ~old_db ~input_dels
        end
      else begin
        (* Conservative fallback: a non-monotone fixpoint is recomputed
           from scratch. *)
        Obs.count "incr/recompute" 1;
        let s_new = beval eng eng.db [] node.expr in
        (s_new, { Delta.plus = Value.diff s_new s_old; minus = Value.diff s_old s_new })
      end
    end
  in
  node.value <- s_new;
  c

(* ------------------------------------------------------------------ *)
(* Tree construction.                                                  *)

let rec build builtins e =
  let build = build builtins in
  let mk shape =
    { expr = e; frees = Expr.rel_names e; value = Value.empty_set; shape }
  in
  match e with
  | Expr.Rel n -> mk (Leaf_rel n)
  | Expr.Lit v -> mk (Leaf_lit v)
  | Expr.Param x ->
    invalid_arg ("Incremental.init: unsubstituted parameter " ^ x)
  | Expr.Call _ -> invalid_arg "Incremental.init: Call survived inlining"
  | Expr.Union (a, b) -> mk (Union_n (build a, build b))
  | Expr.Diff (a, b) -> mk (Diff_n (build a, build b))
  | Expr.Product (a, b) -> mk (Pair_n (Value.product, build a, build b))
  | Expr.Select (p, a) -> (
    match Advice.fused_join Advice.none builtins e with
    | Some (ea, eb, join) -> mk (Pair_n (join, build ea, build eb))
    | None -> mk (Select_n (p, build a)))
  | Expr.Map (f, a) -> mk (Map_n (f, build a, ref Zset.empty))
  | Expr.Ifp (x, body) ->
    let inputs = List.filter (fun n -> n <> x) (Expr.rel_names body) in
    mk (Ifp_n { var = x; body; inputs; positive = Positivity.monotone_in [ x ] body })

(* ------------------------------------------------------------------ *)
(* Repair: push each node's change bottom-up through {!Delta}'s rules.  *)

(* The node's change under the batch's [changes], by the rule of its
   operator over its children's changes and resident values — current
   once the children are repaired — then its value brought up to date.
   [fresh]: the tree is being filled, every value going from the empty
   set, as from the empty database. *)
let rec repair eng ~fresh ~old_db changes node =
  if not (fresh || List.exists (fun (n, _) -> List.mem n node.frees) changes) then
    Delta.none
  else begin
    let sub = repair eng ~fresh ~old_db changes in
    let operand n =
      let c = sub n in
      (lazy n.value, c)
    in
    let c =
      match node.shape with
      | Leaf_rel n when fresh -> (
        match Db.find eng.db n with
        | Some v -> Delta.grown v
        | None -> raise (Undefined_relation n))
      | Leaf_rel n -> Option.value ~default:Delta.none (List.assoc_opt n changes)
      | Leaf_lit v -> if fresh then Delta.grown v else Delta.none
      | Union_n (a, b) -> Delta.union Both (operand a) (operand b)
      | Diff_n (a, b) -> Delta.diff Both (operand a) (operand b)
      | Pair_n (join, a, b) -> Delta.bilinear join Both (operand a) (operand b)
      | Select_n (p, a) -> Delta.select eng.builtins p Both (sub a)
      | Map_n (f, a, counts) ->
        (* Each preimage counts once: the exact change of [a]. *)
        let old = a.value in
        let da = sub a in
        let plus = Value.diff da.Delta.plus old and minus = Value.inter da.Delta.minus old in
        let images v = Zset.map (Efun.apply eng.builtins f) (Zset.of_set v) in
        let now = Zset.add !counts (Zset.sub (images plus) (images minus)) in
        counts := now;
        Delta.map eng.builtins f ~mem:(fun y -> Zset.weight now y > 0) Both { plus; minus }
      | Ifp_n st -> ifp_repair eng node st ~fresh ~old_db changes
    in
    (match node.shape with
    | Ifp_n _ -> () (* set by its regime *)
    | _ -> node.value <- Delta.apply node.value c);
    if not fresh then
      Obs.countf "incr/repaired" (fun () ->
          Value.cardinal c.Delta.plus + Value.cardinal c.Delta.minus);
    c
  end

(* ------------------------------------------------------------------ *)
(* Public engine.                                                      *)

(* Filling the tree is the repair walk from the empty database. *)
let init ?(fuel = Limits.default ()) defs db expr =
  Obs.span "incremental.init" @@ fun () ->
  (match Defs.validate defs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Incremental.init: " ^ msg));
  let builtins = Defs.builtins defs in
  let root = build builtins (expand defs expr) in
  let eng = { builtins; fuel; db; root } in
  ignore (repair eng ~fresh:true ~old_db:Db.empty [] root);
  eng

let value eng = eng.root.value
let db eng = eng.db

let count_batch changes =
  if Obs.enabled () then begin
    let total side =
      List.fold_left (fun n (_, c) -> n + Value.cardinal (side c)) 0 changes
    in
    Obs.count "incr/insertions" (total (fun c -> c.Delta.plus));
    Obs.count "incr/retractions" (total (fun c -> c.Delta.minus))
  end

(* The batch's whole mutation surface: [eng.db], each node's [value],
   and the [Map_n] image counts — all holding immutable values, so a
   snapshot is one pointer per cell and restoring it is exact. *)
let rec snapshot_nodes node acc =
  let acc =
    ( node,
      node.value,
      match node.shape with Map_n (_, _, counts) -> Some !counts | _ -> None )
    :: acc
  in
  match node.shape with
  | Leaf_rel _ | Leaf_lit _ | Ifp_n _ -> acc
  | Union_n (a, b) | Diff_n (a, b) | Pair_n (_, a, b) ->
    snapshot_nodes b (snapshot_nodes a acc)
  | Select_n (_, a) | Map_n (_, a, _) -> snapshot_nodes a acc

let restore_nodes snaps =
  List.iter
    (fun (node, value, counts) ->
      node.value <- value;
      match node.shape, counts with
      | Map_n (_, _, r), Some z -> r := z
      | _, _ -> ())
    snaps

(* All-or-nothing, mirroring [Datalog.Incremental.update]: any
   exception mid-batch restores the pre-batch snapshot before
   re-raising, and a degradation latched by the inner [Eval] is
   promoted back to an abort — a silently under-approximated
   materialization would poison every later repair. *)
let update eng u =
  Obs.span "incremental.update" @@ fun () ->
  let old_db = eng.db in
  let snaps = snapshot_nodes eng.root [] in
  let pre_degraded = Limits.degraded eng.fuel in
  let rollback () =
    eng.db <- old_db;
    restore_nodes snaps
  in
  try
    let db, changes = Update.advance old_db u in
    eng.db <- db;
    (match changes with
    | [] -> ()
    | changes ->
      count_batch changes;
      Limits.spend eng.fuel ~what:"incremental: update batch";
      Faultinj.hit "incr/batch";
      ignore (repair eng ~fresh:false ~old_db changes eng.root));
    if Limits.degraded eng.fuel <> pre_degraded then begin
      rollback ();
      Limits.fail_degraded eng.fuel
    end;
    eng.root.value
  with e ->
    rollback ();
    raise e

(* ------------------------------------------------------------------ *)
(* Recursive definitions: maintain the [Rec_eval] solution resident.    *)

module Rec = struct
  type eng = {
    defs : Defs.t;  (* original, for the recompute fallback *)
    inlined : Defs.t;
    builtins : Builtins.t;
    fuel : Limits.fuel;
    positive : bool;
    mutable rdb : Db.t;
    mutable lows : Value.t Smap.t;
    mutable highs : Value.t Smap.t;
  }

  type t = eng

  let store_solution eng sol =
    let names = Defs.constant_names eng.inlined in
    let lows, highs =
      List.fold_left
        (fun (lows, highs) name ->
          let vs = Rec_eval.constant sol name in
          ( Smap.add name vs.Rec_eval.low lows,
            Smap.add name vs.Rec_eval.high highs ))
        (Smap.empty, Smap.empty) names
    in
    eng.lows <- lows;
    eng.highs <- highs

  let init ?(fuel = Limits.default ()) defs db =
    Obs.span "incremental.rec_init" @@ fun () ->
    let inlined = Defs.inline_all defs in
    let eng =
      {
        defs;
        inlined;
        builtins = Defs.builtins defs;
        fuel;
        positive = Positivity.positive_program defs;
        rdb = db;
        lows = Smap.empty;
        highs = Smap.empty;
      }
    in
    store_solution eng (Rec_eval.solve ~fuel defs db);
    eng

  let db eng = eng.rdb

  let constant eng name =
    match Smap.find_opt name eng.lows with
    | Some low -> { Rec_eval.low; high = Smap.find name eng.highs }
    | None -> raise (Undefined_relation name)

  let constant_names eng = Defs.constant_names eng.inlined

  (* Evaluate a body with the current constant map bound as literals. *)
  let ceval eng m e =
    let e' =
      Expr.map_rels
        (fun n ->
          match Smap.find_opt n m with
          | Some v -> Expr.Lit v
          | None -> Expr.Rel n)
        e
    in
    Eval.eval ~fuel:eng.fuel (Defs.make ~builtins:eng.builtins []) eng.rdb e'

  (* Monotone insert-only extension of the least solution: semi-naive
     rounds over the equation system, seeded from the input insertions,
     starting at the old solution — the system-of-equations analogue of
     [ifp_extend]. A positive program's valid model is total and equals
     the least fixpoint, so extending the lows extends the model. *)
  let extend eng ~input_adds =
    let bodies = Defs.constant_bodies eng.inlined in
    let m = ref eng.lows in
    let derive name body deltas =
      let changes = List.map (fun (n, d) -> (n, Delta.grown d)) deltas in
      let derived =
        Delta.derive ~builtins:eng.builtins { Delta.value = ceval eng !m; changes } body
      in
      Value.diff derived.Delta.plus (Smap.find name !m)
    in
    let step deltas =
      Limits.spend eng.fuel ~what:"incremental: rec round";
      Obs.count "incr/rec_round" 1;
      let changed = ref [] in
      List.iter
        (fun (name, body) ->
          if List.exists (fun (n, _) -> Delta.touches [ n ] body) deltas
          then begin
            let d = derive name body deltas in
            if not (Delta.is_empty d) then begin
              m := Smap.add name (Value.union (Smap.find name !m) d) !m;
              changed := (name, d) :: !changed
            end
          end)
        bodies;
      !changed
    in
    let rec loop deltas =
      match step deltas with
      | [] -> ()
      | changed -> loop changed
    in
    loop input_adds;
    eng.lows <- !m;
    eng.highs <- !m

  (* Same all-or-nothing contract as the plain engine above; the whole
     mutable surface is three fields of immutable values. *)
  let rec update eng u =
    Obs.span "incremental.rec_update" @@ fun () ->
    let old_rdb = eng.rdb
    and old_lows = eng.lows
    and old_highs = eng.highs in
    let pre_degraded = Limits.degraded eng.fuel in
    let rollback () =
      eng.rdb <- old_rdb;
      eng.lows <- old_lows;
      eng.highs <- old_highs
    in
    try
      update_exn eng u;
      if Limits.degraded eng.fuel <> pre_degraded then begin
        rollback ();
        Limits.fail_degraded eng.fuel
      end
    with e ->
      rollback ();
      raise e

  and update_exn eng u =
    let rdb, deltas = Update.advance eng.rdb u in
    eng.rdb <- rdb;
    match deltas with
    | [] -> ()
    | deltas ->
      count_batch deltas;
      Limits.spend eng.fuel ~what:"incremental: update batch";
      Faultinj.hit "incr/batch";
      let insert_only = List.for_all (fun (_, c) -> Delta.is_empty c.Delta.minus) deltas in
      let negative_input =
        List.exists
          (fun (n, _) ->
            List.exists
              (fun (_, body) -> Positivity.occurs_negatively body n)
              (Defs.constant_bodies eng.inlined))
          deltas
      in
      if eng.positive && insert_only && not negative_input then begin
        Obs.count "incr/rec_extend" 1;
        extend eng ~input_adds:(List.map (fun (n, c) -> (n, c.Delta.plus)) deltas)
      end
      else begin
        Obs.count "incr/recompute" 1;
        store_solution eng (Rec_eval.solve ~fuel:eng.fuel eng.defs eng.rdb)
      end
end
