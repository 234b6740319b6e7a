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
  let of_zsets l = List.fold_left (fun u (name, z) -> shift name z u) empty l
  let to_zsets u = Smap.bindings u
  let rels u = List.map fst (Smap.bindings u)

  let old_value db name =
    Option.value ~default:Value.empty_set (Db.find db name)

  let new_value db name z =
    Zset.to_set (Zset.add (Zset.of_set (old_value db name)) z)

  (* The set-level change each relation actually undergoes: inserting a
     present tuple or deleting an absent one is a no-op, and weights
     beyond +-1 collapse to membership. *)
  let effective db u =
    Smap.fold
      (fun name z acc ->
        let d =
          Zset.delta_of_sets ~old_value:(old_value db name)
            (new_value db name z)
        in
        if Zset.is_empty d then acc else (name, d) :: acc)
      u []

  let apply u db =
    Smap.fold (fun name z db -> Db.add name (new_value db name z) db) u db

  let pp ppf u =
    Smap.iter (fun name z -> Fmt.pf ppf "%s %a@ " name Zset.pp z) u
end

(* ------------------------------------------------------------------ *)
(* Delta-lifted operators: given the exact set-level Z-set change of the
   inputs (weights +-1) and the inputs' post-update values, each rule
   computes the exact set-level change of the output. DESIGN.md S8 spells
   out the correctness argument per operator. *)

module Lift = struct
  let b2i b = if b then 1 else 0

  (* Membership before the update, recovered from the new value and the
     exact delta: weight +1 means the element just appeared, -1 that it
     just vanished. *)
  let mem_old value d x =
    match Zset.weight d x with
    | 1 -> false
    | -1 -> true
    | _ -> Value.mem x value

  let candidates da db =
    List.sort_uniq Value.compare (Zset.support da @ Zset.support db)

  (* d(a U b): only elements of either support can change membership. *)
  let union ~a ~da ~b ~db =
    Zset.of_list
      (List.filter_map
         (fun x ->
           let now = Value.mem x a || Value.mem x b in
           let was = mem_old a da x || mem_old b db x in
           if now = was then None else Some (x, b2i now - b2i was))
         (candidates da db))

  (* d(a - b): same candidate set; the right side acts negatively, which
     is exactly why the rule needs both memberships rather than a linear
     pass over the deltas. *)
  let diff ~a ~da ~b ~db =
    Zset.of_list
      (List.filter_map
         (fun x ->
           let now = Value.mem x a && not (Value.mem x b) in
           let was = mem_old a da x && not (mem_old b db x) in
           if now = was then None else Some (x, b2i now - b2i was))
         (candidates da db))

  (* Bilinear expansion against post-update values:
     A'xB' - AxB = da x B' + A' x db - da x db. *)
  let product ~a ~da ~b ~db =
    let za = Zset.of_set a and zb = Zset.of_set b in
    let t1 = Zset.product Value.pair da zb
    and t2 = Zset.product Value.pair za db
    and t3 = Zset.product Value.pair da db in
    Zset.sub (Zset.add t1 t2) t3

  (* Same expansion through the hash-join executor — never materialises a
     product, and the residual conjuncts prune inside the join. *)
  let join builtins plan ~a ~da ~b ~db =
    let za = Zset.of_set a and zb = Zset.of_set b in
    let t1 = Join.exec_zset builtins plan da zb
    and t2 = Join.exec_zset builtins plan za db
    and t3 = Join.exec_zset builtins plan da db in
    Zset.sub (Zset.add t1 t2) t3

  (* Selection is linear: filter the delta. *)
  let select builtins p ~da =
    Zset.filter (fun v -> Pred.eval builtins p v = Some true) da

  (* MAP is linear on the weighted image but not on sets: two sources may
     collapse onto one image element, so the operator keeps the weighted
     image resident and emits the change of its positive support — the
     incremental [distinct]. Returns the output delta and the new image. *)
  let map builtins f ~image ~da =
    let dimg = Zset.map (Efun.apply builtins f) da in
    let image' = Zset.add image dimg in
    let dout =
      Zset.of_list
        (List.filter_map
           (fun y ->
             let now = Zset.weight image' y > 0
             and was = Zset.weight image y > 0 in
             if now = was then None else Some (y, b2i now - b2i was))
           (Zset.support dimg))
    in
    (dout, image')

  (* Apply an exact set-level delta to a set value. *)
  let apply_delta v d =
    let adds, dels =
      Zset.fold
        (fun x w (adds, dels) ->
          if w > 0 then (x :: adds, dels) else (adds, x :: dels))
        d ([], [])
    in
    Value.diff (Value.union v (Value.set adds)) (Value.set dels)
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
  | Leaf_lit
  | Union_n of node * node
  | Diff_n of node * node
  | Product_n of node * node
  | Join_n of Join.t * node * node
  | Select_n of Pred.t * node
  | Map_n of Efun.t * node * Zset.t ref
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

let positive_deltas deltas =
  List.filter_map
    (fun (n, d) ->
      let adds = Zset.to_set (Zset.distinct d) in
      if Value.equal adds Value.empty_set then None else Some (n, adds))
    deltas

let negative_deltas deltas =
  List.filter_map
    (fun (n, d) ->
      let dels = Zset.to_set (Zset.distinct (Zset.negate d)) in
      if Value.equal dels Value.empty_set then None else Some (n, dels))
    deltas

let is_empty_set v = Value.equal v Value.empty_set

(* Close an inflationary iteration by semi-naive delta rounds: [s0] is a
   pre-fixpoint below the target, [d0] its current frontier. For a
   monotone body this converges exactly to the least fixpoint above
   [s0] — which equals the from-scratch IFP whenever [s0] is below it. *)
let ifp_close eng st s0 d0 =
  let rec loop s d =
    if is_empty_set d then s
    else begin
      Limits.spend eng.fuel ~what:"incremental: IFP round";
      Obs.count "incr/ifp_round" 1;
      let derived =
        Delta.derive ~builtins:eng.builtins
          ~eval:(fun e -> beval eng eng.db [ (st.var, s) ] e)
          ~deltas:[ (st.var, d) ] st.body
      in
      let d' = Value.diff derived s in
      loop (Value.union s d') d'
    end
  in
  if is_empty_set d0 then s0 else loop (Value.union s0 d0) d0

(* Insert-only extension: seed with the tuples the input insertions
   contribute at [x = s_old], then close. Correct because the old
   fixpoint is a pre-fixpoint of the new (larger) round map. *)
let ifp_extend eng st s_old ~input_adds =
  let seed =
    Delta.derive ~builtins:eng.builtins
      ~eval:(fun e -> beval eng eng.db [ (st.var, s_old) ] e)
      ~deltas:input_adds st.body
  in
  ifp_close eng st s_old (Value.diff seed s_old)

(* Delete & rederive (DRed): overapproximate the tuples whose
   derivations touch a deleted input fact by propagating a deletion
   delta through the body against the *pre-update* state, remove them,
   then one full body round against the new database rederives every
   still-derivable tuple (and picks up any insertions); closing finishes
   the job. Sound for monotone bodies: the remainder is below both the
   old and the new fixpoint. *)
let ifp_dred eng st s_old ~old_db ~input_dels =
  let derive_old ~deltas =
    Delta.derive ~builtins:eng.builtins
      ~eval:(fun e -> beval eng old_db [ (st.var, s_old) ] e)
      ~deltas st.body
  in
  let rec overdelete deleted frontier =
    if is_empty_set frontier then deleted
    else begin
      Limits.spend eng.fuel ~what:"incremental: DRed round";
      Obs.count "incr/dred_round" 1;
      let hit =
        Value.inter (derive_old ~deltas:[ (st.var, frontier) ]) s_old
      in
      let fresh = Value.diff hit deleted in
      overdelete (Value.union deleted fresh) fresh
    end
  in
  let d0 = Value.inter (derive_old ~deltas:input_dels) s_old in
  let deleted = overdelete d0 d0 in
  Obs.countf "incr/dred_deleted" (fun () -> Value.cardinal deleted);
  let s_minus = Value.diff s_old deleted in
  let rederived =
    Value.diff (beval eng eng.db [ (st.var, s_minus) ] st.body) s_minus
  in
  ifp_close eng st s_minus rederived

let ifp_repair eng node st ~old_db deltas =
  let s_old = node.value in
  let relevant = List.filter (fun (n, _) -> List.mem n st.inputs) deltas in
  if relevant = [] then Zset.empty
  else begin
    let input_adds = positive_deltas relevant in
    let input_dels = negative_deltas relevant in
    let negative_input =
      List.exists
        (fun (n, _) -> Positivity.occurs_negatively st.body n)
        relevant
    in
    let s_new =
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
        (* Conservative fallback, mirroring [Delta]'s per-node fallback:
           a non-monotone fixpoint is recomputed from scratch. *)
        Obs.count "incr/recompute" 1;
        beval eng eng.db [] node.expr
      end
    in
    node.value <- s_new;
    Zset.delta_of_sets ~old_value:s_old s_new
  end

(* ------------------------------------------------------------------ *)
(* Tree construction and initial evaluation.                           *)

let rec build e =
  let mk shape =
    { expr = e; frees = Expr.rel_names e; value = Value.empty_set; shape }
  in
  match e with
  | Expr.Rel n -> mk (Leaf_rel n)
  | Expr.Lit _ -> mk Leaf_lit
  | Expr.Param x ->
    invalid_arg ("Incremental.init: unsubstituted parameter " ^ x)
  | Expr.Call _ -> invalid_arg "Incremental.init: Call survived inlining"
  | Expr.Union (a, b) -> mk (Union_n (build a, build b))
  | Expr.Diff (a, b) -> mk (Diff_n (build a, build b))
  | Expr.Product (a, b) -> mk (Product_n (build a, build b))
  | Expr.Select (p, a) -> (
    match a with
    | Expr.Product (ea, eb) -> (
      match Join.plan p with
      | Some jp -> mk (Join_n (jp, build ea, build eb))
      | None -> mk (Select_n (p, build a)))
    | _ -> mk (Select_n (p, build a)))
  | Expr.Map (f, a) -> mk (Map_n (f, build a, ref Zset.empty))
  | Expr.Ifp (x, body) ->
    let inputs = List.filter (fun n -> n <> x) (Expr.rel_names body) in
    mk (Ifp_n { var = x; body; inputs; positive = Positivity.monotone_in [ x ] body })

let rec init_value eng node =
  let v =
    match node.shape with
    | Leaf_rel n -> (
      match Db.find eng.db n with
      | Some v -> v
      | None -> raise (Undefined_relation n))
    | Leaf_lit -> (
      match node.expr with
      | Expr.Lit v -> v
      | _ -> assert false)
    | Union_n (a, b) -> Value.union (init_value eng a) (init_value eng b)
    | Diff_n (a, b) -> Value.diff (init_value eng a) (init_value eng b)
    | Product_n (a, b) -> Value.product (init_value eng a) (init_value eng b)
    | Join_n (jp, a, b) ->
      Join.exec eng.builtins jp (init_value eng a) (init_value eng b)
    | Select_n (p, a) ->
      Value.filter
        (fun v -> Pred.eval eng.builtins p v = Some true)
        (init_value eng a)
    | Map_n (f, a, image) ->
      let va = init_value eng a in
      image := Zset.map (Efun.apply eng.builtins f) (Zset.of_set va);
      Zset.to_set !image
    | Ifp_n _ -> beval eng eng.db [] node.expr
  in
  node.value <- v;
  v

(* ------------------------------------------------------------------ *)
(* Repair: push exact set-level deltas bottom-up through the tree.      *)

let touches deltas node =
  List.exists (fun (n, _) -> List.mem n node.frees) deltas

let rec repair eng ~old_db deltas node =
  if not (touches deltas node) then Zset.empty
  else begin
    let d =
      match node.shape with
      | Leaf_rel n ->
        Option.value ~default:Zset.empty (List.assoc_opt n deltas)
      | Leaf_lit -> Zset.empty
      | Union_n (a, b) ->
        let da = repair eng ~old_db deltas a
        and db = repair eng ~old_db deltas b in
        Lift.union ~a:a.value ~da ~b:b.value ~db
      | Diff_n (a, b) ->
        let da = repair eng ~old_db deltas a
        and db = repair eng ~old_db deltas b in
        Lift.diff ~a:a.value ~da ~b:b.value ~db
      | Product_n (a, b) ->
        let da = repair eng ~old_db deltas a
        and db = repair eng ~old_db deltas b in
        Lift.product ~a:a.value ~da ~b:b.value ~db
      | Join_n (jp, a, b) ->
        let da = repair eng ~old_db deltas a
        and db = repair eng ~old_db deltas b in
        Lift.join eng.builtins jp ~a:a.value ~da ~b:b.value ~db
      | Select_n (p, a) ->
        let da = repair eng ~old_db deltas a in
        Lift.select eng.builtins p ~da
      | Map_n (f, a, image) ->
        let da = repair eng ~old_db deltas a in
        let dout, image' = Lift.map eng.builtins f ~image:!image ~da in
        image := image';
        dout
      | Ifp_n st -> ifp_repair eng node st ~old_db deltas
    in
    (match node.shape with
    | Ifp_n _ -> () (* value already updated, delta derived from it *)
    | _ -> node.value <- Lift.apply_delta node.value d);
    Obs.countf "incr/repaired" (fun () -> Zset.support_size d);
    d
  end

(* ------------------------------------------------------------------ *)
(* Public engine.                                                      *)

let init ?(fuel = Limits.default ()) defs db expr =
  Obs.span "incremental.init" @@ fun () ->
  (match Defs.validate defs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Incremental.init: " ^ msg));
  let root = build (expand defs expr) in
  let eng = { builtins = Defs.builtins defs; fuel; db; root } in
  ignore (init_value eng root);
  eng

let value eng = eng.root.value
let db eng = eng.db

let count_batch deltas =
  if Obs.enabled () then begin
    let ins, dels =
      List.fold_left
        (fun acc (_, z) ->
          Zset.fold
            (fun _ w (i, d) -> if w > 0 then (i + 1, d) else (i, d + 1))
            z acc)
        (0, 0) deltas
    in
    Obs.count "incr/insertions" ins;
    Obs.count "incr/retractions" dels
  end

(* The batch's whole mutation surface: [eng.db], each node's [value],
   and the [Map_n] image multiset refs — all holding immutable values,
   so a snapshot is one pointer per cell and restoring it is exact. *)
let rec snapshot_nodes node acc =
  let acc =
    ( node,
      node.value,
      match node.shape with Map_n (_, _, img) -> Some !img | _ -> None )
    :: acc
  in
  match node.shape with
  | Leaf_rel _ | Leaf_lit | Ifp_n _ -> acc
  | Union_n (a, b) | Diff_n (a, b) | Product_n (a, b) | Join_n (_, a, b) ->
    snapshot_nodes b (snapshot_nodes a acc)
  | Select_n (_, a) | Map_n (_, a, _) -> snapshot_nodes a acc

let restore_nodes snaps =
  List.iter
    (fun (node, value, img) ->
      node.value <- value;
      match node.shape, img with
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
    let deltas = Update.effective old_db u in
    eng.db <- Update.apply u old_db;
    (match deltas with
    | [] -> ()
    | deltas ->
      count_batch deltas;
      Limits.spend eng.fuel ~what:"incremental: update batch";
      Faultinj.hit "incr/batch";
      ignore (repair eng ~old_db deltas eng.root));
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
      let derived =
        Delta.derive ~builtins:eng.builtins
          ~eval:(fun e -> ceval eng !m e)
          ~deltas body
      in
      Value.diff derived (Smap.find name !m)
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
            if not (is_empty_set d) then begin
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
    let deltas = Update.effective eng.rdb u in
    eng.rdb <- Update.apply u eng.rdb;
    match deltas with
    | [] -> ()
    | deltas ->
      count_batch deltas;
      Limits.spend eng.fuel ~what:"incremental: update batch";
      Faultinj.hit "incr/batch";
      let insert_only =
        List.for_all
          (fun (_, z) -> Zset.fold (fun _ w acc -> acc && w > 0) z true)
          deltas
      in
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
        extend eng ~input_adds:(positive_deltas deltas)
      end
      else begin
        Obs.count "incr/recompute" 1;
        store_solution eng (Rec_eval.solve ~fuel:eng.fuel eng.defs eng.rdb)
      end
end
