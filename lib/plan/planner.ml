open Recalg_kernel
module Expr = Recalg_algebra.Expr
module Pred = Recalg_algebra.Pred
module Efun = Recalg_algebra.Efun
module Join = Recalg_algebra.Join
module Advice = Recalg_algebra.Advice
module Obs = Recalg_obs.Obs

type mode = Off | Cost

let mode_to_string m =
  match m with Off -> "off" | Cost -> "cost"

(* DP join-order search is exponential in the leaf count; above this we
   fall back to the greedy order (ISSUE: DP for <= 8 relations). *)
let dp_max_leaves = 8

type join_report = {
  leaves : string list;
  original : string;
  chosen : string;
  est_cost_original : float;
  est_cost_chosen : float;
  est_out : float;
  semijoins : int;
  pushdowns : int;
  reordered : bool;
}

type t = {
  mode : mode;
  stats : Stats.t;
  reports : join_report list ref;
  bound_cards : (string, int) Hashtbl.t;
      (* observed cardinalities of bound (fixpoint) relations, installed
         by [refresh] — consulted by [est_leaf] before the default-card
         fallback, so a re-plan sees the real sizes the loop reached *)
}

(* The observed/estimated cardinality ratio, in either direction, beyond
   which a round-boundary reading triggers a re-plan. *)
let drift_threshold = 4.0

let create ?(stats = Stats.empty) mode =
  { mode; stats; reports = ref []; bound_cards = Hashtbl.create 4 }

let reports t = List.rev !(t.reports)

(* ------------------------------------------------------------------ *)
(* Flattening: a maximal [Select]/[Product] region becomes a list of
   factor expressions (the join leaves, numbered left to right), the
   original binary [shape] of the products, and the selection conjuncts
   lifted to the region root (each element function composed with the
   projection path from the root pair to where the conjunct sat). The
   lifting is exact: [Efun] composition is strict, and products contain
   exactly the pairs of their factors, so a conjunct tests the same
   values before and after. *)

type shape = Leaf of int | Node of shape * shape

type jtree = JLeaf of int | JNode of jtree * jtree

let rec pred_map_efun fn p =
  match p with
  | Pred.True | Pred.False -> p
  | Pred.Eq (f, g) -> Pred.Eq (fn f, fn g)
  | Pred.Neq (f, g) -> Pred.Neq (fn f, fn g)
  | Pred.Lt (f, g) -> Pred.Lt (fn f, fn g)
  | Pred.Leq (f, g) -> Pred.Leq (fn f, fn g)
  | Pred.Is_cstr (name, arity, f) -> Pred.Is_cstr (name, arity, fn f)
  | Pred.Mem (f, g) -> Pred.Mem (fn f, fn g)
  | Pred.And (a, b) -> Pred.And (pred_map_efun fn a, pred_map_efun fn b)
  | Pred.Or (a, b) -> Pred.Or (pred_map_efun fn a, pred_map_efun fn b)
  | Pred.Not a -> Pred.Not (pred_map_efun fn a)

let flatten e =
  let factors = ref [] in
  let n = ref 0 in
  let rec go e =
    match e with
    | Expr.Product (a, b) ->
      let sa, ca = go a in
      let sb, cb = go b in
      let lift i c = pred_map_efun (fun f -> Join.compose f (Efun.Proj i)) c in
      (Node (sa, sb), List.map (lift 1) ca @ List.map (lift 2) cb)
    | Expr.Select (p, a) ->
      let sa, ca = go a in
      (sa, Join.conjuncts p @ ca)
    | _ ->
      let i = !n in
      incr n;
      factors := e :: !factors;
      (Leaf i, [])
  in
  let shape, conjs = go e in
  (Array.of_list (List.rev !factors), shape, conjs)

let rec shape_leaves s =
  match s with Leaf i -> [ i ] | Node (l, r) -> shape_leaves l @ shape_leaves r

(* ------------------------------------------------------------------ *)
(* Conjunct analysis. [narrow] pushes a conjunct to the smallest product
   subtree it factors through (exact, by [Join.split]'s contract);
   [locate] finds the single leaf an element function factors through,
   if any. Each conjunct then classifies as a per-leaf pushdown, an
   equi-join edge between two leaves, or a general residual that needs a
   whole subtree rebuilt. *)

let try_side pick p =
  let exception No in
  match
    pred_map_efun
      (fun f ->
        match pick (Join.split f) with Some f' -> f' | None -> raise No)
      p
  with
  | p' -> Some p'
  | exception No -> None

let left_of s =
  match s with
  | Join.Left_only f | Join.Either_side f -> Some f
  | Join.Right_only _ | Join.Both_sides -> None

let right_of s =
  match s with
  | Join.Right_only f | Join.Either_side f -> Some f
  | Join.Left_only _ | Join.Both_sides -> None

let rec narrow shape p =
  match shape with
  | Leaf _ -> (shape, p)
  | Node (l, r) -> (
    match try_side left_of p with
    | Some p' -> narrow l p'
    | None -> (
      match try_side right_of p with
      | Some p' -> narrow r p'
      | None -> (shape, p)))

let rec locate shape f =
  match shape with
  | Leaf i -> Some (i, f)
  | Node (l, r) -> (
    match Join.split f with
    | Join.Left_only f' -> locate l f'
    | Join.Right_only f' -> locate r f'
    | Join.Either_side _ | Join.Both_sides -> None)

type equi = {
  li : int;
  lkey : Efun.t;
  ri : int;
  rkey : Efun.t;
}

type general = {
  gleaves : int list;
  gshape : shape;
  gpred : Pred.t;
}

type conj_class =
  | Push of int * Pred.t
  | Equi of equi
  | General of general

let classify root_shape c =
  let s, p = narrow root_shape c in
  match s with
  | Leaf i -> Push (i, p)
  | Node _ -> (
    let general () = General { gleaves = shape_leaves s; gshape = s; gpred = p } in
    match p with
    | Pred.Eq (f, g) -> (
      match locate s f, locate s g with
      | Some (i, fi), Some (j, gj) when i <> j ->
        Equi { li = i; lkey = fi; ri = j; rkey = gj }
      | _, _ -> general ())
    | _ -> general ())

(* ------------------------------------------------------------------ *)
(* Estimation. *)

let rec est_leaf t bound e =
  match e with
  | Expr.Rel n -> (
    match Hashtbl.find_opt t.bound_cards n with
    | Some c -> Cost.clamp (float_of_int c)
    | None ->
      if List.mem n bound then Cost.default_card
      else (
        match Stats.card t.stats n with
        | Some c -> Cost.clamp (float_of_int c)
        | None -> Cost.default_card))
  | Expr.Lit v -> Cost.clamp (float_of_int (Value.cardinal v))
  | Expr.Map (_, a) | Expr.Select (_, a) -> est_leaf t bound a
  | Expr.Union (a, b) -> est_leaf t bound a +. est_leaf t bound b
  | Expr.Diff (a, _) -> est_leaf t bound a
  | Expr.Product (a, b) -> Cost.cross (est_leaf t bound a) (est_leaf t bound b)
  | Expr.Ifp _ | Expr.Call _ | Expr.Param _ -> Cost.default_card

(* Column a key reads: [Id] is the whole element (column 0), [Proj i]
   component [i]; anything else has no sampled distinct count. *)
let key_col k =
  match k with Efun.Id -> Some 0 | Efun.Proj i -> Some i | _ -> None

let leaf_name bound e =
  match e with
  | Expr.Rel n when not (List.mem n bound) -> Some n
  | _ -> None

let distinct_of_key stats bound factor key card =
  match leaf_name bound factor, key_col key with
  | Some n, Some col -> (
    match Stats.distinct stats n col with
    | Some d -> Cost.clamp (float_of_int d)
    | None -> Cost.clamp card)
  | _, _ -> Cost.clamp card

(* ------------------------------------------------------------------ *)
(* Search: estimated output of a leaf subset is the product of its
   effective cardinalities times the selectivity of every equi-conjunct
   internal to the subset (structure-independent, Selinger-style). *)

let bit i = 1 lsl i

let est_set ~eff ~edges mask =
  let card = ref 1. in
  Array.iteri (fun i e -> if mask land bit i <> 0 then card := !card *. e) eff;
  List.iter
    (fun (m, sel) -> if m land mask = m then card := !card *. sel)
    edges;
  Cost.clamp !card

let tree_cost ~eff ~edges t =
  let rec go t =
    match t with
    | JLeaf i -> (eff.(i), bit i, 0.)
    | JNode (l, r) ->
      let _, ml, cl = go l in
      let er, mr, cr = go r in
      let m = ml lor mr in
      let out = est_set ~eff ~edges m in
      (out, m, cl +. cr +. Cost.join_node_cost ~out ~build:er)
  in
  let _, _, c = go t in
  c

let rec jtree_of_shape s =
  match s with
  | Leaf i -> JLeaf i
  | Node (l, r) -> JNode (jtree_of_shape l, jtree_of_shape r)

let rec jtree_equals_shape t s =
  match t, s with
  | JLeaf i, Leaf j -> i = j
  | JNode (a, b), Node (c, d) -> jtree_equals_shape a c && jtree_equals_shape b d
  | (JLeaf _ | JNode _), (Leaf _ | Node _) -> false

(* Greedy left-deep: start from the pair with the smallest estimated
   output, then repeatedly append the leaf minimising the next
   intermediate — the classic heuristic E14 is built to defeat, kept as
   [Cost]'s fallback above [dp_max_leaves]. *)
let greedy_order ~eff ~edges n =
  let best = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = est_set ~eff ~edges (bit i lor bit j) in
      match !best with
      | Some (c', _, _) when c' <= c -> ()
      | _ -> best := Some (c, i, j)
    done
  done;
  match !best with
  | None -> JLeaf 0
  | Some (_, i, j) ->
    let tree = ref (JNode (JLeaf i, JLeaf j)) in
    let mask = ref (bit i lor bit j) in
    while !mask <> (1 lsl n) - 1 do
      let next = ref None in
      for k = 0 to n - 1 do
        if !mask land bit k = 0 then begin
          let c = est_set ~eff ~edges (!mask lor bit k) in
          match !next with
          | Some (c', _) when c' <= c -> ()
          | _ -> next := Some (c, k)
        end
      done;
      match !next with
      | Some (_, k) ->
        tree := JNode (!tree, JLeaf k);
        mask := !mask lor bit k
      | None -> assert false
    done;
    !tree

(* Selinger-style DP over leaf subsets, bushy trees allowed; both
   orientations of every split are scored, so the build-side penalty
   picks the smaller hash table. Deterministic: strict improvement only,
   submasks enumerated in a fixed order. *)
let dp_order ~eff ~edges n =
  let size = 1 lsl n in
  let cost = Array.make size infinity in
  let tree = Array.make size None in
  for i = 0 to n - 1 do
    cost.(bit i) <- 0.;
    tree.(bit i) <- Some (JLeaf i)
  done;
  for mask = 1 to size - 1 do
    if tree.(mask) = None then begin
      let out = est_set ~eff ~edges mask in
      let sub = ref ((mask - 1) land mask) in
      while !sub > 0 do
        let s1 = !sub and s2 = mask lxor !sub in
        (match tree.(s1), tree.(s2) with
        | Some t1, Some t2 ->
          let build = est_set ~eff ~edges s2 in
          let c = cost.(s1) +. cost.(s2) +. Cost.join_node_cost ~out ~build in
          if c < cost.(mask) then begin
            cost.(mask) <- c;
            tree.(mask) <- Some (JNode (t1, t2))
          end
        | _, _ -> ());
        sub := (!sub - 1) land mask
      done
    end
  done;
  match tree.(size - 1) with Some t -> t | None -> jtree_of_shape (Leaf 0)

(* ------------------------------------------------------------------ *)
(* Rebuild. [build_tree] returns the expression for a join subtree plus
   the projection path from its value to every contained leaf. Each
   conjunct attaches exactly once: pushdowns at their leaf, equi edges
   at the node separating their two leaves, generals at the lowest node
   covering their subtree — with their element functions composed with
   the path (or a reshape tuple) from the new node's value. The
   attachment bookkeeping is counted and the caller bails out to the
   original expression if anything was left unattached. *)

let and_all ps =
  match ps with
  | [] -> Pred.True
  | p :: rest -> List.fold_left (fun acc q -> Pred.And (acc, q)) p rest

let rec reshape_of paths s =
  match s with
  | Leaf i -> List.assoc i paths
  | Node (l, r) -> Efun.Tuple_of [ reshape_of paths l; reshape_of paths r ]

type region = {
  factors : Expr.t array;  (* walked leaf expressions *)
  pushes : (int * Pred.t) list;
  equis : equi list;  (* keys already rewritten for reduced leaves *)
  generals : general list;
  reduced : (int * Efun.t) list;  (* leaf -> key projection *)
  attach_count : int ref;
}

let build_tree region t =
  let rec go t =
    match t with
    | JLeaf i ->
      let e = region.factors.(i) in
      let e =
        match
          List.filter_map
            (fun (j, p) -> if i = j then Some p else None)
            region.pushes
        with
        | [] -> e
        | ps ->
          region.attach_count := !(region.attach_count) + List.length ps;
          Expr.Select (and_all ps, e)
      in
      let e =
        match List.assoc_opt i region.reduced with
        | Some key -> Expr.Map (key, e)
        | None -> e
      in
      (e, [ (i, Efun.Id) ])
    | JNode (l, r) ->
      let el, pl = go l in
      let er, pr = go r in
      let paths =
        List.map (fun (j, f) -> (j, Join.compose f (Efun.Proj 1))) pl
        @ List.map (fun (j, f) -> (j, Join.compose f (Efun.Proj 2))) pr
      in
      let in_l j = List.mem_assoc j pl and in_r j = List.mem_assoc j pr in
      let equi_preds =
        List.filter_map
          (fun eq ->
            let make i ki j kj =
              region.attach_count := !(region.attach_count) + 1;
              Some
                (Pred.Eq
                   ( Join.compose ki (List.assoc i paths),
                     Join.compose kj (List.assoc j paths) ))
            in
            if in_l eq.li && in_r eq.ri then make eq.li eq.lkey eq.ri eq.rkey
            else if in_l eq.ri && in_r eq.li then make eq.ri eq.rkey eq.li eq.lkey
            else None)
          region.equis
      in
      let general_preds =
        List.filter_map
          (fun g ->
            let covered side = List.for_all side g.gleaves in
            if covered (fun j -> in_l j || in_r j) && (not (covered in_l))
               && not (covered in_r)
            then begin
              region.attach_count := !(region.attach_count) + 1;
              let reshape = reshape_of paths g.gshape in
              Some (pred_map_efun (fun f -> Join.compose f reshape) g.gpred)
            end
            else None)
          region.generals
      in
      let node =
        match equi_preds @ general_preds with
        | [] -> Expr.Product (el, er)
        | preds -> Expr.Select (and_all preds, Expr.Product (el, er))
      in
      (node, paths)
  in
  go t

(* ------------------------------------------------------------------ *)
(* Pretty labels for EXPLAIN. *)

let leaf_label factors i =
  match factors.(i) with
  | Expr.Rel n -> n
  | Expr.Lit _ -> Printf.sprintf "lit%d" i
  | _ -> Printf.sprintf "e%d" i

let rec render_tree factors t =
  match t with
  | JLeaf i -> leaf_label factors i
  | JNode (l, r) ->
    Printf.sprintf "(%s ⋈ %s)" (render_tree factors l) (render_tree factors r)

let pp_report ppf r =
  Fmt.pf ppf
    "join [%s]@,  original: %s (est cost %.0f)@,  chosen:   %s (est cost %.0f, \
     est out %.0f)@,  reordered=%b pushdowns=%d semijoins=%d"
    (String.concat ", " r.leaves)
    r.original r.est_cost_original r.chosen r.est_cost_chosen r.est_out r.reordered
    r.pushdowns r.semijoins

let pp_reports ppf rs =
  if rs = [] then Fmt.pf ppf "plan: no joins planned@."
  else begin
    Fmt.pf ppf "== plan ==@.";
    List.iter (fun r -> Fmt.pf ppf "@[<v>%a@]@." pp_report r) rs
  end

(* ------------------------------------------------------------------ *)
(* The rewrite. *)

let rewrite t expr =
  if t.mode = Off then expr
  else begin
    let stats = t.stats in
    (* Plan one maximal Select/Product region. [proj], when set, is the
       leaf the enclosing Map keeps together with the rebased function —
       projection mode, where semijoin reducers become profitable and
       the enclosing Map replaces the root reshape. Returns [None] when
       planning declines (too few leaves, no conjuncts, or the defensive
       attachment check failed). *)
    let plan_region bound ~proj e walk =
      match e with
      | Expr.Select _ | Expr.Product _ -> (
        let factors, shape, conjs = flatten e in
        let n = Array.length factors in
        let conjs = List.filter (fun c -> c <> Pred.True) conjs in
        if n < 2 || conjs = [] || n > Sys.int_size - 2 then None
        else begin
          Obs.count "plan/region" 1;
          let classes = List.map (classify shape) conjs in
          let pushes =
            List.filter_map
              (fun c -> match c with Push (i, p) -> Some (i, p) | _ -> None)
              classes
          in
          let pushes_of i =
            List.filter_map (fun (j, p) -> if i = j then Some p else None) pushes
          in
          let equis =
            List.filter_map
              (fun c -> match c with Equi e -> Some e | _ -> None)
              classes
          in
          let generals =
            List.filter_map
              (fun c -> match c with General g -> Some g | _ -> None)
              classes
          in
          let base = Array.map (est_leaf t bound) factors in
          let eff =
            Array.mapi
              (fun i b ->
                let np = List.length (pushes_of i) in
                Cost.clamp
                  (b *. (Cost.pushdown_selectivity ** float_of_int np)))
              base
          in
          (* Semijoin reduction (projection mode): a leaf the projection
             discards, touched only by equi-conjuncts, shrinks to the set
             of its join keys when the sampled distinct count says that
             actually shrinks it. *)
          let reduced = ref [] in
          let equis = ref equis in
          let semijoins = ref 0 in
          (match proj with
          | None -> ()
          | Some (proj_leaf, _) ->
            for j = 0 to n - 1 do
              let involved =
                List.filter (fun eq -> eq.li = j || eq.ri = j) !equis
              in
              let in_general =
                List.exists (fun g -> List.mem j g.gleaves) generals
              in
              if j <> proj_leaf && involved <> [] && not in_general then begin
                let keys =
                  List.fold_left
                    (fun acc eq ->
                      let k = if eq.li = j then eq.lkey else eq.rkey in
                      if List.mem k acc then acc else acc @ [ k ])
                    [] involved
                in
                let dj =
                  List.fold_left
                    (fun acc k ->
                      Float.max acc
                        (distinct_of_key stats bound factors.(j) k base.(j)))
                    1. keys
                in
                let dj = Float.min dj eff.(j) in
                if dj <= Cost.semijoin_benefit *. eff.(j) then begin
                  let key_fun =
                    match keys with [ k ] -> k | ks -> Efun.Tuple_of ks
                  in
                  let accessor k =
                    match keys with
                    | [ _ ] -> Efun.Id
                    | ks ->
                      let rec idx n l =
                        match l with
                        | k' :: _ when k' = k -> n
                        | _ :: rest -> idx (n + 1) rest
                        | [] -> assert false
                      in
                      Efun.Proj (idx 1 ks)
                  in
                  equis :=
                    List.map
                      (fun eq ->
                        if eq.li = j then { eq with lkey = accessor eq.lkey }
                        else if eq.ri = j then { eq with rkey = accessor eq.rkey }
                        else eq)
                      !equis;
                  reduced := (j, key_fun) :: !reduced;
                  eff.(j) <- dj;
                  incr semijoins
                end
              end
            done);
          let equis = !equis in
          let edges =
            List.map
              (fun eq ->
                let dl =
                  distinct_of_key stats bound factors.(eq.li) eq.lkey base.(eq.li)
                and dr =
                  distinct_of_key stats bound factors.(eq.ri) eq.rkey base.(eq.ri)
                in
                (bit eq.li lor bit eq.ri, Cost.equi_selectivity ~dl ~dr))
              equis
          in
          let syntactic = jtree_of_shape shape in
          let chosen =
            if n <= dp_max_leaves then dp_order ~eff ~edges n
            else greedy_order ~eff ~edges n
          in
          (* A reordered region outside a projection pays a final reshape
             [Map] over the whole result; keep the syntactic order unless
             the searched one still wins with that charged. *)
          let chosen =
            if jtree_equals_shape chosen shape then chosen
            else begin
              let reshape =
                match proj with
                | Some _ -> 0.
                | None ->
                  Cost.reshape_weight *. est_set ~eff ~edges ((1 lsl n) - 1)
              in
              if
                tree_cost ~eff ~edges chosen +. reshape
                >= tree_cost ~eff ~edges syntactic
              then syntactic
              else chosen
            end
          in
          let walked = Array.map (walk bound) factors in
          let attach_count = ref 0 in
          let region =
            { factors = walked;
              pushes;
              equis;
              generals;
              reduced = !reduced;
              attach_count }
          in
          let root, paths = build_tree region chosen in
          if !attach_count <> List.length conjs then begin
            (* Defensive: every conjunct must have attached exactly once.
               A miscount means a planner bug — decline the rewrite, the
               unplanned expression is always correct. *)
            Obs.count "plan/bailout" 1;
            None
          end
          else begin
            let same_order = jtree_equals_shape chosen shape in
            let result =
              match proj with
              | Some (proj_leaf, g) ->
                Some (Expr.Map (Join.compose g (List.assoc proj_leaf paths), root))
              | None ->
                if same_order then Some root
                else Some (Expr.Map (reshape_of paths shape, root))
            in
            if not same_order then Obs.count "plan/reorder" 1;
            if !semijoins > 0 then Obs.count "plan/semijoin" !semijoins;
            if pushes <> [] then Obs.count "plan/pushdown" (List.length pushes);
            let report =
              { leaves = List.init n (leaf_label factors);
                original = render_tree factors syntactic;
                chosen = render_tree factors chosen;
                est_cost_original = tree_cost ~eff ~edges syntactic;
                est_cost_chosen = tree_cost ~eff ~edges chosen;
                est_out = est_set ~eff ~edges ((1 lsl n) - 1);
                semijoins = !semijoins;
                pushdowns = List.length pushes;
                reordered = not same_order }
            in
            (* The advice rewrite hook replans the same region once per
               evaluation pass; keep one report per distinct region. *)
            if not (List.mem report !(t.reports)) then
              t.reports := report :: !(t.reports);
            result
          end
        end)
      | _ -> None
    in
    let rec walk bound e =
      match e with
      | Expr.Rel _ | Expr.Lit _ | Expr.Param _ -> e
      | Expr.Union (a, b) -> Expr.Union (walk bound a, walk bound b)
      | Expr.Diff (a, b) -> Expr.Diff (walk bound a, walk bound b)
      | Expr.Map (f, a) -> (
        let fallback () = Expr.Map (f, walk bound a) in
        match a with
        | Expr.Select _ | Expr.Product _ -> (
          let _, shape, _ = flatten a in
          match locate shape f with
          | Some (leaf, g) -> (
            match plan_region bound ~proj:(Some (leaf, g)) a walk with
            | Some e' -> e'
            | None -> fallback ())
          | None -> fallback ())
        | _ -> fallback ())
      | Expr.Select (p, a) -> (
        match plan_region bound ~proj:None e walk with
        | Some e' -> e'
        | None -> Expr.Select (p, walk bound a))
      | Expr.Product (a, b) -> (
        match plan_region bound ~proj:None e walk with
        | Some e' -> e'
        | None -> Expr.Product (walk bound a, walk bound b))
      | Expr.Ifp (x, body) -> Expr.Ifp (x, walk (x :: bound) body)
      | Expr.Call (name, args) -> Expr.Call (name, List.map (walk bound) args)
    in
    walk [] expr
  end

(* ------------------------------------------------------------------ *)
(* Mid-fixpoint re-planning. Called by the fixpoint engines at round
   boundaries with lazy cardinality thunks for the bound relations. The
   plan currently running was built against an estimate for each bound
   relation ([bound_cards] entry if we re-planned before, the default
   card otherwise); when an observed cardinality drifts beyond
   [drift_threshold] in either direction, the observed values are
   installed as estimation overrides and the body is re-planned. The
   result is advice like any other — result-exact by the rewrite's
   contract — so live re-planning can change enumeration cost only,
   never answers. [Off] returns [None] without forcing a thunk. *)

let refresh t ~bound body =
  if t.mode = Off then None
  else begin
    let observed = List.map (fun (n, cardf) -> (n, cardf ())) bound in
    let drifted =
      List.exists
        (fun (n, obs) ->
          let est =
            match Hashtbl.find_opt t.bound_cards n with
            | Some c -> float_of_int c
            | None -> Cost.default_card
          in
          let obs = Float.max 1. (float_of_int obs) in
          let est = Float.max 1. est in
          Float.max (obs /. est) (est /. obs) >= drift_threshold)
        observed
    in
    if not drifted then None
    else begin
      Obs.count "plan/drift" 1;
      List.iter
        (fun (n, c) -> Hashtbl.replace t.bound_cards n (max 1 c))
        observed;
      let body' = rewrite t body in
      if Expr.equal body' body then None
      else begin
        Obs.count "plan/replan" 1;
        Some body'
      end
    end
  end

let advice t =
  if t.mode = Off then Advice.none
  else
    { Advice.none with
      rewrite = (fun e -> rewrite t e);
      refresh = (fun ~bound body -> refresh t ~bound body) }
