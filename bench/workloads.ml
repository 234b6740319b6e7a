(* Workload generators shared by the experiments: game graphs, edge
   relations, and the standard queries of the paper's examples. *)

open Recalg

let vi = Value.int

(* --- graphs as edge lists over integer nodes --- *)

let chain n = List.init n (fun i -> (i, i + 1))

let cycle n = List.init n (fun i -> (i, (i + 1) mod n))

(* Deterministic pseudo-random graph (linear congruential) so benches are
   reproducible without touching global Random state. *)
let random_graph ~nodes ~edges ~seed =
  let state = ref seed in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  List.init edges (fun _ ->
      let a = next () mod nodes in
      let b = next () mod nodes in
      (a, b))
  |> List.sort_uniq compare

(* Balanced binary tree on nodes 0..n-1 (edges parent -> child): the
   interesting workload for same-generation, where a chain would be
   trivial. *)
let tree n =
  List.concat
    (List.init n (fun i ->
         List.filter (fun (_, c) -> c < n) [ (i, (2 * i) + 1); (i, (2 * i) + 2) ]))

(* Chains with a cyclic tail: positions 0..n/2 acyclic, rest on a cycle —
   mixes defined and undefined WIN statuses. *)
let half_cyclic n =
  let half = max 1 (n / 2) in
  chain half @ List.map (fun (a, b) -> (a + half, b + half)) (cycle (n - half))

let edb_of ~pred edges =
  List.fold_left
    (fun edb (a, b) -> Datalog.Edb.add pred [ vi a; vi b ] edb)
    Datalog.Edb.empty edges

let db_of ~rel edges =
  Algebra.Db.of_list [ (rel, List.map (fun (a, b) -> Value.pair (vi a) (vi b)) edges) ]

(* --- standard queries --- *)

let win_program = fst (Datalog.Parser.parse_exn "win(X) :- move(X,Y), not win(Y).")

(* The unfounded-set chain over [s = chain n]: b(0) and, for i = 1 … n,
   a(i) :- a(i), a(i) :- not b(i-1) and b(i) :- not a(i). Each a(i) is
   false only as an unfounded set, once b(i-1) is true. *)
let unfounded_chain n =
  let program, edb =
    Datalog.Parser.parse_exn
      "b(0). a(I) :- s(J, I), a(I). a(I) :- s(J, I), not b(J). \
       b(I) :- s(J, I), not a(I)."
  in
  (program, Datalog.Edb.union edb (edb_of ~pred:"s" (chain n)))

let tc_program =
  fst (Datalog.Parser.parse_exn "t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z).")

let compose a b =
  Algebra.Expr.(
    map
      (Algebra.Efun.Tuple_of
         [ Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 1);
           Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 2) ])
      (select
         (Algebra.Pred.Eq
            ( Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 1),
              Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 2) ))
         (product a b)))

let tc_body x = Algebra.Expr.(union (rel "edge") (compose (rel "edge") x))
let tc_ifp = Algebra.Expr.(ifp "x" (tc_body (rel "x")))
let tc_defs = Algebra.Defs.make [ Algebra.Defs.constant "tc" (tc_body (Algebra.Expr.rel "tc")) ]

(* Swap each pair. *)
let inverse e =
  Algebra.Expr.map
    (Algebra.Efun.Tuple_of [ Algebra.Efun.Proj 2; Algebra.Efun.Proj 1 ])
    e

(* --- wide strata: k independent transitive closures --- *)

(* [k] mutually independent TC programs t1..tk over disjoint edge
   relations e1..ek. Stratification puts all the [ti] in one stratum
   (equal height), but the dependency graph splits it into [k]
   components — the workload the component-parallel stratified driver
   and {!Translate.Stratified_to_ifp.eval_all} fan out over. *)
let wide_strata_program k =
  let rules =
    String.concat " "
      (List.init k (fun i ->
           let t = Printf.sprintf "t%d" (i + 1)
           and e = Printf.sprintf "e%d" (i + 1) in
           Printf.sprintf "%s(X,Y) :- %s(X,Y). %s(X,Z) :- %s(X,Y), %s(Y,Z)."
             t e t e t))
  in
  fst (Datalog.Parser.parse_exn rules)

(* Each relation e1..ek holds its own [chain n] on disjoint nodes. *)
let wide_strata_edb k n =
  List.fold_left
    (fun edb i ->
      let pred = Printf.sprintf "e%d" (i + 1) in
      List.fold_left
        (fun edb (a, b) ->
          let off x = vi ((1000 * i) + x) in
          Datalog.Edb.add pred [ off a; off b ] edb)
        edb (chain n))
    Datalog.Edb.empty (List.init k Fun.id)

(* --- one component: six recursive rules in one stratum --- *)

(* [t(X, Y) :- e0(X, Y).] plus [t(X, Z) :- ei(X, Y), t(Y, Z).] for
   i = 0..5: one stratum holding one component, so the only parallel
   work it offers is inside its semi-naive rounds. *)
let one_component_program =
  fst
    (Datalog.Parser.parse_exn
       ("t(X, Y) :- e0(X, Y). "
       ^ String.concat " "
           (List.init 6 (fun i -> Printf.sprintf "t(X, Z) :- e%d(X, Y), t(Y, Z)." i))))

(* Six random relations e0..e5 of up to [edges] edges on [nodes] nodes. *)
let one_component_edb ~nodes ~edges =
  List.fold_left
    (fun edb i ->
      List.fold_left
        (fun edb (a, b) -> Datalog.Edb.add (Printf.sprintf "e%d" i) [ vi a; vi b ] edb)
        edb
        (random_graph ~nodes ~edges ~seed:(i + 1)))
    Datalog.Edb.empty (List.init 6 Fun.id)

(* Same-generation over "edge" (parent -> child): base case pairs every
   node with itself, recursion goes up one edge, across sg, down one
   edge — sg(x,y) :- e(xp,x), sg(xp,yp), e(yp,y). *)
let sg_body x =
  let open Algebra.Expr in
  let nodes = union (pi 1 (rel "edge")) (pi 2 (rel "edge")) in
  let base = map (Algebra.Efun.Tuple_of [ Algebra.Efun.Id; Algebra.Efun.Id ]) nodes in
  union base (compose (compose (inverse (rel "edge")) x) (rel "edge"))

let sg_ifp = Algebra.Expr.(ifp "x" (sg_body (rel "x")))
