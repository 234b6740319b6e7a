(* Shared QCheck generators: random graphs, random safe programs, random
   algebra expressions — the instance families the equivalence theorems
   are exercised on. *)

open Recalg

(* CI knob: the incremental-equivalence job elevates QCheck iteration
   counts via RECALG_QCHECK_COUNT without patching the test sources. *)
let qcount default =
  match Sys.getenv_opt "RECALG_QCHECK_COUNT" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> max default n
    | Some _ | None -> default)
  | None -> default

let node_names = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

(* A random directed graph over up to [n] named nodes, as an edge list. *)
let graph_gen ?(max_nodes = 6) ?(max_edges = 10) () =
  QCheck.Gen.(
    let* n = int_range 1 max_nodes in
    let nodes = List.filteri (fun i _ -> i < n) node_names in
    let* m = int_range 0 max_edges in
    let edge = pair (oneofl nodes) (oneofl nodes) in
    let* edges = list_size (return m) edge in
    return (List.sort_uniq compare edges))

let graph_arb = QCheck.make ~print:(fun edges ->
    String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) edges))
    (graph_gen ())

let move_edb edges =
  List.fold_left
    (fun edb (a, b) -> Datalog.Edb.add "move" [ Value.sym a; Value.sym b ] edb)
    Datalog.Edb.empty edges

let edge_edb edges =
  List.fold_left
    (fun edb (a, b) -> Datalog.Edb.add "edge" [ Value.sym a; Value.sym b ] edb)
    Datalog.Edb.empty edges

(* Random safe (range-restricted by construction) programs over a fixed
   EDB relation e/2 and IDB predicates p, q, r (all unary or binary).
   Bodies start with a positive e-atom binding the variables; extra
   literals may negate IDB predicates — non-stratified programs arise
   freely. *)
type rand_rule = {
  head : string * int;  (* predicate, arity (1 or 2) *)
  first : [ `Fwd | `Bwd ];  (* e(X,Y) or e(Y,X) *)
  extra : (bool * string * int) list;  (* positive?, predicate, arity *)
}

let idb_preds = [ ("p", 1); ("q", 1); ("r", 2) ]

let rand_rule_gen =
  QCheck.Gen.(
    let* head = oneofl idb_preds in
    let* first = oneofl [ `Fwd; `Bwd ] in
    let* n_extra = int_range 0 2 in
    let* extra =
      list_size (return n_extra)
        (triple bool (oneofl [ "p"; "q"; "r" ]) (return 0))
    in
    let extra = List.map (fun (pos, p, _) -> (pos, p, List.assoc p idb_preds)) extra in
    return { head; first; extra })

let program_of_rand_rules rules =
  let x = Datalog.Dterm.var "X"
  and y = Datalog.Dterm.var "Y" in
  let args_of arity = if arity = 1 then [ x ] else [ x; y ] in
  let to_rule r =
    let first =
      match r.first with
      | `Fwd -> Datalog.Literal.pos "e" [ x; y ]
      | `Bwd -> Datalog.Literal.pos "e" [ y; x ]
    in
    let extras =
      List.map
        (fun (positive, p, arity) ->
          let atom_args = if arity = 1 then [ y ] else [ y; x ] in
          if positive then Datalog.Literal.pos p atom_args
          else Datalog.Literal.neg p atom_args)
        r.extra
    in
    let pred, arity = r.head in
    Datalog.Rule.make (Datalog.Literal.atom pred (args_of arity)) (first :: extras)
  in
  Datalog.Program.make (List.map to_rule rules)

let rand_program_gen =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    let* rules = list_size (return n) rand_rule_gen in
    return (program_of_rand_rules rules))

(* Random negation-free programs over e/2 on the integers 0..3, so every
   batch that deletes runs DRed, with the head shapes DRed must bind an
   overdeleted fact to: besides variables, a constant, a repeated
   variable, a free-constructor term f(X) and an interpreted term
   add(X, 1). A body starts with e(X, Y) or e(Y, X), may go on with an
   [=] literal (X = Y, Z = add(X, Y) or Z = f(Y)) and with r(Y, W),
   which binds W from a derived relation, and may end with a filter over
   p, q or r. Only variables bound by e, which is extensional, enter a
   term that builds a value: no interpreted head term takes a value a
   recursive relation bound, so every value a program derives comes from
   a finite set and every generated program stays finite. *)
let head_shape_rule_gen =
  QCheck.Gen.(
    let open Datalog in
    let x = Dterm.var "X" and y = Dterm.var "Y" in
    let z = Dterm.var "Z" and w = Dterm.var "W" in
    let* first = oneofl [ Literal.pos "e" [ x; y ]; Literal.pos "e" [ y; x ] ] in
    let* eq =
      oneofl
        [ None;
          Some (Literal.eq x y, []);
          Some (Literal.eq z (Dterm.app "add" [ x; y ]), [ z ]);
          Some (Literal.eq z (Dterm.app "f" [ y ]), [ z ]) ]
    in
    let* join = bool in
    let* filter =
      oneofl
        [ []; [ Literal.pos "p" [ y ] ]; [ Literal.pos "q" [ x ] ];
          [ Literal.pos "r" [ y; x ] ] ]
    in
    let bound =
      [ x; y ]
      @ (match eq with Some (_, zs) -> zs | None -> [])
      @ if join then [ w ] else []
    in
    let arg =
      frequency
        [ (4, oneofl bound);
          (1, return (Dterm.int 2));
          (1, return (Dterm.app "f" [ x ]));
          (1, return (Dterm.app "add" [ x; Dterm.int 1 ])) ]
    in
    let* pred, arity = oneofl idb_preds in
    let* args =
      if arity = 1 then map (fun a -> [ a ]) arg
      else
        frequency
          [ (3, list_size (return 2) arg); (1, map (fun a -> [ a; a ]) (oneofl bound)) ]
    in
    let body =
      (first :: (match eq with Some (l, _) -> [ l ] | None -> []))
      @ (if join then [ Literal.pos "r" [ y; w ] ] else [])
      @ filter
    in
    return (Rule.make (Literal.atom pred args) body))

let head_shape_program_gen =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    map Datalog.Program.make (list_size (return n) head_shape_rule_gen))

let rand_program_arb =
  QCheck.make
    ~print:(fun p -> Datalog.Program.to_string p)
    rand_program_gen

let rand_instance_arb =
  QCheck.make
    ~print:(fun (p, edges) ->
      Datalog.Program.to_string p ^ " | "
      ^ String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) edges))
    QCheck.Gen.(pair rand_program_gen (graph_gen ~max_nodes:4 ~max_edges:6 ()))

let e_edb edges =
  List.fold_left
    (fun edb (a, b) -> Datalog.Edb.add "e" [ Value.sym a; Value.sym b ] edb)
    Datalog.Edb.empty edges

(* Random small value sets over integers, for algebra-identity properties. *)
let small_set_gen =
  QCheck.Gen.(
    let* elems = list_size (int_range 0 8) (int_range 0 6) in
    return (Value.set (List.map Value.int elems)))

let small_set_arb = QCheck.make ~print:Value.to_string small_set_gen

let triple_sets_arb =
  QCheck.make
    ~print:(fun (a, b, c) ->
      Fmt.str "%a %a %a" Value.pp a Value.pp b Value.pp c)
    QCheck.Gen.(triple small_set_gen small_set_gen small_set_gen)

(* Random non-recursive algebra expressions over two unary integer
   relations d1, d2 — the instance family for the Proposition 5.4
   equivalence property. *)
let algebra_db =
  Algebra.Db.of_list
    [
      ("d1", List.map Value.int [ 0; 1; 2; 3 ]);
      ("d2", List.map Value.int [ 2; 3; 4 ]);
    ]

let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return (Algebra.Expr.rel "d1");
        return (Algebra.Expr.rel "d2");
        (let* elems = list_size (int_range 0 3) (int_range 0 5) in
         return (Algebra.Expr.lit (List.map Value.int elems)));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 2,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            return (Algebra.Expr.union a b) );
          ( 2,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            return (Algebra.Expr.diff a b) );
          ( 1,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            return (Algebra.Expr.product a b) );
          ( 2,
            let* a = node (depth - 1) in
            let* k = int_range 0 4 in
            return
              (Algebra.Expr.select
                 (Algebra.Pred.Lt (Algebra.Efun.Id, Algebra.Efun.Const (Value.int k)))
                 a) );
          ( 2,
            let* a = node (depth - 1) in
            let* k = int_range 0 3 in
            return (Algebra.Expr.map (Algebra.Efun.add_const k) a) );
          (* An equi-join, bare or projected: [pi1] and [pi2] make it a
             semijoin, [[pi2, pi1]] maps each pair. Joined on whole
             elements, each side's element is the other's, so a second
             key, [lt(pi1, 3) = lt(pi2, 3)], joins many to many: a
             removed pair's image can then stay in the [MAP]. *)
          ( 2,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            let* whole = bool in
            let* f =
              oneofl
                Algebra.Efun.
                  [ None; Some (Proj 1); Some (Proj 2);
                    Some (Tuple_of [ Proj 2; Proj 1 ]) ]
            in
            let side i =
              if whole then Algebra.Efun.Proj i
              else Algebra.Efun.(App ("lt", [ Proj i; Const (Value.int 3) ]))
            in
            let joined =
              Algebra.Expr.select
                (Algebra.Pred.Eq (side 1, side 2))
                (Algebra.Expr.product a b)
            in
            return (match f with Some f -> Algebra.Expr.map f joined | None -> joined) );
        ]
  in
  node 3

let expr_arb = QCheck.make ~print:Algebra.Expr.to_string expr_gen

(* Random recursive bodies over the binary relation "edge" and the
   fixpoint variable "x" — the instance family for the semi-naive/naive
   engine equivalence. Every operator maps pair-sets over the node
   symbols to pair-sets over the node symbols, so fixpoints live in a
   finite universe; difference and intersection place "x" under a Diff
   right-hand side, exercising the difference rule's read of the other
   bound's change alongside the distributive operators. *)
let compose_key =
  Algebra.Pred.Eq
    ( Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 1),
      Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 2) )

let compose_map =
  Algebra.Efun.Tuple_of
    [ Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 1);
      Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 2) ]

let compose_expr a b = Algebra.Expr.(map compose_map (select compose_key (product a b)))

(* The composition's join projected onto one side, a semijoin: the pairs
   of [a] that continue in [b] ([pi1]), or those of [b] that [a] reaches
   ([pi2]). *)
let semijoin_expr i a b =
  Algebra.Expr.(map (Algebra.Efun.Proj i) (select compose_key (product a b)))

(* The composition with a residual conjunct beside its key: no pair
   returns to where it started. *)
let compose_residual_expr a b =
  let loop =
    Algebra.Pred.Eq
      ( Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 1),
        Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 2) )
  in
  Algebra.Expr.(
    map compose_map
      (select (Algebra.Pred.And (compose_key, Algebra.Pred.Not loop)) (product a b)))

let ifp_body_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (3, return (Algebra.Expr.rel "edge"));
        (3, return (Algebra.Expr.rel "x"));
        ( 1,
          let* pairs =
            list_size (int_range 0 2) (pair (oneofl node_names) (oneofl node_names))
          in
          return
            (Algebra.Expr.lit
               (List.map
                  (fun (a, b) -> Value.pair (Value.sym a) (Value.sym b))
                  pairs)) ) ]
  in
  let swap = Algebra.Efun.Tuple_of [ Algebra.Efun.Proj 2; Algebra.Efun.Proj 1 ] in
  let self_loop = Algebra.Pred.Eq (Algebra.Efun.Proj 1, Algebra.Efun.Proj 2) in
  let rec node depth =
    if depth = 0 then leaf
    else
      let sub = node (depth - 1) in
      frequency
        [ (2, leaf);
          (3, map2 Algebra.Expr.union sub sub);
          (2, map2 compose_expr sub sub);
          (1, map2 (semijoin_expr 1) sub sub);
          (1, map2 (semijoin_expr 2) sub sub);
          (1, map2 compose_residual_expr sub sub);
          (2, map2 Algebra.Expr.diff sub sub);
          (1, map2 Algebra.Expr.inter sub sub);
          (1, map (Algebra.Expr.map swap) sub);
          (1, map (Algebra.Expr.select (Algebra.Pred.Not self_loop)) sub) ]
  in
  node 3

let ifp_body_arb = QCheck.make ~print:Algebra.Expr.to_string ifp_body_gen

(* Random deep values over every constructor — the instance family for
   the hash-consing kernel properties. *)
let deep_value_gen =
  QCheck.Gen.(
    let leaf =
      oneof
        [ map Value.int (int_range (-3) 6);
          map Value.str (oneofl [ "s"; "t"; "a\"b\\" ]);
          map Value.bool bool;
          map Value.sym (oneofl [ "a"; "b"; "c" ]) ]
    in
    let rec node depth =
      if depth = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (2, map Value.tuple (list_size (int_range 0 3) (node (depth - 1))));
            (2, map Value.set (list_size (int_range 0 3) (node (depth - 1))));
            ( 2,
              let* f = oneofl [ "f"; "g"; "succ" ] in
              let* args = list_size (int_range 0 2) (node (depth - 1)) in
              return (Value.cstr f args) ) ]
    in
    node 4)

let deep_value_arb = QCheck.make ~print:Value.to_string deep_value_gen

(* The printer [Value.pp] replaced: an [h] box per tuple, set and
   constructor value, with [Fmt.comma] between elements. [Value.pp] must
   lay out exactly like it inside any enclosing box. *)
let rec reference_pp ppf v =
  let elems = Fmt.(list ~sep:comma reference_pp) in
  match Value.node v with
  | Value.Int x -> Fmt.int ppf x
  | Value.Str s -> Fmt.pf ppf "%S" s
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Sym s -> Fmt.string ppf s
  | Value.Tuple xs -> Fmt.pf ppf "@[<h>[%a]@]" elems xs
  | Value.Set xs -> Fmt.pf ppf "@[<h>{%a}@]" elems xs
  | Value.Cstr (f, xs) -> Fmt.pf ppf "@[<h>%s(%a)@]" f elems xs

(* Random Z-sets over small integer values, weights in [-3, 3] summed
   entry by entry — the instance family for the Z-set group laws. *)
let zset_gen =
  QCheck.Gen.(
    let* entries =
      list_size (int_range 0 8) (pair (int_range 0 6) (int_range (-3) 3))
    in
    return
      (List.fold_left
         (fun z (v, w) -> Zset.add z (Zset.singleton ~weight:w (Value.int v)))
         Zset.empty entries))

let zset_to_string z = Fmt.str "%a" Zset.pp z
let zset_arb = QCheck.make ~print:zset_to_string zset_gen

let zset_triple_arb =
  QCheck.make
    ~print:(fun (a, b, c) ->
      Fmt.str "%s %s %s" (zset_to_string a) (zset_to_string b) (zset_to_string c))
    QCheck.Gen.(triple zset_gen zset_gen zset_gen)

(* --- instances for the three-valued solver --- *)

(* A random ground program over 2–13 nullary atoms a0, a1, …, as text
   for the parser and grounder: up to 3 positive and 3 negative literals
   per rule, so positive cycles and undefined atoms are common. *)
let ground_program_gen =
  QCheck.Gen.(
    let* k = int_range 2 13 in
    let atom = map (Printf.sprintf "a%d") (int_bound (k - 1)) in
    let rule =
      let* head = atom in
      let* pos = list_size (int_bound 3) atom in
      let* neg = list_size (int_bound 3) atom in
      return
        (match pos @ List.map (( ^ ) "not ") neg with
        | [] -> head ^ "."
        | body -> head ^ " :- " ^ String.concat ", " body ^ ".")
    in
    let* rules = list_size (int_range 1 (2 * k)) rule in
    return (String.concat "\n" rules))

let ground_program_arb = QCheck.make ~print:Fun.id ground_program_gen

let int_edb pred pairs =
  List.fold_left
    (fun edb (a, b) -> Datalog.Edb.add pred [ Value.int a; Value.int b ] edb)
    Datalog.Edb.empty pairs

let int_chain n = List.init n (fun i -> (i, i + 1))

let win_program = fst (Datalog.Parser.parse_exn "win(X) :- move(X, Y), not win(Y).")

(* The WIN game on a chain of [n] moves, 0 -> 1 -> … -> n: propagation
   decides it, where the Section 2.2 iteration takes about n/2 rounds. *)
let win_chain n = (win_program, int_edb "move" (int_chain n))

(* The left-linear reach chain of [n] edges, as program text: reach(0),
   edge(i, i+1) for i < n, and reach(Y) :- reach(X), edge(X, Y). Each
   round derives one [reach] fact, so the grounder runs n + 1 rounds. *)
let reach_chain n =
  String.concat "\n"
    (("reach(0)." :: List.init n (fun i -> Printf.sprintf "edge(%d, %d)." i (i + 1)))
    @ [ "reach(Y) :- reach(X), edge(X, Y)." ])

(* [n] predicates [f0] … [f(n-1)] of one fact each, [fi(i)], as program
   text. *)
let one_fact_preds n =
  String.concat "\n" (List.init n (fun i -> Printf.sprintf "f%d(%d)." i i))

(* The unfounded-set chain: b(0) and, for i = 1 … n, a(i) :- a(i),
   a(i) :- not b(i-1) and b(i) :- not a(i). Each a(i) is false only as
   an unfounded set, and only once b(i-1) is true: one pass per
   component, where a search over the whole program costs a whole
   program each time. *)
let unfounded_chain n =
  let program, edb =
    Datalog.Parser.parse_exn
      "b(0). a(I) :- s(J, I), a(I). a(I) :- s(J, I), not b(J). \
       b(I) :- s(J, I), not a(I)."
  in
  (program, Datalog.Edb.union edb (int_edb "s" (int_chain n)))
