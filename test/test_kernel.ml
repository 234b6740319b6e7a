(* Kernel tests: values, three-valued logic, bitsets, interner, limits. *)

open Recalg

let check_value = Alcotest.testable Value.pp Value.equal
let check_tvl = Alcotest.testable Tvl.pp Tvl.equal

let vset = Value.set
let vi = Value.int

(* --- Value --- *)

let test_set_canonical () =
  Alcotest.check check_value "duplicates merged"
    (vset [ vi 1; vi 2 ])
    (vset [ vi 2; vi 1; vi 2; vi 1 ]);
  Alcotest.check check_value "order irrelevant" (vset [ vi 1; vi 2; vi 3 ])
    (vset [ vi 3; vi 1; vi 2 ])

let test_set_nested () =
  (* Sets of sets canonicalise deeply: {{1,2}} = {{2,1}}. *)
  Alcotest.check check_value "nested sets"
    (vset [ vset [ vi 1; vi 2 ] ])
    (vset [ vset [ vi 2; vi 1 ] ])

let test_union_inter_diff () =
  let a = vset [ vi 1; vi 2; vi 3 ]
  and b = vset [ vi 2; vi 3; vi 4 ] in
  Alcotest.check check_value "union" (vset [ vi 1; vi 2; vi 3; vi 4 ]) (Value.union a b);
  Alcotest.check check_value "inter" (vset [ vi 2; vi 3 ]) (Value.inter a b);
  Alcotest.check check_value "diff" (vset [ vi 1 ]) (Value.diff a b);
  Alcotest.check check_value "diff other way" (vset [ vi 4 ]) (Value.diff b a)

let test_product () =
  let a = vset [ vi 1; vi 2 ]
  and b = vset [ vi 3 ] in
  Alcotest.check check_value "product"
    (vset [ Value.pair (vi 1) (vi 3); Value.pair (vi 2) (vi 3) ])
    (Value.product a b);
  Alcotest.check check_value "product with empty" Value.empty_set
    (Value.product a Value.empty_set)

let test_product_canonical () =
  (* [product] builds its result directly (no re-sort pass); assert the
     representation is nevertheless canonical: strictly sorted and equal
     to what [Value.set] would build from the same pairs. *)
  let a = vset [ vi 2; vi 1; vi 3 ]
  and b = vset [ Value.str "y"; Value.str "x" ] in
  let p = Value.product a b in
  let strictly_sorted xs =
    let rec go xs =
      match xs with
      | [] | [ _ ] -> true
      | x :: (y :: _ as rest) -> Value.compare x y < 0 && go rest
    in
    go xs
  in
  Alcotest.(check bool) "strictly sorted" true (strictly_sorted (Value.elements p));
  Alcotest.check check_value "equals canonicalised pairs"
    (Value.set (Value.elements p))
    p

let test_union_all () =
  let sets = List.init 9 (fun i -> vset [ vi i; vi (i + 1); vi 100 ]) in
  let expected = List.fold_left Value.union Value.empty_set sets in
  Alcotest.check check_value "balanced merge equals fold" expected
    (Value.union_all sets);
  Alcotest.check check_value "empty list" Value.empty_set (Value.union_all []);
  Alcotest.check check_value "singleton list" (vset [ vi 7 ])
    (Value.union_all [ vset [ vi 7 ] ]);
  Alcotest.check_raises "non-set rejected"
    (Invalid_argument "Value.union: expected a set value") (fun () ->
      ignore (Value.union_all [ vi 1 ]))

let test_mem_subset () =
  let a = vset [ vi 1; vi 2 ] in
  Alcotest.(check bool) "mem yes" true (Value.mem (vi 1) a);
  Alcotest.(check bool) "mem no" false (Value.mem (vi 5) a);
  Alcotest.(check bool) "subset yes" true (Value.subset (vset [ vi 1 ]) a);
  Alcotest.(check bool) "subset no" false (Value.subset (vset [ vi 3 ]) a);
  Alcotest.(check bool) "empty subset" true (Value.subset Value.empty_set a)

let test_proj () =
  let t = Value.tuple [ vi 10; vi 20 ] in
  Alcotest.(check (option (module struct
    type t = Value.t

    let pp = Value.pp
    let equal = Value.equal
  end)))
    "proj 1" (Some (vi 10)) (Value.proj 1 t);
  Alcotest.(check bool) "proj out of range" true (Value.proj 3 t = None);
  Alcotest.(check bool) "proj of non-tuple" true (Value.proj 1 (vi 5) = None)

let test_compare_total_order () =
  (* compare is a total order consistent with equal. *)
  let vals =
    [ vi 0; Value.str "x"; Value.bool true; Value.sym "a";
      Value.tuple [ vi 1 ]; vset [ vi 1 ]; Value.cstr "f" [ vi 1 ] ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Value.compare a b
          and ba = Value.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare ab 0 = compare 0 ba))
        vals)
    vals

let test_set_type_errors () =
  Alcotest.check_raises "union of non-set" (Invalid_argument "Value.union: expected a set value")
    (fun () -> ignore (Value.union (vi 1) Value.empty_set))

(* --- Value properties --- *)

let prop_union_commutative =
  QCheck.Test.make ~name:"union commutative" ~count:200
    QCheck.(pair Tgen.small_set_arb Tgen.small_set_arb)
    (fun (a, b) -> Value.equal (Value.union a b) (Value.union b a))

let prop_union_associative =
  QCheck.Test.make ~name:"union associative" ~count:200 Tgen.triple_sets_arb
    (fun (a, b, c) ->
      Value.equal
        (Value.union a (Value.union b c))
        (Value.union (Value.union a b) c))

let prop_diff_inter_demorgan =
  QCheck.Test.make ~name:"a - (a - b) = a ∩ b (Example 3 intersection)" ~count:200
    QCheck.(pair Tgen.small_set_arb Tgen.small_set_arb)
    (fun (a, b) -> Value.equal (Value.diff a (Value.diff a b)) (Value.inter a b))

let prop_diff_empty =
  QCheck.Test.make ~name:"a - a = {}" ~count:100 Tgen.small_set_arb (fun a ->
      Value.equal (Value.diff a a) Value.empty_set)

let prop_product_cardinality =
  QCheck.Test.make ~name:"|a x b| = |a| * |b|" ~count:200
    QCheck.(pair Tgen.small_set_arb Tgen.small_set_arb)
    (fun (a, b) ->
      Value.cardinal (Value.product a b) = Value.cardinal a * Value.cardinal b)

let prop_product_canonical =
  QCheck.Test.make ~name:"product result is canonical" ~count:200
    QCheck.(pair Tgen.small_set_arb Tgen.small_set_arb)
    (fun (a, b) ->
      let p = Value.product a b in
      Value.equal p (Value.set (Value.elements p)))

let prop_union_all_fold =
  QCheck.Test.make ~name:"union_all = fold union" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 8) Tgen.small_set_arb)
    (fun sets ->
      Value.equal (Value.union_all sets)
        (List.fold_left Value.union Value.empty_set sets))

let prop_mem_union =
  QCheck.Test.make ~name:"mem distributes over union" ~count:200
    QCheck.(triple Tgen.small_set_arb Tgen.small_set_arb (int_range 0 6))
    (fun (a, b, n) ->
      let x = vi n in
      Value.mem x (Value.union a b) = (Value.mem x a || Value.mem x b))

(* --- Hash-consing kernel --- *)

let test_stats () =
  (* Index one set first, so the reset has a membership count to zero. *)
  let warm = Value.set (List.init 20 (fun i -> Value.cstr "stats_warm" [ vi i ])) in
  ignore (Value.mem (vi 0) warm);
  ignore (Value.mem (vi 0) warm);
  Value.Stats.reset_counters ();
  let s0 = Value.Stats.snapshot () in
  Alcotest.(check int) "counters reset" 0 (s0.Value.Stats.hits + s0.Value.Stats.misses);
  let v = Value.cstr "stats_probe" [ vi 1; vi 2 ] in
  let s1 = Value.Stats.snapshot () in
  Alcotest.(check bool) "construction counted" true (s1.Value.Stats.hits + s1.Value.Stats.misses > 0);
  let v' = Value.cstr "stats_probe" [ vi 1; vi 2 ] in
  let s2 = Value.Stats.snapshot () in
  Alcotest.(check bool) "rebuild answered from the table" true
    (s2.Value.Stats.hits > s1.Value.Stats.hits);
  Alcotest.(check bool) "physically shared" true (v == v');
  Alcotest.(check bool) "live nodes positive" true (s2.Value.Stats.live > 0);
  Alcotest.(check bool) "ids stamped covers live" true
    (s2.Value.Stats.total_ids >= s2.Value.Stats.live);
  Alcotest.(check int) "membership counters reset" 0
    (s0.Value.Stats.mem_indexed + s0.Value.Stats.mem_declined);
  let big = Value.set (List.init 40 (fun i -> Value.cstr "stats_probe" [ vi i ])) in
  ignore (Value.mem v big);
  let s3 = Value.Stats.snapshot () in
  Alcotest.(check int) "first probe builds no bitmap" 0 s3.Value.Stats.mem_indexed;
  ignore (Value.mem v big);
  let s4 = Value.Stats.snapshot () in
  Alcotest.(check int) "second probe builds one" 1 s4.Value.Stats.mem_indexed;
  Alcotest.(check int) "dense set not declined" 0 s4.Value.Stats.mem_declined

(* The shard index must not reuse the hash bits each shard's Hashtbl
   reads for its bucket index, or every shard fills only 1/64 of its
   buckets and chains grow ~64x longer. *)
let test_intern_shard_spread () =
  for i = 0 to 49_999 do
    ignore (Value.pair (vi (3_000_000 + i)) (vi (-i)))
  done;
  let s = Value.Stats.snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "longest chain %d <= 16" s.Value.Stats.max_bucket)
    true
    (s.Value.Stats.max_bucket <= 16)

(* [Value.hash] is persisted by [--stats-file] fingerprints, so it must
   not drift between runs or releases. *)
let test_hash_golden () =
  let pin name expected v = Alcotest.(check int) name expected (Value.hash v) in
  pin "int" 3770334500153769531 (vi 42);
  pin "str" 3781613641938519860 (Value.str "recalg");
  pin "pair" 1819254842123834088 (Value.pair (vi 1) (Value.sym "a"));
  pin "set" 1159211840616532020 (vset [ vi 3; vi 1; vi 2 ]);
  pin "cstr" 1455975386592306160 (Value.cstr "succ" [ Value.cstr "0" [] ])

(* Reference structural order — the seed's definition, reimplemented
   independently of the kernel: Int < Str < Bool < Sym < Tuple < Set <
   Cstr, lexicographic on children. *)
let rec ref_compare a b =
  let rank v =
    match Value.node v with
    | Value.Int _ -> 0
    | Value.Str _ -> 1
    | Value.Bool _ -> 2
    | Value.Sym _ -> 3
    | Value.Tuple _ -> 4
    | Value.Set _ -> 5
    | Value.Cstr _ -> 6
  in
  match Value.node a, Value.node b with
  | Value.Int x, Value.Int y -> Stdlib.compare x y
  | Value.Str x, Value.Str y -> String.compare x y
  | Value.Bool x, Value.Bool y -> Stdlib.compare x y
  | Value.Sym x, Value.Sym y -> String.compare x y
  | Value.Tuple x, Value.Tuple y -> ref_compare_list x y
  | Value.Set x, Value.Set y -> ref_compare_list x y
  | Value.Cstr (f, x), Value.Cstr (g, y) ->
    let c = String.compare f g in
    if c <> 0 then c else ref_compare_list x y
  | _, _ -> Stdlib.compare (rank a) (rank b)

and ref_compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = ref_compare x y in
    if c <> 0 then c else ref_compare_list xs' ys'

let rec rebuild v =
  match Value.node v with
  | Value.Int x -> Value.int x
  | Value.Str s -> Value.str s
  | Value.Bool b -> Value.bool b
  | Value.Sym s -> Value.sym s
  | Value.Tuple xs -> Value.tuple (List.map rebuild xs)
  | Value.Set xs -> Value.set (List.map rebuild xs)
  | Value.Cstr (f, xs) -> Value.cstr f (List.map rebuild xs)

let prop_intern_physical =
  (* With hash-consing on, structural equality IS physical equality:
     independently rebuilding a value lands on the identical node, and
     two values are equal exactly when they are the same pointer. *)
  QCheck.Test.make ~name:"hash-consing: equal ⟺ physically equal" ~count:300
    QCheck.(pair Tgen.deep_value_arb Tgen.deep_value_arb)
    (fun (x, y) -> rebuild x == x && Value.equal x y = (x == y))

let prop_compare_reference =
  (* The kernel's compare (physical fast path) agrees in sign with the
     independent structural reference. *)
  let sign c = Stdlib.compare c 0 in
  QCheck.Test.make ~name:"compare agrees with structural reference" ~count:300
    QCheck.(pair Tgen.deep_value_arb Tgen.deep_value_arb)
    (fun (x, y) -> sign (Value.compare x y) = sign (ref_compare x y))

let prop_parser_reinterns =
  (* Printing a value and parsing it back re-interns every node: the
     round-tripped value is the physically identical pointer. *)
  QCheck.Test.make ~name:"print/parse round trip re-interns physically" ~count:200
    Tgen.printable_set_arb (fun v ->
      match Algebra.Parser.parse_expr (Value.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e
      | Ok expr -> Algebra.Eval.eval (Algebra.Defs.make []) Algebra.Db.empty expr == v)

let prop_mem_reference =
  QCheck.Test.make ~name:"mem = list membership" ~count:300
    QCheck.(pair Tgen.deep_value_arb (list_of_size (Gen.int_range 0 6) Tgen.deep_value_arb))
    (fun (x, elems) ->
      Value.mem x (Value.set elems) = List.exists (Value.equal x) elems)

let prop_inter_diff_reference =
  QCheck.Test.make ~name:"inter/diff = filtered membership" ~count:300
    QCheck.(pair Tgen.small_set_arb Tgen.small_set_arb)
    (fun (a, b) ->
      Value.equal (Value.inter a b)
        (Value.set (List.filter (fun x -> Value.mem x b) (Value.elements a)))
      && Value.equal (Value.diff a b)
           (Value.set
              (List.filter (fun x -> not (Value.mem x b)) (Value.elements a))))

(* --- Membership index --- *)

(* A value no other test builds, so its id is above every id stamped
   before the call. *)
let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    Value.cstr "mem_fresh" [ vi !n ]

(* Sets just above [Value.mem]'s scan cutoff. Probing each twice
   indexes it, so the pass replaces the index in (all but a vanishing
   share of) the 64 slots. *)
let fillers =
  lazy (List.init 1024 (fun _ -> Value.set (List.init 20 (fun _ -> fresh ()))))

let evict_indexes () =
  List.iter
    (fun s ->
      let x = List.hd (Value.elements s) in
      ignore (Value.mem x s);
      ignore (Value.mem x s))
    (Lazy.force fillers)

(* [Stats.snapshot] walks the whole intern table: call it sparingly. *)
let mem_indexed () = (Value.Stats.snapshot ()).Value.Stats.mem_indexed

(* Every set is probed in four interleaved rounds, so the scan (small
   sets, first probes), build (second probes) and bit-test paths all
   answer. Absent probes are interned before the set, between its
   elements and after it (ids above its bitmap); the filler pass
   before round 3 evicts every index, which round 3 rebuilds. *)
let prop_mem_index_lifecycle =
  QCheck.Test.make ~name:"mem index lifecycle = list membership"
    ~count:(Tgen.qcount 100)
    QCheck.(list_of_size (Gen.int_range 1 3) (int_range 0 300))
    (fun sizes ->
      let make n =
        let before = List.init 4 (fun _ -> fresh ()) in
        let elems, gaps =
          List.split
            (List.init n (fun i ->
                 let e = fresh () in
                 (e, if i mod 3 = 0 then [ fresh () ] else [])))
        in
        (Value.set elems, elems, before @ List.concat gaps)
      in
      let sets = List.map make sizes in
      let built = ref 0 in
      for round = 0 to 3 do
        let after = List.init 4 (fun _ -> fresh ()) in
        if round = 3 then begin
          evict_indexes ();
          built := mem_indexed ()
        end;
        List.iter
          (fun (s, present, absent) ->
            List.iter
              (fun x ->
                if not (Value.mem x s) then
                  QCheck.Test.fail_reportf "round %d: element %a not found" round
                    Value.pp x)
              present;
            List.iter
              (fun x ->
                if Value.mem x s then
                  QCheck.Test.fail_reportf "round %d: absent %a found" round Value.pp x)
              (absent @ after))
          sets
      done;
      let rebuilt = mem_indexed () - !built in
      let large = List.length (List.filter (fun n -> n > 16) sizes) in
      if rebuilt < large then
        QCheck.Test.fail_reportf "%d of %d large sets rebuilt after eviction" rebuilt
          large;
      true)

(* Two halves of a set with ~100k ids stamped between them: a bitmap
   would need over 3 words per element, so the set is declined, counted,
   and still answered by the scan. A dense set of the same size is
   indexed. *)
let test_mem_density_guard () =
  let half () = List.init 50 (fun _ -> fresh ()) in
  let first = half () in
  for i = 1 to 100_000 do
    ignore (vi (50_000_000 + i))
  done;
  let second = half () in
  let sparse = Value.set (first @ second) in
  let dense_elems = List.init 100 (fun _ -> fresh ()) in
  let dense = Value.set dense_elems in
  let outside = [ fresh (); Value.tuple [ List.hd first ] ] in
  let s0 = Value.Stats.snapshot () in
  (* One set at a time, so the two never evict each other. *)
  List.iter
    (fun (label, s, elems) ->
      for _ = 1 to 3 do
        List.iter
          (fun x -> Alcotest.(check bool) (label ^ " element") true (Value.mem x s))
          elems;
        List.iter
          (fun x -> Alcotest.(check bool) (label ^ " absent") false (Value.mem x s))
          outside
      done)
    [ ("sparse", sparse, first @ second); ("dense", dense, dense_elems) ];
  let s1 = Value.Stats.snapshot () in
  Alcotest.(check int) "sparse set declined once" 1
    (s1.Value.Stats.mem_declined - s0.Value.Stats.mem_declined);
  Alcotest.(check int) "dense set indexed once" 1
    (s1.Value.Stats.mem_indexed - s0.Value.Stats.mem_indexed)

(* --- Tvl --- *)

let test_kleene_tables () =
  let open Tvl in
  Alcotest.check check_tvl "T and U" Undef (and_ True Undef);
  Alcotest.check check_tvl "F and U" False (and_ False Undef);
  Alcotest.check check_tvl "T or U" True (or_ True Undef);
  Alcotest.check check_tvl "F or U" Undef (or_ False Undef);
  Alcotest.check check_tvl "not U" Undef (not_ Undef);
  Alcotest.check check_tvl "not T" False (not_ True)

let test_knowledge_order () =
  let open Tvl in
  Alcotest.(check bool) "U <= T" true (knowledge_leq Undef True);
  Alcotest.(check bool) "U <= F" true (knowledge_leq Undef False);
  Alcotest.(check bool) "T <= F fails" false (knowledge_leq True False);
  Alcotest.(check bool) "T <= T" true (knowledge_leq True True)

let test_tvl_conversions () =
  Alcotest.check check_tvl "of_bool true" Tvl.True (Tvl.of_bool true);
  Alcotest.(check bool) "to_bool_opt undef" true (Tvl.to_bool_opt Tvl.Undef = None);
  Alcotest.(check bool) "is_defined" false (Tvl.is_defined Tvl.Undef)

let prop_kleene_monotone =
  (* and_/or_ are monotone in the knowledge order. *)
  let tvl_gen = QCheck.Gen.oneofl [ Tvl.True; Tvl.False; Tvl.Undef ] in
  let arb = QCheck.make ~print:Tvl.to_string tvl_gen in
  QCheck.Test.make ~name:"kleene and_ knowledge-monotone" ~count:200
    QCheck.(pair arb arb)
    (fun (a, b) ->
      (* Undef refined to either classical value never flips a defined result. *)
      let refinements v =
        match v with
        | Tvl.Undef -> [ Tvl.True; Tvl.False ]
        | other -> [ other ]
      in
      List.for_all
        (fun a' ->
          List.for_all
            (fun b' -> Tvl.knowledge_leq (Tvl.and_ a b) (Tvl.and_ a' b'))
            (refinements b))
        (refinements a))

(* --- Bitset --- *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Alcotest.(check int) "count" 3 (Bitset.count b);
  Alcotest.(check bool) "get set" true (Bitset.get b 63);
  Alcotest.(check bool) "get unset" false (Bitset.get b 64);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.get b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 99 ] (Bitset.to_list b)

let test_bitset_union_subset () =
  let a = Bitset.create 16
  and b = Bitset.create 16 in
  Bitset.set a 1;
  Bitset.set b 1;
  Bitset.set b 2;
  Alcotest.(check bool) "subset" true (Bitset.subset a b);
  Alcotest.(check bool) "not subset" false (Bitset.subset b a);
  Bitset.union_into ~dst:a b;
  Alcotest.(check bool) "after union equal" true (Bitset.equal a b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitset.get: index out of range")
    (fun () -> ignore (Bitset.get b 8))

(* --- Interner --- *)

let test_interner () =
  let t = Interner.create ~hash:Hashtbl.hash ~equal:String.equal () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  let a' = Interner.intern t "alpha" in
  Alcotest.(check int) "stable ids" a a';
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "get back" "beta" (Interner.get t b);
  Alcotest.(check int) "size" 2 (Interner.size t)

let test_interner_growth () =
  let t = Interner.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  for i = 0 to 999 do
    ignore (Interner.intern t i)
  done;
  Alcotest.(check int) "1000 items" 1000 (Interner.size t);
  Alcotest.(check int) "id round trip" 437 (Interner.get t (Interner.intern t 437))

(* --- Limits --- *)

let test_fuel () =
  let f = Limits.of_int 3 in
  Limits.spend f ~what:"t";
  Limits.spend f ~what:"t";
  Limits.spend f ~what:"t";
  Alcotest.check_raises "exhausted" (Limits.Diverged "t: fuel exhausted") (fun () ->
      Limits.spend f ~what:"t")

let test_fuel_unlimited () =
  for _ = 1 to 1000 do
    Limits.spend Limits.unlimited ~what:"t"
  done;
  Alcotest.(check bool) "no remaining count" true
    (Limits.remaining Limits.unlimited = None)

(* --- Builtins --- *)

let test_builtins_arith () =
  let b = Builtins.default in
  Alcotest.(check bool) "add" true
    (Builtins.apply b "add" [ vi 2; vi 3 ] = Some (vi 5));
  Alcotest.(check bool) "sub" true
    (Builtins.apply b "sub" [ vi 2; vi 3 ] = Some (vi (-1)));
  Alcotest.(check bool) "mul" true
    (Builtins.apply b "mul" [ vi 2; vi 3 ] = Some (vi 6));
  Alcotest.(check bool) "add on non-int undefined" true
    (Builtins.apply b "add" [ Value.sym "a"; vi 1 ] = None)

let test_builtins_constructor_fallback () =
  let b = Builtins.default in
  Alcotest.(check bool) "unregistered builds Cstr" true
    (Builtins.apply b "succ" [ vi 0 ] = Some (Value.cstr "succ" [ vi 0 ]));
  Alcotest.(check bool) "is_interpreted" false (Builtins.is_interpreted b "succ");
  Alcotest.(check bool) "is_interpreted add" true (Builtins.is_interpreted b "add")

let test_builtins_structural () =
  let b = Builtins.default in
  Alcotest.(check bool) "pair/fst" true
    (Builtins.apply b "fst" [ Value.pair (vi 1) (vi 2) ] = Some (vi 1));
  Alcotest.(check bool) "eq_val" true
    (Builtins.apply b "eq_val" [ vi 1; vi 1 ] = Some Value.tt);
  Alcotest.(check bool) "lt" true (Builtins.apply b "lt" [ vi 1; vi 2 ] = Some Value.tt)


let test_builtins_sets () =
  let b = Builtins.default in
  let s = Value.set [ vi 1; vi 2 ] in
  Alcotest.(check bool) "set_add" true
    (Builtins.apply b "set_add" [ vi 3; s ] = Some (Value.set [ vi 1; vi 2; vi 3 ]));
  Alcotest.(check bool) "set_mem yes" true
    (Builtins.apply b "set_mem" [ vi 1; s ] = Some Value.tt);
  Alcotest.(check bool) "set_union" true
    (Builtins.apply b "set_union" [ s; Value.set [ vi 5 ] ]
    = Some (Value.set [ vi 1; vi 2; vi 5 ]));
  Alcotest.(check bool) "set_card" true
    (Builtins.apply b "set_card" [ s ] = Some (vi 2));
  Alcotest.(check bool) "set_add on non-set undefined" true
    (Builtins.apply b "set_add" [ vi 1; vi 2 ] = None)

let suite =
  [
    Alcotest.test_case "set canonical" `Quick test_set_canonical;
    Alcotest.test_case "set nested" `Quick test_set_nested;
    Alcotest.test_case "union/inter/diff" `Quick test_union_inter_diff;
    Alcotest.test_case "product" `Quick test_product;
    Alcotest.test_case "product canonical" `Quick test_product_canonical;
    Alcotest.test_case "union_all" `Quick test_union_all;
    Alcotest.test_case "mem/subset" `Quick test_mem_subset;
    Alcotest.test_case "proj" `Quick test_proj;
    Alcotest.test_case "compare total order" `Quick test_compare_total_order;
    Alcotest.test_case "set type errors" `Quick test_set_type_errors;
    Alcotest.test_case "kleene tables" `Quick test_kleene_tables;
    Alcotest.test_case "knowledge order" `Quick test_knowledge_order;
    Alcotest.test_case "tvl conversions" `Quick test_tvl_conversions;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset union/subset" `Quick test_bitset_union_subset;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "interner" `Quick test_interner;
    Alcotest.test_case "interner growth" `Quick test_interner_growth;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "fuel unlimited" `Quick test_fuel_unlimited;
    Alcotest.test_case "builtins arith" `Quick test_builtins_arith;
    Alcotest.test_case "builtins constructor" `Quick test_builtins_constructor_fallback;
    Alcotest.test_case "builtins structural" `Quick test_builtins_structural;
    Alcotest.test_case "builtins sets" `Quick test_builtins_sets;
    QCheck_alcotest.to_alcotest prop_union_commutative;
    QCheck_alcotest.to_alcotest prop_union_associative;
    QCheck_alcotest.to_alcotest prop_diff_inter_demorgan;
    QCheck_alcotest.to_alcotest prop_diff_empty;
    QCheck_alcotest.to_alcotest prop_product_cardinality;
    QCheck_alcotest.to_alcotest prop_product_canonical;
    QCheck_alcotest.to_alcotest prop_union_all_fold;
    QCheck_alcotest.to_alcotest prop_mem_union;
    QCheck_alcotest.to_alcotest prop_kleene_monotone;
    Alcotest.test_case "intern stats" `Quick test_stats;
    Alcotest.test_case "intern shards spread buckets" `Quick test_intern_shard_spread;
    Alcotest.test_case "hash golden pins" `Quick test_hash_golden;
    QCheck_alcotest.to_alcotest prop_intern_physical;
    QCheck_alcotest.to_alcotest prop_compare_reference;
    QCheck_alcotest.to_alcotest prop_parser_reinterns;
    QCheck_alcotest.to_alcotest prop_mem_reference;
    QCheck_alcotest.to_alcotest prop_inter_diff_reference;
    QCheck_alcotest.to_alcotest prop_mem_index_lifecycle;
    Alcotest.test_case "mem density guard" `Quick test_mem_density_guard;
  ]
