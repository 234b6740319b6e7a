(* Z-set laws: (t, add, negate, empty) is a commutative group and [map]
   is linear — what an update batch's summed weights and a [MAP] node's
   image counts rely on — and a batch's weights meet the database as an
   exact change. *)

open Recalg

let zset = Alcotest.testable Zset.pp Zset.equal
let vi = Value.int

let test_basics () =
  let z =
    List.fold_left
      (fun z (v, w) -> Zset.add z (Zset.singleton ~weight:w (vi v)))
      Zset.empty
      [ (1, 2); (2, -1); (3, 0); (1, 1); (2, 1) ]
  in
  Alcotest.(check int) "weight 1" 3 (Zset.weight z (vi 1));
  Alcotest.(check int) "weight 2 cancelled" 0 (Zset.weight z (vi 2));
  Alcotest.(check int) "weight absent" 0 (Zset.weight z (vi 3));
  Alcotest.(check (list (pair int int))) "support" [ (1, 3) ]
    (Zset.fold
       (fun v w acc ->
         match Value.node v with
         | Value.Int n -> (n, w) :: acc
         | _ -> acc)
       z []);
  Alcotest.check zset "singleton weight 0 is empty" Zset.empty
    (Zset.singleton ~weight:0 (vi 5));
  Alcotest.(check int) "of_set weighs +1" 1 (Zset.weight (Zset.of_set (Value.set [ vi 4 ])) (vi 4))

let test_cancellation () =
  let z = Zset.add (Zset.singleton (vi 1)) (Zset.singleton ~weight:(-1) (vi 1)) in
  Alcotest.(check bool) "cancels to empty" true (Zset.is_empty z)

let prop_group_assoc =
  QCheck.Test.make ~name:"add associative" ~count:(Tgen.qcount 200)
    Tgen.zset_triple_arb (fun (a, b, c) ->
      Zset.equal (Zset.add a (Zset.add b c)) (Zset.add (Zset.add a b) c))

let prop_group_comm =
  QCheck.Test.make ~name:"add commutative" ~count:(Tgen.qcount 200)
    Tgen.zset_triple_arb (fun (a, b, _) ->
      Zset.equal (Zset.add a b) (Zset.add b a))

let prop_group_identity_inverse =
  QCheck.Test.make ~name:"empty identity, negate inverse"
    ~count:(Tgen.qcount 200) Tgen.zset_arb (fun a ->
      Zset.equal (Zset.add a Zset.empty) a
      && Zset.is_empty (Zset.add a (Zset.negate a))
      && Zset.equal (Zset.sub a a) Zset.empty)

let prop_map_linear =
  QCheck.Test.make ~name:"map is linear" ~count:(Tgen.qcount 200)
    (QCheck.pair Tgen.zset_arb Tgen.zset_arb) (fun (a, b) ->
      (* A non-injective function, so images genuinely collide. *)
      let f v =
        match Value.node v with
        | Value.Int n -> Some (Value.int (n / 2))
        | _ -> None
      in
      Zset.equal
        (Zset.map f (Zset.add a b))
        (Zset.add (Zset.map f a) (Zset.map f b)))

(* A batch's summed weights meet the database through
   [Update.effective]: a tuple is in the new relation iff its old
   membership plus its weight is positive, and the change repairs the
   old relation into [Update.apply]'s, gaining exactly the tuples that
   appear and losing exactly those that vanish. *)
let prop_effective_repairs =
  let module U = Algebra.Incremental.Update in
  QCheck.Test.make ~name:"effective change repairs old set"
    ~count:(Tgen.qcount 200)
    (QCheck.pair Tgen.small_set_arb
       QCheck.(list_of_size Gen.(int_range 0 8) (pair bool (int_range 0 6))))
    (fun (old, ops) ->
      let u =
        List.fold_left
          (fun u (ins, n) -> (if ins then U.insert else U.delete) "r" (vi n) u)
          U.empty ops
      in
      let db = Algebra.Db.of_list [ ("r", Value.elements old) ] in
      let weight n =
        List.fold_left (fun w (ins, m) -> if m = n then w + if ins then 1 else -1 else w) 0 ops
      in
      let expected =
        Value.set
          (List.filter_map
             (fun n ->
               let was = if Value.mem (vi n) old then 1 else 0 in
               if was + weight n > 0 then Some (vi n) else None)
             (List.init 7 Fun.id))
      in
      let c =
        match U.effective db u with
        | [] -> Algebra.Delta.none
        | [ ("r", c) ] -> c
        | _ -> Alcotest.fail "a change for a relation the batch does not touch"
      in
      Value.equal (Option.get (Algebra.Db.find (U.apply u db) "r")) expected
      && Value.equal (Algebra.Delta.apply old c) expected
      && Value.equal c.Algebra.Delta.plus (Value.diff expected old)
      && Value.equal c.Algebra.Delta.minus (Value.diff old expected))

let suite =
  [
    Alcotest.test_case "weights and support" `Quick test_basics;
    Alcotest.test_case "opposite weights cancel" `Quick test_cancellation;
    QCheck_alcotest.to_alcotest prop_group_assoc;
    QCheck_alcotest.to_alcotest prop_group_comm;
    QCheck_alcotest.to_alcotest prop_group_identity_inverse;
    QCheck_alcotest.to_alcotest prop_map_linear;
    QCheck_alcotest.to_alcotest prop_effective_repairs;
  ]
