(* Complexity guards: each cliff family runs in process at a size N and at
   4N, and the ratio of the words it allocates is bounded. At one domain
   allocation repeats exactly, so a guard reads the same on any machine,
   and a quadratic shape at these sizes allocates ~16× for 4× the input
   where a linear one allocates ~4×. Every guard also runs the slow
   reference shape and asserts that it breaks the bound, so the bound
   separates the two. *)

open Recalg
open Algebra

(* Minor words allocated by [f], with the sets it interns already
   interned by a first run: the guard counts the evaluation, not the
   first sight of each value. *)
let words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* [examples/programs/even_ifp.alg] at cut-off [n]: an [IFP] of n/2
   rounds from a one-element base, solved as [recalg alg --plan cost]
   solves it. The semi-naive loop allocates linearly in the rounds, a
   naive one re-reads the whole set every round. Measured: 31,786 →
   125,761 words (×3.96) under the cost planner's advice, 664,326 →
   11,031,366 (×16.6) under its naive overlay. *)
let test_even_ifp () =
  let evens n =
    Defs.make
      [ Defs.constant "evens"
          Expr.(
            ifp "s"
              (union
                 (lit [ Value.int 0 ])
                 (select
                    (Pred.Lt (Efun.Id, Efun.Const (Value.int n)))
                    (map (Efun.add_const 2) (rel "s"))))) ]
  in
  let planner = Plan.Planner.create ~stats:(Plan.Stats.of_db Db.empty) Plan.Planner.Cost in
  let ratio advice =
    let run n () = Rec_eval.solve ~advice (evens n) Db.empty in
    words (run 1000) /. words (run 250)
  in
  let bound = 6. in
  let cost = ratio (Plan.Planner.advice planner) in
  let naive = ratio (Advice.naive (Plan.Planner.advice planner)) in
  if cost > bound then Alcotest.failf "even_ifp, --plan cost: ×%.2f words for 4× the rounds" cost;
  if naive <= bound then
    Alcotest.failf "even_ifp, naive: ×%.2f words, inside the bound ×%.0f" naive bound

let suite = [ Alcotest.test_case "even_ifp under --plan cost" `Quick test_even_ifp ]
