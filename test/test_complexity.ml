(* Complexity guards: each cliff family runs in process at a size N and at
   4N, and the ratio of the words it allocates is bounded. At one domain
   allocation repeats exactly, so a guard reads the same on any machine,
   and a quadratic shape at these sizes allocates ~16× for 4× the input
   where a linear one allocates ~4×. Every guard also runs the slow
   reference shape and asserts that it breaks the bound, so the bound
   separates the two. *)

open Recalg
open Algebra

(* Minor words allocated by one run of [f]. *)
let allocated f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Minor words allocated by [f], with the sets it interns already
   interned by a first run: the guard counts the evaluation, not the
   first sight of each value. *)
let words f =
  ignore (Sys.opaque_identity (f ()));
  allocated f

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

(* Negation chains under [valid] and [wellfounded], grounding excluded:
   the WIN chain of n moves ([Tgen.win_chain]) and the unfounded-set
   chain ([Tgen.unfounded_chain]). Solving interns nothing, so one run
   is measured. The solver allocates linearly: 63,045 → 284,889 words
   (×4.52) and 153,068 → 661,725 (×4.32) at n = 250 → 1000. The
   Section 2.2 iteration runs about n/2 (WIN) or n (unfounded) rounds
   of two whole-program passes; it is measured at n = 125 → 500, where
   it reads ×13.5 (826,456 → 11,170,521) and ×15.6 (2,736,795 →
   42,771,236), because at n = 1000 one run takes most of a second. *)
let test_negation_chains () =
  let bound = 6. in
  List.iter
    (fun (family, instance) ->
      let ground n =
        let program, edb = instance n in
        Datalog.Grounder.ground program edb
      in
      let ratio n solve =
        let small = ground n and large = ground (4 * n) in
        allocated (fun () -> solve large) /. allocated (fun () -> solve small)
      in
      List.iter
        (fun (name, solve) ->
          let r = ratio 250 solve in
          if r > bound then
            Alcotest.failf "%s, %s: ×%.2f words for 4× the chain" family name r)
        [ ("Valid.solve", Datalog.Valid.solve);
          ("Wellfounded.solve", Datalog.Wellfounded.solve) ];
      let r = ratio 125 Datalog.Valid.reference in
      if r <= bound then
        Alcotest.failf "%s, Valid.reference: ×%.2f words, inside the bound ×%.0f"
          family r bound)
    [ ("WIN chain", Tgen.win_chain); ("unfounded-set chain", Tgen.unfounded_chain) ]

let suite =
  [ Alcotest.test_case "even_ifp under --plan cost" `Quick test_even_ifp;
    Alcotest.test_case "negation chains under valid and wellfounded" `Quick
      test_negation_chains ]
