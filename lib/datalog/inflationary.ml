open Recalg_kernel
module Obs = Recalg_obs.Obs

let step pg current =
  let out = Fixpoint.one_step pg ~current ~neg_ok:(fun a -> not (Bitset.get current a)) in
  Bitset.union_into ~dst:out current;
  if Obs.enabled () then begin
    Obs.count "inflationary/stage" 1;
    Obs.count "inflationary/derived" (Bitset.count out - Bitset.count current)
  end;
  out

let solve_raw pg =
  Obs.span "inflationary" @@ fun () ->
  let n = Propgm.n_atoms pg in
  let rec go current =
    let next = step pg current in
    if Bitset.equal next current then current else go next
  in
  go (Bitset.create n)

let solve pg = Interp.of_true pg (solve_raw pg)
