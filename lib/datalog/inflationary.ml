module Obs = Recalg_obs.Obs

let solve_raw pg =
  Obs.span "inflationary" @@ fun () ->
  Fixpoint.stages pg ~stage:(fun derived ->
      if Obs.enabled () then begin
        Obs.count "inflationary/stage" 1;
        Obs.count "inflationary/derived" derived
      end)

let solve pg = Interp.of_true pg (solve_raw pg)
