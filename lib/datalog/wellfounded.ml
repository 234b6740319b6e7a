open Recalg_kernel
module Obs = Recalg_obs.Obs

let solve_raw (pg : Propgm.t) =
  Obs.span "wellfounded" @@ fun () ->
  let n = Propgm.n_atoms pg in
  let t = ref (Bitset.create n) in
  let continue = ref true in
  let u = ref (Bitset.create n) in
  while !continue do
    Obs.count "wellfounded/round" 1;
    Obs.span "round" @@ fun () ->
    (* Overestimate: not a is licensed unless a is surely true. *)
    let under = !t in
    u := Fixpoint.lfp pg ~neg_ok:(fun a -> not (Bitset.get under a));
    (* Underestimate: not a licensed only when a is surely false. *)
    let over = !u in
    let t' = Fixpoint.lfp pg ~neg_ok:(fun a -> not (Bitset.get over a)) in
    if Obs.enabled () then
      Obs.count "wellfounded/new_true" (Bitset.count t' - Bitset.count !t);
    if Bitset.equal t' !t then continue := false else t := t'
  done;
  let undef = Bitset.create n in
  Bitset.iter_set (fun a -> if not (Bitset.get !t a) then Bitset.set undef a) !u;
  (!t, undef)

let solve pg =
  let true_, undef = solve_raw pg in
  Interp.make pg ~true_ ~undef
