open Recalg_kernel
module Obs = Recalg_obs.Obs

let lfp (pg : Propgm.t) ~neg_ok =
  let n = Propgm.n_atoms pg in
  let truths = Bitset.create n in
  let rules = pg.Propgm.rules in
  let nrules = Array.length rules in
  (* Counting propagation: remaining.(r) = positive literals of rule r not
     yet satisfied; watch.(a) = rules in which atom a occurs positively
     (with multiplicity). *)
  let remaining = Array.make nrules 0 in
  let watch = Array.make n [] in
  let queue = Queue.create () in
  let alive = Array.make nrules true in
  Array.iteri
    (fun ri rule ->
      if Array.exists (fun a -> not (neg_ok a)) rule.Propgm.neg then
        alive.(ri) <- false
      else begin
        remaining.(ri) <- Array.length rule.Propgm.pos;
        Array.iter (fun a -> watch.(a) <- ri :: watch.(a)) rule.Propgm.pos;
        if remaining.(ri) = 0 then Queue.add rule.Propgm.head queue
      end)
    rules;
  while not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    if not (Bitset.get truths a) then begin
      Bitset.set truths a;
      List.iter
        (fun ri ->
          if alive.(ri) then begin
            remaining.(ri) <- remaining.(ri) - 1;
            if remaining.(ri) = 0 then Queue.add rules.(ri).Propgm.head queue
          end)
        watch.(a)
    end
  done;
  if Obs.enabled () then begin
    Obs.count "fixpoint/lfp" 1;
    Obs.count "fixpoint/derived" (Bitset.count truths)
  end;
  truths

(* Counting propagation by stages: a rule is decided once, at the first
   stage whose set holds all its positive atoms. It fires if no negative
   atom is in that set; the set only grows, so a rule blocked there is
   blocked for good, and one that fired has nothing left to add. A
   stage's heads join the set only after every rule of the stage is
   decided. *)
let stages (pg : Propgm.t) ~stage =
  let n = Propgm.n_atoms pg in
  let truths = Bitset.create n in
  let rules = pg.Propgm.rules in
  let remaining = Array.map (fun rule -> Array.length rule.Propgm.pos) rules in
  let watch = Array.make n [] in
  let ready = ref [] in
  Array.iteri
    (fun ri rule ->
      Array.iter (fun a -> watch.(a) <- ri :: watch.(a)) rule.Propgm.pos;
      if remaining.(ri) = 0 then ready := ri :: !ready)
    rules;
  let fires ri =
    let rule = rules.(ri) in
    if Array.exists (Bitset.get truths) rule.Propgm.neg then None
    else Some rule.Propgm.head
  in
  let rec go () =
    let heads = List.filter_map fires !ready in
    ready := [];
    let added = ref 0 in
    List.iter
      (fun a ->
        if not (Bitset.get truths a) then begin
          Bitset.set truths a;
          incr added;
          List.iter
            (fun ri ->
              remaining.(ri) <- remaining.(ri) - 1;
              if remaining.(ri) = 0 then ready := ri :: !ready)
            watch.(a)
        end)
      heads;
    stage !added;
    if !added > 0 then go ()
  in
  go ();
  truths
