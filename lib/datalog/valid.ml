open Recalg_kernel

let solve = Wellfounded.solve

let run (pg : Propgm.t) =
  let n = Propgm.n_atoms pg in
  let t = ref (Bitset.create n) in
  let f = Bitset.create n in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue do
    incr rounds;
    (* Possible: every derivation from T in which only facts not in T are
       used negatively. *)
    let t_now = !t in
    let possible = Fixpoint.lfp pg ~neg_ok:(fun a -> not (Bitset.get t_now a)) in
    (* Whatever is not possibly derivable is certainly false. *)
    for a = 0 to n - 1 do
      if not (Bitset.get possible a) then Bitset.set f a
    done;
    (* New true facts: use only F negatively. *)
    let t' = Fixpoint.lfp pg ~neg_ok:(fun a -> Bitset.get f a) in
    if Bitset.equal t' !t then continue := false else t := t'
  done;
  (!t, f, !rounds)

let reference pg =
  let true_, f, _ = run pg in
  let n = Propgm.n_atoms pg in
  let undef = Bitset.create n in
  for a = 0 to n - 1 do
    if (not (Bitset.get true_ a)) && not (Bitset.get f a) then Bitset.set undef a
  done;
  Interp.make pg ~true_ ~undef

let iterations pg =
  let _, _, rounds = run pg in
  rounds
