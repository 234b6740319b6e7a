open Recalg_kernel
module Obs = Recalg_obs.Obs

type t = {
  program : Program.t;
  fuel : Limits.fuel;
  negation_free : bool;
  mutable edb : Edb.t;
  mutable result : Edb.t;  (* EDB and all derived relations *)
}

let negation_free program =
  List.for_all
    (fun (r : Rule.t) ->
      List.for_all
        (fun lit ->
          match lit with
          | Literal.Neg _ -> false
          | Literal.Pos _ | Literal.Eq _ | Literal.Neq _ -> true)
        r.Rule.body)
    program.Program.rules

let recompute ~fuel program edb = Seminaive.stratified ~fuel program edb

let init ?(fuel = Limits.default ()) program edb =
  Obs.span "incremental.datalog_init" @@ fun () ->
  match recompute ~fuel program edb with
  | Error _ as e -> e
  | Ok result ->
    Ok { program; fuel; negation_free = negation_free program; edb; result }

let edb t = t.edb
let result t = t.result

let holds t pred tup = Edb.mem t.result pred tup

(* Overdelete: close the set of derived facts one of whose derivation
   steps consumes a deleted fact, firing delta-restricted rounds against
   the *pre-update* materialization — one set of stores for the whole
   batch, each round's frontier swapped in as their delta. Facts that
   remain are below the new least fixpoint (the DRed invariant). *)
let overdelete t ~old_result ~dels =
  let dependents =
    Seminaive.dependents t.program ~base:old_result t.program.Program.rules
  in
  let rec loop deleted frontier =
    if Edb.equal frontier Edb.empty then deleted
    else begin
      Limits.spend t.fuel ~what:"incremental: DRed round";
      Obs.count "incr/dred_round" 1;
      (* Only facts actually materialized can be deleted; drop the ones
         already in the deleted set to reach a fixpoint. *)
      let fresh = ref Edb.empty in
      dependents frontier (fun pred tup ->
          if Edb.mem old_result pred tup && not (Edb.mem deleted pred tup) then
            fresh := Edb.add pred tup !fresh);
      loop (Edb.union deleted !fresh) !fresh
    end
  in
  loop dels dels

let update_exn t u =
  let adds, dels = Edb.Update.effective t.edb u in
  let new_edb = Edb.Update.apply u t.edb in
  t.edb <- new_edb;
  let n_adds = Edb.fold (fun _ _ n -> n + 1) adds 0
  and n_dels = Edb.fold (fun _ _ n -> n + 1) dels 0 in
  if n_adds + n_dels = 0 then t.result
  else begin
    Obs.count "incr/insertions" n_adds;
    Obs.count "incr/retractions" n_dels;
    Limits.spend t.fuel ~what:"incremental: update batch";
    Faultinj.hit "incr/batch";
    let rules = t.program.Program.rules in
    let result =
      if not t.negation_free then begin
        (* Negation anywhere: deletions can grow relations and insertions
           shrink them; fall back to stratified recomputation. *)
        Obs.count "incr/recompute" 1;
        match recompute ~fuel:t.fuel t.program new_edb with
        | Ok r -> r
        | Error msg ->
          (* init already vetted the program; only the EDB changed. *)
          invalid_arg ("Incremental.update: " ^ msg)
      end
      else if n_dels = 0 then begin
        (* Insert-only continuation: the old materialization is below the
           new least fixpoint; resume extends it. *)
        Obs.count "incr/extend" 1;
        let derived =
          Seminaive.resume ~fuel:t.fuel t.program ~base:new_edb ~init:t.result
            ~delta:adds rules
        in
        Edb.union new_edb derived
      end
      else begin
        (* Delete (and possibly insert): DRed. *)
        Obs.count "incr/dred" 1;
        let deleted = overdelete t ~old_result:t.result ~dels in
        Obs.countf "incr/dred_deleted" (fun () ->
            Edb.fold (fun _ _ n -> n + 1) deleted 0);
        (* Rederive only the overdeleted facts, against the survivors
           and the new EDB; they and the insertions seed one resumed,
           delta-only run. *)
        let survivors = Edb.diff t.result deleted in
        let rederived =
          Seminaive.rederive ~fuel:t.fuel t.program
            ~base:(Edb.union survivors new_edb) deleted rules
        in
        let derived =
          Seminaive.resume ~fuel:t.fuel t.program ~base:new_edb ~init:survivors
            ~delta:(Edb.union adds rederived) rules
        in
        Edb.union new_edb derived
      end
    in
    t.result <- result;
    result
  end

(* All-or-nothing: [t] mutates exactly two fields, both holding
   immutable values, so the pre-batch state is a two-pointer snapshot.
   Any exception mid-batch (fuel, a governed ceiling, an injected
   fault) restores it before re-raising — and a degradation latched by
   an inner engine is promoted back to an abort, because silently
   storing an under-approximated materialization would poison every
   later update. *)
let update t u =
  Obs.span "incremental.datalog_update" @@ fun () ->
  let old_edb = t.edb and old_result = t.result in
  let pre_degraded = Limits.degraded t.fuel in
  let rollback () =
    t.edb <- old_edb;
    t.result <- old_result
  in
  try
    let r = update_exn t u in
    if Limits.degraded t.fuel <> pre_degraded then begin
      rollback ();
      Limits.fail_degraded t.fuel
    end;
    r
  with e ->
    rollback ();
    raise e
