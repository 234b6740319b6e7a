module Obs = Recalg_obs.Obs

let valid ?fuel program edb =
  Obs.span "run.valid" @@ fun () ->
  Valid.solve (Grounder.ground ?fuel program edb)

let wellfounded ?fuel program edb =
  Obs.span "run.wellfounded" @@ fun () ->
  Wellfounded.solve (Grounder.ground ?fuel program edb)

let inflationary ?fuel program edb =
  Obs.span "run.inflationary" @@ fun () ->
  Inflationary.solve (Grounder.ground ?fuel program edb)

let stable ?fuel ?max_residue program edb =
  Obs.span "run.stable" @@ fun () ->
  Stable.models ?max_residue (Grounder.ground ?fuel program edb)

let stratified ?fuel program edb =
  Obs.span "run.stratified" @@ fun () ->
  Seminaive.stratified ?fuel program edb

let holds ?fuel program edb pred args = Interp.holds (valid ?fuel program edb) pred args

module Live = struct
  type semantics = [ `Valid | `Wellfounded | `Inflationary ]

  type t = {
    semantics : semantics;
    ground : Grounder.Live.t;
    mutable interp : Interp.t;
  }

  let solve semantics pg =
    match semantics with
    | `Valid | `Wellfounded -> Wellfounded.solve pg
    | `Inflationary -> Inflationary.solve pg

  let start ?fuel ~semantics program edb =
    Obs.span "run.live_start" @@ fun () ->
    let ground = Grounder.Live.start ?fuel program edb in
    { semantics; ground; interp = solve semantics (Grounder.Live.propgm ground) }

  let interp t = t.interp
  let edb t = Grounder.Live.edb t.ground

  (* [Grounder.Live.update] rolls itself back on its own failures, but
     the solve phase runs after the grounding committed — the outer
     checkpoint also rewinds the grounder when solving fails, so [t]
     always holds a matching (edb, grounding, interpretation) triple. *)
  let update t u =
    Obs.span "run.live_update" @@ fun () ->
    let cp = Grounder.Live.checkpoint t.ground in
    try
      let pg = Grounder.Live.update t.ground u in
      t.interp <- solve t.semantics pg;
      t.interp
    with e ->
      Grounder.Live.restore t.ground cp;
      raise e
end

let with_obs sink f =
  Obs.with_sink sink @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      (* Fold the kernel's interner statistics into the same stream, so
         memo/intern behaviour lands next to the engine metrics. *)
      let s = Recalg_kernel.Value.Stats.snapshot () in
      Obs.count "value/intern_hits" s.Recalg_kernel.Value.Stats.hits;
      Obs.count "value/intern_misses" s.Recalg_kernel.Value.Stats.misses;
      Obs.count "value/live_nodes" s.Recalg_kernel.Value.Stats.live;
      Obs.count "value/intern_contended" s.Recalg_kernel.Value.Stats.contended;
      Obs.gauge "value/buckets" (float_of_int s.Recalg_kernel.Value.Stats.buckets);
      Obs.gauge "value/longest_chain"
        (float_of_int s.Recalg_kernel.Value.Stats.max_bucket);
      Obs.gauge "value/ids_stamped"
        (float_of_int s.Recalg_kernel.Value.Stats.total_ids);
      Obs.count "value/mem_indexed" s.Recalg_kernel.Value.Stats.mem_indexed;
      Obs.count "value/mem_declined" s.Recalg_kernel.Value.Stats.mem_declined;
      let p = Recalg_kernel.Pool.Stats.snapshot () in
      Obs.gauge "pool/domains" (float_of_int p.Recalg_kernel.Pool.Stats.domains);
      Obs.count "pool/tasks" p.Recalg_kernel.Pool.Stats.tasks;
      Obs.count "pool/batches" p.Recalg_kernel.Pool.Stats.batches)
    f
