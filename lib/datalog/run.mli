(** One-call evaluation entry points: ground, then solve under the chosen
    semantics. *)

open Recalg_kernel

type order = [ `Syntactic | `Stats ]
(** Body-literal ordering for the underlying grounder or relational
    evaluator ([`Stats] = smallest estimated relation first, see
    {!Cardest}); results, rounds, and fuel are identical under every
    ordering — only enumeration cost changes. *)

val valid : ?fuel:Limits.fuel -> ?order:order -> Program.t -> Edb.t -> Interp.t
(** The paper's semantics of choice (Section 2.2). *)

val wellfounded :
  ?fuel:Limits.fuel -> ?order:order -> Program.t -> Edb.t -> Interp.t

val inflationary :
  ?fuel:Limits.fuel -> ?order:order -> Program.t -> Edb.t -> Interp.t

val stable :
  ?fuel:Limits.fuel -> ?max_residue:int -> ?order:order -> Program.t ->
  Edb.t -> Interp.t list

val stratified :
  ?fuel:Limits.fuel -> ?order:order -> Program.t -> Edb.t ->
  (Edb.t, string) result

val holds :
  ?fuel:Limits.fuel -> Program.t -> Edb.t -> string -> Value.t list -> Tvl.t
(** Valid-semantics truth value of one ground query "R(ā)?" (Section 4's
    query form). *)

(** Resident evaluation under {!Edb.Update} batches for the
    grounding-based semantics: the grounding is maintained
    differentially ({!Grounder.Live} — semi-naive extension on insert,
    liveness retraction on delete), then the chosen semantics re-solves
    the repaired propositional program. Grounding dominates evaluation
    cost on these paths, so the maintenance is where the win is; the
    propositional solve is linear-ish in the ground program.

    Stratified semantics has no grounding to maintain — use
    {!Incremental} for its differential path. *)
module Live : sig
  type t
  type semantics = [ `Valid | `Wellfounded | `Inflationary ]

  val start :
    ?fuel:Limits.fuel -> ?order:order -> semantics:semantics -> Program.t ->
    Edb.t -> t

  val interp : t -> Interp.t
  (** The current interpretation (post last update). *)

  val edb : t -> Edb.t

  val update : t -> Edb.Update.t -> Interp.t
  (** Apply a batch, repair the grounding, and re-solve. *)
end

val with_obs : Recalg_obs.Sink.t -> (unit -> 'a) -> 'a
(** Run a thunk with the given observability sink installed
    ({!Recalg_obs.Obs.with_sink}): every engine invoked inside reports
    spans and metrics to it. Before the sink is flushed and removed, the
    kernel's {!Value.Stats} snapshot is folded into the stream — and so
    into the metrics registry when it is collecting — as the
    [value/intern_hits], [value/intern_misses], [value/live_nodes] and
    [value/intern_contended] counters and the [value/buckets],
    [value/longest_chain] and [value/ids_stamped] gauges, next to the
    pool's [pool/*] statistics. *)
