(** Instantiation of safe programs into propositional form.

    Grounding proceeds over the {e positive envelope}: the least set of
    facts derivable when every negative literal is ignored. For safe
    programs over a finite database this envelope is finite unless
    interpreted functions generate fresh values without bound; the [fuel]
    budget turns that (undecidable — Prop 6.3) divergence into a
    {!Recalg_kernel.Limits.Diverged} exception.

    Every rule instance whose positive atoms lie in the envelope and whose
    (in)equality literals hold is emitted; negative literals are
    {e recorded}, not decided — deciding them is the job of the semantics
    (inflationary, well-founded, valid, stable) applied afterwards. *)

exception Unsafe of string
(** Raised when a rule body admits no evaluable literal ordering; the
    same exception as {!Store.Unsafe} and {!Seminaive.Unsafe}. *)

val ground :
  ?fuel:Recalg_kernel.Limits.fuel ->
  ?strategy:[ `Seminaive | `Naive ] ->
  Program.t -> Edb.t -> Propgm.t
(** [strategy] (default [`Seminaive]) selects delta-restricted
    instantiation or full re-instantiation every round — the two produce
    identical propositional programs; the naive mode is the reference
    the tests hold the semi-naive one to, in output and in allocation
    growth. The rounds are {!Store.rounds}, with every rule body in its
    written order ({!Store.ordered}). *)

(** Resident grounding maintained under {!Edb.Update} batches.

    The envelope is monotone in the extensional database (negative
    literals never filter during grounding), so insertions continue the
    semi-naive instantiation from the materialized state. Deletions
    retract: the deleted facts' axiom rules are removed, atom liveness is
    recomputed over the remaining ground rules ({!Fixpoint.lfp} with
    every negative literal licensed), dead rules and dead envelope
    tuples are pruned, and an unrestricted first round plus the closing
    rounds restore exactness.

    Interned atoms are never forgotten — a stale atom heads no rule and
    is therefore false under every semantics, so the maintained program
    is {!Interp.equal}-indistinguishable from grounding the updated
    database from scratch (the guarantee QCheck exercises in
    [test_incremental.ml]). *)
module Live : sig
  type t

  val start : ?fuel:Recalg_kernel.Limits.fuel -> Program.t -> Edb.t -> t
  (** Ground [program] over [edb], as {!ground} does, and keep the
      instantiation state resident. *)

  val edb : t -> Edb.t
  (** The current (post-update) extensional database. *)

  val propgm : t -> Propgm.t
  (** The current propositional program, for the semantics engines. *)

  val update : t -> Edb.Update.t -> Propgm.t
  (** Apply a batch and return the repaired propositional program.

      All-or-nothing: if anything raises mid-batch (fuel exhaustion, a
      governed-budget ceiling, an injected fault), the resident state is
      rolled back to the pre-batch checkpoint before the exception
      propagates — the grounding never holds a half-applied update. *)

  type checkpoint
  (** A cheap (pointer-copy) snapshot of the resident state. *)

  val checkpoint : t -> checkpoint

  val restore : t -> checkpoint -> unit
  (** Rewind to a checkpoint taken on this [t]. Used by {!update}
      internally and by {!Run.Live} to also cover failures in the
      solve phase that follows grounding. *)
end
