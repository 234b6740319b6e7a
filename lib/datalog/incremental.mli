(** Incremental maintenance of materialized Datalog results.

    Holds the full stratified materialization (EDB plus every derived
    relation) resident and repairs it under {!Edb.Update} batches:

    - {b insert-only} batches into negation-free programs continue the
      semi-naive fixpoint from the old materialization
      ({!Seminaive.resume}) — the old result is below the new least
      fixpoint, so the extension converges to exactly the from-scratch
      answer;
    - batches with {b deletions} into negation-free programs run DRed
      (delete-and-rederive), at a cost bounded by the facts it touches:
      delta-restricted rounds over one set of stores on the pre-update
      state overdelete every fact with a derivation step through a
      deleted fact ({!Seminaive.dependents}, counted by
      [incr/dred_round] and [incr/dred_deleted]); each overdeleted fact
      is then checked against the rules for its predicate, over the
      survivors and the new EDB ({!Seminaive.rederive}); and the
      rederived facts with the insertions seed one resumed run of delta
      rounds ({!Seminaive.resume});
    - programs with {b negation} anywhere recompute via
      {!Seminaive.stratified} — counted by the [incr/recompute]
      observability counter, alongside [incr/extend], [incr/dred],
      [incr/insertions] and [incr/retractions].

    The contract, tested by QCheck in [test_incremental.ml]: after any
    update sequence, {!result} equals from-scratch stratified evaluation
    of the final database, byte for byte. *)

open Recalg_kernel

type t

val init : ?fuel:Limits.fuel -> Program.t -> Edb.t -> (t, string) result
(** Materialize the stratified result; [Error] when the program is
    unsafe or not stratified (same conditions as
    {!Seminaive.stratified}). *)

val edb : t -> Edb.t
(** The current (post-update) extensional database. *)

val result : t -> Edb.t
(** The current materialization: EDB and all derived relations. *)

val holds : t -> string -> Value.t list -> bool

val update : t -> Edb.Update.t -> Edb.t
(** Apply a batch and return the repaired materialization. *)
