(** Incremental view maintenance for the algebra evaluators.

    Holds a query's full operator tree {e materialized} — every node keeps
    its current value resident — and repairs it under update batches by
    pushing each node's change ({!Delta.change}: the tuples it gains and
    the tuples it loses) bottom-up through {!Delta}'s rules, the same
    rules the semi-naive loops derive through, instead of recomputing
    from scratch. A rule reads its operands' changes and resident
    values, which are current once the operands are repaired; a [MAP]
    node also keeps how many preimages each image has, so it knows which
    images lose their last one. Filling the tree ({!init}) is the same
    walk from the empty database.

    [IFP] nodes are macro-nodes with three maintenance regimes, chosen per
    batch, each of which knows its change without comparing values:

    - {b extension} (insert-only inputs, positive body): continue the
      inflationary iteration from the old fixpoint — a pre-fixpoint of
      the enlarged round map — by semi-naive delta rounds; the change
      adds the tuples the rounds found;
    - {b delete & rederive} (deletions, positive body): overdelete the
      closure of tuples whose derivations touch a deleted fact (computed
      against the pre-update state), then rederive survivors with one
      full round and close; the change removes the overdeleted tuples
      that were not rederived;
    - {b recompute} (non-positive body, or a changed input occurring
      negatively): conservative from-scratch evaluation via {!Eval},
      counted by the [incr/recompute] observability counter.

    The contract, tested by QCheck in [test_incremental.ml]: after any
    sequence of updates, {!value} is {e byte-identical} to evaluating the
    query from scratch on the final database. *)

open Recalg_kernel

exception Undefined_relation of string
exception Recursive_definition of string

(** Update batches: per relation, the summed weights of its insertions
    ([+1] each) and deletions ([-1] each), a {!Zset.t}. A batch is
    declarative — a tuple is in the updated relation iff its old
    membership plus its weight is positive, so inserting an
    already-present tuple or deleting an absent one is a no-op, and an
    insert and a delete of one tuple cancel. *)
module Update : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val insert : string -> Value.t -> t -> t
  val delete : string -> Value.t -> t -> t

  val apply : t -> Db.t -> Db.t
  (** The post-update database. Relations absent from the database
      start empty. *)

  val effective : Db.t -> t -> (string * Delta.change) list
  (** The exact change [apply] makes to each relation — [plus] the
      tuples it gains, [minus] the tuples it loses — relations [apply]
      leaves as they are dropped. *)

  val pp : Format.formatter -> t -> unit
end

type t
(** A materialized query: expression tree, per-node values, and the
    database they were computed against. *)

val init : ?fuel:Limits.fuel -> Defs.t -> Db.t -> Expr.t -> t
(** Build the tree (definitions fully inlined — parameterised by
    {!Defs.inline}, nullary constants bodily, as in {!Eval}) and evaluate
    it bottom-up. Raises {!Undefined_relation} on a free name missing from
    the database and {!Recursive_definition} on a recursive constant —
    recursive programs are {!Rec}'s business. *)

val value : t -> Value.t
(** The root's current value. *)

val db : t -> Db.t
(** The current (post-update) database. *)

val update : t -> Update.t -> Value.t
(** Apply a batch: advance the database, push deltas through the tree,
    return the repaired root value. Fuel is spent per fixpoint round, as
    in the from-scratch evaluators. *)

(** Resident solutions of recursive [algebra=] programs ({!Rec_eval}).

    Insert-only batches into a {e positive} program (all constants
    syntactically monotone, all IFPs positive, and no updated input
    occurring negatively) extend the old least solution by semi-naive
    rounds over the equation system; anything else falls back to a full
    {!Rec_eval.solve} (counted by [incr/recompute]). *)
module Rec : sig
  type t

  val init : ?fuel:Limits.fuel -> Defs.t -> Db.t -> t
  val db : t -> Db.t

  val constant : t -> string -> Rec_eval.vset
  (** Raises {!Undefined_relation} for an unknown name. *)

  val constant_names : t -> string list
  val update : t -> Update.t -> unit
end
