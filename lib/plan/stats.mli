(** Relation statistics feeding the cost-based planner.

    Per relation: exact cardinality and per-column distinct-value counts
    estimated from a bounded sample (naively scaled to the full
    cardinality). They come from a sampling pass over a live
    {!Recalg_algebra.Db} ({!of_db}/{!observe}); the planner adds literal
    cardinalities and the ones its re-planning hook observes
    mid-fixpoint. The planner never reads the metrics registry:
    observation does not steer planning.

    Distinct values are counted by {!Recalg_kernel.Value.id} — every
    value is interned, so a column's distinct values are exactly its
    distinct ids. The ids are only counted, never ordered, so no
    estimate depends on the interning order. *)

open Recalg_kernel

type t

val empty : t

val observe : string -> Value.t -> t -> t
(** Record (or replace) the stats of one named relation from its live
    value. *)

val of_db : Recalg_algebra.Db.t -> t
(** The sampling pass: one {!observe} per database relation. *)

val card : t -> string -> int option

val distinct : t -> string -> int -> int option
(** [distinct t name col]: column [0] is the whole element, column
    [i >= 1] the [i]-th tuple component. *)
