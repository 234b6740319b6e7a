(** Relation statistics feeding the cost-based planner.

    Per relation: exact cardinality, a structural fingerprint for cheap
    staleness detection, and per-column distinct-value counts estimated
    from a bounded sample (naively scaled to the full cardinality).
    Sources, in decreasing quality: a sampling pass over a live
    {!Recalg_algebra.Db} ({!of_db}/{!observe}) or a stats file persisted
    by a prior run ({!load}/{!save}). The planner never reads the
    metrics registry: observation does not steer planning.

    The fingerprint is {!Recalg_kernel.Value.hash} of the whole set
    value: a memoized structural FNV-1a hash, stable across processes
    and interning orders, so one hash read decides whether a persisted
    entry still describes the live relation. A fingerprint of [0] marks
    an entry with no identity; such entries are never considered
    {!fresh} but survive {!prune_stale} — they are estimates, not claims
    about a specific value. *)

open Recalg_kernel

type rel = {
  card : int;  (** exact cardinality at observation time *)
  fingerprint : int;  (** [Value.hash] of the set; [0] = unknown *)
  sampled : int;  (** elements inspected for [distinct] *)
  distinct : (int * int) list;
      (** per-column distinct counts, ascending by column; column [0] is
          the whole element, column [i >= 1] the [i]-th tuple component *)
}

type t

val empty : t
val is_empty : t -> bool

val default_sample : int
(** Elements inspected per relation by the sampling pass (512). *)

val observe : ?sample:int -> string -> Value.t -> t -> t
(** Record (or replace) the stats of one named relation from its live
    value. *)

val of_db : ?sample:int -> Recalg_algebra.Db.t -> t
(** The cheap sampling pass: one {!observe} per database relation. *)

val find : t -> string -> rel option
val card : t -> string -> int option
val distinct : t -> string -> int -> int option
val fingerprint : t -> string -> int option

val fresh : t -> string -> Value.t -> bool
(** The entry exists, has a real fingerprint, and matches the live
    value — one [Value.hash] read. *)

val prune_stale : Recalg_algebra.Db.t -> t -> t
(** Drop entries whose fingerprint contradicts the named relation's
    current value; entries for unknown relations or with fingerprint [0]
    are kept. *)

val merge : t -> t -> t
(** [merge older newer]: entries of [newer] win. *)

val save : string -> t -> unit
(** Persist atomically (tmp + rename via {!Recalg_kernel.Safe_io}): a
    crash mid-save leaves any previous file intact. *)

val load : string -> t option
(** [None] on a missing file, a version mismatch, or any parse error —
    stale or foreign files degrade to "no stats", never to a crash. A
    missing file is silent; a corrupt/truncated one warns on stderr. *)

val pp : Format.formatter -> t -> unit
