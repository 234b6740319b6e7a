(** Complex-object values, hash-consed.

    This is the common value universe shared by the algebraic query
    languages, the deductive engine and the specification layer. A value is
    an atomic constant (integer, string, boolean, or uninterpreted symbol),
    a tuple, a finite set, or a constructor term [Cstr (f, args)] — the
    latter represents elements of the Herbrand universe built with
    uninterpreted function symbols such as [succ(succ(0))].

    Sets are kept in a canonical form (strictly sorted, duplicate free), so
    structural equality of values coincides with semantic equality; this is
    the "equality is definable on the type" prerequisite the paper imposes
    on set element types (Section 2.1, footnote 1).

    Every value is a node stamped with a unique [id] and a precomputed
    [hash]; the smart constructors intern each node in a global table, so
    structurally equal values are physically equal, [equal] is a pointer
    comparison, [hash] is a field read, and [compare] short-circuits on
    shared subterms. The [id] is a construction-order stamp: stable within
    a run, not across runs — it must never influence ordering or any
    observable result (see DESIGN.md). *)

type t = private { node : node; id : int; hash : int }

and node = private
  | Int of int
  | Str of string
  | Bool of bool
  | Sym of string  (** uninterpreted atomic constant, e.g. a game position *)
  | Tuple of t list
  | Set of t list  (** invariant: strictly sorted w.r.t. [compare], no dups *)
  | Cstr of string * t list  (** constructor term over the Herbrand universe *)

val node : t -> node
(** Structure view — pattern-match the result against the [node]
    constructors. *)

val id : t -> int
(** Unique stamp of the node. Structurally equal values share one id;
    ids are assigned in construction order (from
    one atomic counter, so they stay unique under concurrent interning
    from pool domains) and are not stable across runs. No observable
    result may depend on them — {!compare} and {!hash} never do,
    {!mem} reads them only as bit positions, never as an order, and
    [Plan.Stats] counts distinct ids and never orders them. *)

(** {1 Constructors} *)

val int : int -> t
val str : string -> t
val bool : bool -> t
val sym : string -> t
val tuple : t list -> t
val pair : t -> t -> t

val set : t list -> t
(** [set vs] builds the canonical set containing exactly the elements of
    [vs]; duplicates are merged. *)

val empty_set : t
val singleton : t -> t
val cstr : string -> t list -> t
val tt : t
val ff : t

(** {1 Comparison} *)

val compare : t -> t -> int
(** Structural total order: [Int < Str < Bool < Sym < Tuple < Set < Cstr],
    lexicographic on children. The order itself never consults ids or
    hashes; physically equal (sub)terms compare [0] without a walk. *)

val equal : t -> t -> bool
(** Physical equality. Every value is interned, so it coincides with
    structural equality. *)

val hash : t -> int
(** The memoized structural FNV-1a hash: a field read, never a re-walk.
    It depends on structure alone, never on ids, so it is the same in
    every run; E13's and E14's committed fingerprints are built from it
    and compared across commits. *)

val hash_fold : int -> t -> int
(** [hash_fold acc v] mixes {!hash}[ v] into [acc] with the same FNV-style
    mixer used internally; the building block for hashing aggregates
    (fact tuples, join keys) without re-walking values. *)

(** {1 Instrumentation} *)

(** Counters of the intern table. *)
module Stats : sig
  type snapshot = {
    live : int;  (** nodes interned in the table *)
    buckets : int;  (** table bucket count, summed over shards *)
    max_bucket : int;  (** longest bucket chain in any shard *)
    hits : int;  (** constructor calls answered from the table *)
    misses : int;  (** constructor calls that interned a fresh node *)
    total_ids : int;  (** ids ever stamped; every stamp is an intern *)
    shards : int;  (** intern-table shards (fixed; selected by hash) *)
    contended : int;
        (** shard-lock acquisitions that found the lock held by another
            domain — the intern-contention signal surfaced by the
            observability layer; always [0] in single-domain runs *)
    mem_indexed : int;  (** membership bitmaps {!mem} built and stored *)
    mem_declined : int;
        (** sets {!mem} declined to index because their ids are too
            sparse; they keep being scanned *)
  }

  val snapshot : unit -> snapshot

  val reset_counters : unit -> unit
  (** Zero [hits], [misses], [contended], [mem_indexed] and
      [mem_declined]; the table, the id counter and the membership
      indexes are untouched. *)
end

(** {1 Set operations}

    All of these expect their set arguments to be [Set] values and raise
    [Invalid_argument] otherwise; they always return canonical sets. *)

val elements : t -> t list
val is_set : t -> bool
val cardinal : t -> int

val mem : t -> t -> bool
(** [mem x s] is [true] iff [x] is an element of [s]. A set of at most
    16 elements is scanned, exiting as soon as an element exceeds the
    probe. A larger set is scanned on its first probe; its second probe
    builds a bitmap over its elements' ids, and every later probe is a
    bit test. The bitmaps sit in a fixed table of 64 slots keyed by
    {!hash}, so a set whose slot another set took is scanned again until
    it is indexed anew. A set whose ids are too sparse for a bitmap no
    larger than its own element list keeps being scanned. Every path
    gives the same answer; {!Stats} counts the bitmaps built and the
    sets declined. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val product : t -> t -> t
(** [product a b] is the set of [pair x y] for [x] in [a], [y] in [b].
    Built in one pass: tuple comparison is lexicographic, so the pairs of
    two canonical sets are already strictly sorted. *)

val subset : t -> t -> bool
val add : t -> t -> t
val filter : (t -> bool) -> t -> t
val filter_map_set : (t -> t option) -> t -> t

val union_all : t list -> t
(** n-way union by balanced pairwise merging of the element lists,
    [O(total * log n)] rather than the [O(n * total)] of a left fold.
    Only the result is interned, not the intermediate merges. *)

(** {1 Tuple helpers} *)

val proj : int -> t -> t option
(** [proj i v] is the [i]-th component of tuple [v], 1-based like the
    paper's [pi_i]; [None] if [v] is not a tuple or [i] out of range. *)

(** {1 Printing} *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer b v] appends [v] to [b] as a literal the [.alg] parser
    reads back: integers in decimal, [true]/[false], strings escaped as
    by [%S], symbols bare, tuples as [[a, b]], sets as [{a, b}] and
    constructor values as [f(a, b)] or [f()] (the symbol [f] prints
    bare). One walk over the value: every other printer of values goes
    through it. *)

val cstr_to_buffer : Buffer.t -> string -> t list -> unit
(** [cstr_to_buffer b f args] appends what {!to_buffer} writes for
    [cstr f args], without interning that value: how a fact prints. *)

val to_string : t -> string
(** The bytes {!to_buffer} writes. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}[ v]. A scalar is one string token. A tuple, set
    or constructor value is one string inside one [h] box, so it lays
    out in any enclosing box as a box per element, with [", "] between
    elements, would: it never breaks inside, and Format breaks the line
    before it where it would open past the formatter's maximum
    indentation. *)
