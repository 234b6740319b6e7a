(** Sectioned relation stores, probed by argument, and the semi-naive
    round driver over them — the one join mechanism and the one rule
    loop of the bottom-up engines ({!Seminaive} and the {!Grounder}).

    A store holds a relation in three sections: [full] (facts
    from earlier rounds), [delta] (facts new in the current round) and
    [next] (facts discovered during the current round, invisible to
    probes until {!promote}). A positive literal probes [full], [delta]
    or both — the semi-naive split — and its arguments are evaluated
    under the current substitution once:
    - when every argument evaluates, the probe is one membership test;
    - when the first argument evaluates, the probe walks the run of the
      sorted section whose tuples start with its value
      ({!Tuples} is ordered lexicographically), so it needs no index;
    - when a later argument is the first that evaluates, it selects a
      bucket of a per-(section, argument) hash index keyed on
      [Value.hash], built on its first probe and dropped when the
      section changes, so no index outlives the section it was built
      from;
    - when none does, the probe scans the section.

    A walk and a bucket list their tuples in the set's order. *)

open Recalg_kernel

type t

type section = Full | Delta

val create : full:Tuples.t -> delta:Tuples.t -> t
(** A store over the given sections; [next] starts empty. Probing both
    sections enumerates [full ∪ delta] once only when they are disjoint,
    as the fixpoint loops keep them. *)

val full : t -> Tuples.t

val all : t -> Tuples.t
(** The union of the three sections. *)

val mem : t -> Value.t list -> bool
(** Membership in [full] or [delta] — the facts a probe can see. *)

val known : t -> Value.t list -> bool
(** Membership in any section, [next] included. *)

val add : t -> Value.t list -> unit
(** Add a fact to [next]; callers test {!known} first. *)

val promote : t -> unit
(** End a round: [full ∪ delta] becomes [full], [next] becomes [delta].
    Drops the indexes unless every section stays the same. *)

val set_delta : t -> Tuples.t -> unit
(** Replace the [delta] section, dropping only its indexes: the indexes
    over [full] stay. *)

val sections : t -> Tuples.t * Tuples.t * Tuples.t
(** [(full, delta, next)]: a pointer-copy snapshot. *)

val restore : t -> Tuples.t * Tuples.t * Tuples.t -> unit
(** Replace the sections and drop every index. *)

(** How a positive literal found its candidate tuples in one section. *)
type probe =
  | Hit  (** the tuple, a run of the section or an index bucket *)
  | Miss  (** nothing for the key: nothing to match *)
  | Scan  (** no argument was bound: the whole section *)

val split : int option -> int -> section list
(** The semi-naive split. [split (Some d) i] is the sections the positive
    literal at body position [i] probes when position [d] reads only the
    delta: [[Delta]] at [d], [[Full]] before it, both after it. With
    [None] every literal reads both sections. *)

val solve :
  Builtins.t ->
  ?subst:Subst.t ->
  store:(string -> t) ->
  sections:(int -> section list) ->
  neg:(Subst.t -> Literal.atom -> bool) ->
  count:(probe -> unit) ->
  Literal.t list ->
  (Subst.t -> unit) ->
  unit
(** [solve builtins ~subst ~store ~sections ~neg ~count body k] calls
    [k] on every extension of [subst] (default empty) satisfying the
    ordered [body]. The positive
    literal at position [i] matches the tuples of [sections i] of its
    predicate's store, in section order; a negative literal lets the
    substitution through when [neg] says so; (in)equalities evaluate or
    bind as in {!Dterm.match_value}. [count] sees one {!probe} per
    section probed. A probe may build and cache an index, so a store
    belongs to one domain at a time. *)

exception Unsafe of string
(** Raised when a rule body admits no evaluable literal ordering. *)

val ordered :
  Builtins.t -> Rule.t list -> (Rule.t * Literal.t list) list
(** Each rule with its body in {!Safety.evaluation_order}: the written
    order, a literal deferred only until its variables are bound. Raises
    {!Unsafe}. *)

type task = Rule.t * Literal.t list * int option
(** A rule, its ordered body, and the body position that reads only the
    delta ([None]: every literal reads both sections), as in {!split}. *)

val delta_tasks :
  (string, t) Hashtbl.t -> (Rule.t * Literal.t list) list -> task list
(** One task per positive literal whose predicate's store has a delta,
    in rule order and then body order. *)

val rounds :
  fuel:Limits.fuel ->
  what:string ->
  site:string ->
  derived:string ->
  first:[ `Full | `Delta ] ->
  variant:[ `Naive | `Seminaive ] ->
  fire:(task list -> unit) ->
  (string, t) Hashtbl.t ->
  (Rule.t * Literal.t list) list ->
  unit
(** [rounds ~fuel ~what ~site ~derived ~first ~variant ~fire stores
    rules] runs the rule loop to its fixpoint over [stores], every
    predicate's store. Each round hits the fault site [site], counts one
    [site] event, hands its tasks to [fire] (which adds what they derive
    to the stores' [next] sections), promotes every store and counts the
    facts now in a delta as [derived]. The first round fires every rule
    unrestricted ([`Full]) or only the delta tasks ([`Delta]); then,
    while some store has a delta, {!Limits.check} [fuel ~what] precedes
    a round of every rule unrestricted ([`Naive]) or of the delta tasks
    ([`Seminaive]). *)
