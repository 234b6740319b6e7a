(** Deductive programs: a set of rules plus the interpreted functions they
    may use in terms. *)

open Recalg_kernel

type t = { rules : Rule.t list; builtins : Builtins.t }

val make : ?builtins:Builtins.t -> Rule.t list -> t
(** Defaults to {!Recalg_kernel.Builtins.default}. *)

val bucket_rules : string list list -> Rule.t list -> Rule.t list list
(** [bucket_rules groups rules] is, for each group of predicates, the
    rules whose head is in it, in the order of [rules]: one pass over
    [rules]. A rule whose head is in no group is dropped. *)

val idb_preds : t -> string list
(** Predicates defined by some rule head. *)

val all_preds : t -> string list
(** Every predicate mentioned anywhere (heads and bodies). *)

val edb_preds : t -> string list
(** Body predicates never appearing in a head — expected to come from the
    extensional database. *)

val dependencies : t -> (string * string * [ `Pos | `Neg ]) list
(** Edges [p -> q] when a rule for [p] uses [q] in its body, labelled by
    the polarity of the use. *)

val union : t -> t -> t
(** Rule union; builtins of the left argument win on name clashes. *)

val constants : t -> Value.t list
(** All constant values syntactically occurring in the rules. *)

val function_symbols : t -> (string * int) list
(** Function names with arities applied in rule terms. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
