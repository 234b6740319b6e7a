(** Operation definitions — the recursive-equation extension of Section
    3.2.

    A definition is one equation [f(x1, ..., xn) = exp(x1, ..., xn)] whose
    right side is an algebra expression over exactly the parameters (all
    of set type). Definitions may be recursive; an [algebra=] or
    [IFP-algebra=] program is a set of such definitions together with the
    database it queries.

    Recursion is supported through {e nullary} defined constants (the form
    every construction in the paper uses — [WIN], [S^e_c], the simulation
    constants [P_i^a] of Proposition 6.1). Parameterised definitions are a
    modularity device and must be non-recursive; {!inline} expands them,
    after which only nullary names remain as unknowns. A parameterised
    definition that is recursive (directly or through other parameterised
    definitions) is reported as an error by {!validate}. *)

type def = { name : string; params : string list; body : Expr.t }

type t

val make : ?builtins:Recalg_kernel.Builtins.t -> def list -> t
val define : string -> string list -> Expr.t -> def
val constant : string -> Expr.t -> def
(** Nullary definition [S = exp]. *)

val builtins : t -> Recalg_kernel.Builtins.t
val defs : t -> def list
val find : t -> string -> def option
val constant_names : t -> string list
(** Names of the nullary definitions, in declaration order. *)

val constant_bodies : t -> (string * Expr.t) list
(** Nullary definitions as [(name, body)] pairs, in declaration order —
    the equation system the recursive evaluator solves. *)

val validate : t -> (unit, string) result
(** Checks: names distinct; bodies use only declared parameters; call
    arities match; no recursion through parameterised definitions (the
    error names a call edge on the cycle). *)

val inline : t -> Expr.t -> Expr.t
(** Expand every [Call] to a parameterised definition (and [Rel]
    references to nullary {e non-recursive} aliases are left as is —
    nullary names are resolved by the evaluators). Raises
    [Invalid_argument] on arity mismatch or unknown operation, or if
    parameterised definitions are recursive. *)

val inline_all : t -> t
(** Inline the bodies of all nullary definitions, dropping parameterised
    ones: the result has only nullary definitions whose bodies contain no
    [Call] nodes. *)

val components : t -> string list list
(** The strongly connected components of an inlined program's
    constants ({!inline_all}), where [n] depends on [m] when the defined
    constant [m] occurs free in [n]'s body. Every component comes after
    the components it depends on, and lists its members in declaration
    order. *)

val pp : Format.formatter -> t -> unit
(** One [let name = body;] line per definition, in the [.alg] syntax
    ({!Expr.pp}). *)
