(** Queries in the paper's form: "a set of rules, and a query of the form
    R(x)?" (Section 4). The answer is read off the valid model of the
    program over the database.

    A goal is an atom whose arguments may mix variables and ground terms;
    answers are the substitutions (presented as tuples) under which the
    goal is certainly true, plus those under which it is undefined. *)

open Recalg_kernel

type answer = {
  tuple : Value.t list;  (** the goal predicate's full argument tuple *)
  bindings : (string * Value.t) list;  (** goal variables, first-occurrence order *)
  status : Tvl.t;  (** [True] or [Undef]; false tuples are not listed *)
}

val ask : ?fuel:Limits.fuel -> Program.t -> Edb.t -> Literal.atom -> answer list
(** Evaluate under the valid semantics and match the goal against every
    true and undefined fact of its predicate. *)

val ask_interp : Interp.t -> Builtins.t -> Literal.atom -> answer list
(** Same, against an already computed interpretation. *)

val holds : ?fuel:Limits.fuel -> Program.t -> Edb.t -> Literal.atom -> Tvl.t
(** Ground goal only: its three-valued status. Raises [Invalid_argument]
    on a non-ground goal. *)
