(** Concrete syntax for deductive programs.

    {v
    % comments run to end of line
    move(a, b).                          % ground fact -> EDB
    win(X) :- move(X, Y), not win(Y).    % rule
    shift(Y) :- d(X), Y = add(X, 1).     % interpreted function
    big(X)   :- d(X), X != 0.            % disequality
    v}

    Identifiers starting with an uppercase letter or [_] are variables;
    lowercase identifiers are predicate names, symbol constants, or — when
    applied to arguments — function symbols (interpreted when registered
    in the builtins, free constructors otherwise). The bare identifiers
    [true] and [false] denote the boolean values (useful against
    boolean-valued builtins, e.g. [leq(X, B) = true]) and can therefore
    not name nullary predicates. *)

open Recalg_kernel

val parse_rule : ?builtins:Builtins.t -> string -> (Rule.t, string) result

val parse : ?builtins:Builtins.t -> string -> (Program.t * Edb.t, string) result
(** Ground facts become the extensional database; everything else becomes
    program rules. *)

val parse_exn : ?builtins:Builtins.t -> string -> Program.t * Edb.t
(** Raises [Invalid_argument] with the parse error. *)
