(** Concrete syntax for [algebra=] programs.

    {v
    % a program is a list of definitions and one optional query
    let win = pi1(move - (pi1(move) x win));
    let evens = {0} + map[add(id, 2)](evens);
    let inter(a, b) = $a - ($a - $b);
    query win;
    v}

    Expressions: [+] union, [-] difference, [x] product (all right
    associative, equal precedence — parenthesise), [{e1, e2}] set
    literals, [pi1]/[pi2]/... projections, [sel[pred](e)] selection,
    [map[efun](e)] restructuring, [ifp v. e] inflationary fixpoints,
    [$a] parameters, [f(e1, ..., en)] calls of defined operations, bare
    names for relations and defined constants.

    Element functions: [id], [pi1], [pi2], ..., constants (integers,
    [true], [false], strings, symbols, [{...}] sets), [[f1, f2]] tuple
    formation, [f . g] composition (right associative), [name(f1, ...,
    fn)] function application (interpreted or constructor),
    [arg(name, i)] constructor destructors.

    Tests: [f = g], [f != g], [f < g], [f <= g], [f in g],
    [is(name, arity, f)], [test and test], [test or test], [not test],
    [true], [false]; [and] binds tighter than [or].

    Values inside set literals: integers ([-1] included), [true] and
    [false], ["..."] strings with the escapes OCaml's [%S] writes,
    symbols, [f(v1, ..., vn)] constructor values ([f()] when nullary),
    [\[v1, v2\]] tuples, nested [{...}] sets.

    The printers refuse a name spelled like a reserved word
    ({!Efun.keywords}) or a projection ({!Efun.pp_name}). [x] is the
    product operator between two expressions and a name elsewhere. *)

open Recalg_kernel

type program = { defs : Defs.t; query : Expr.t option }

val parse_expr : ?builtins:Builtins.t -> string -> (Expr.t, string) result
val parse_program : ?builtins:Builtins.t -> string -> (program, string) result
val parse_program_exn : ?builtins:Builtins.t -> string -> program
