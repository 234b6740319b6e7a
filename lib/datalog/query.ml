open Recalg_kernel

type answer = {
  tuple : Value.t list;
  bindings : (string * Value.t) list;
  status : Tvl.t;
}

let match_goal builtins (goal : Literal.atom) tuple =
  let rec go subst args vals =
    match args, vals with
    | [], [] -> Some subst
    | t :: args', v :: vals' -> (
      match Dterm.match_value builtins t v subst with
      | Some subst' -> go subst' args' vals'
      | None -> None)
    | _, _ -> None
  in
  go Subst.empty goal.Literal.args tuple

let ask_interp interp builtins (goal : Literal.atom) =
  let vars = Literal.atom_vars goal in
  let of_tuples status tuples =
    List.filter_map
      (fun tuple ->
        match match_goal builtins goal tuple with
        | Some subst ->
          let bindings =
            List.filter_map
              (fun x -> Option.map (fun v -> (x, v)) (Subst.find x subst))
              vars
          in
          Some { tuple; bindings; status }
        | None -> None)
      tuples
  in
  of_tuples Tvl.True (Interp.true_tuples interp goal.Literal.pred)
  @ of_tuples Tvl.Undef (Interp.undef_tuples interp goal.Literal.pred)

let ask ?fuel program edb goal =
  ask_interp (Run.valid ?fuel program edb) program.Program.builtins goal

let holds ?fuel program edb (goal : Literal.atom) =
  match Literal.ground_atom program.Program.builtins Subst.empty goal with
  | None -> invalid_arg "Query.holds: goal must be ground"
  | Some (pred, args) ->
    Interp.holds (Run.valid ?fuel program edb) pred args
