type sort = string
type op = { name : string; arg_sorts : sort list; result : sort }
type t = { sorts : sort list; ops : op list }

let op name arg_sorts result = { name; arg_sorts; result }
let constant name sort = { name; arg_sorts = []; result = sort }

let make ~sorts ~ops =
  let bad_op =
    List.find_opt
      (fun o ->
        (not (List.mem o.result sorts))
        || List.exists (fun s -> not (List.mem s sorts)) o.arg_sorts)
      ops
  in
  (match bad_op with
  | Some o -> invalid_arg ("Signature.make: op " ^ o.name ^ " uses an undeclared sort")
  | None -> ());
  let rec dup names =
    match names with
    | [] -> None
    | n :: rest -> if List.mem n rest then Some n else dup rest
  in
  (match dup (List.map (fun o -> o.name) ops) with
  | Some n -> invalid_arg ("Signature.make: op " ^ n ^ " declared twice")
  | None -> ());
  { sorts; ops }

let sorts t = t.sorts
let ops t = t.ops
let find_op t name = List.find_opt (fun o -> String.equal o.name name) t.ops
let has_sort t sort = List.mem sort t.sorts

let union a b =
  let sorts = a.sorts @ List.filter (fun s -> not (List.mem s a.sorts)) b.sorts in
  let ops =
    a.ops
    @ List.filter
        (fun o ->
          match find_op a o.name with
          | Some o' ->
            if o' = o then false
            else invalid_arg ("Signature.union: conflicting declarations of " ^ o.name)
          | None -> true)
        b.ops
  in
  { sorts; ops }

let pp ppf t =
  Fmt.pf ppf "@[<v>sorts: %a@ " Fmt.(list ~sep:comma string) t.sorts;
  List.iter
    (fun o ->
      Fmt.pf ppf "%s : %a -> %s@ " o.name Fmt.(list ~sep:(any " , ") string)
        o.arg_sorts o.result)
    t.ops;
  Fmt.pf ppf "@]"
