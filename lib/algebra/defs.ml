open Recalg_kernel

type def = { name : string; params : string list; body : Expr.t }
type t = { defs : def list; builtins : Builtins.t }

let make ?(builtins = Builtins.default) defs = { defs; builtins }
let define name params body = { name; params; body }
let constant name body = { name; params = []; body }
let builtins t = t.builtins
let defs t = t.defs
let find t name = List.find_opt (fun d -> String.equal d.name name) t.defs

let constant_names t =
  List.filter_map (fun d -> if d.params = [] then Some d.name else None) t.defs

let constant_bodies t =
  List.filter_map (fun d -> if d.params = [] then Some (d.name, d.body) else None) t.defs

(* Graph vertices [0 .. n-1] for [names], numbered in list order: the
   lookup from a name to its vertex. *)
let numbering names =
  let ids = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace ids name i) names;
  Hashtbl.find_opt ids

(* The first call edge between parameterised definitions whose two ends
   share a strongly connected component: an edge on a cycle. *)
let param_cycle t =
  let defs = Array.of_list t.defs in
  let n = Array.length defs in
  let id = numbering (List.map (fun d -> d.name) t.defs) in
  let callees =
    Array.map
      (fun d ->
        if d.params = [] then []
        else
          List.filter
            (fun j -> defs.(j).params <> [])
            (List.filter_map id (Expr.called_ops d.body)))
      defs
  in
  let comp = Graph.index n (Graph.sccs n (Array.get callees)) in
  List.find_map
    (fun i ->
      List.find_map
        (fun j ->
          if comp.(i) = comp.(j) then Some (defs.(i).name, defs.(j).name) else None)
        callees.(i))
    (List.init n Fun.id)

let validate t =
  let names = List.map (fun d -> d.name) t.defs in
  let rec dup_in xs =
    match xs with
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup_in rest
  in
  match dup_in names with
  | Some x -> Error (Fmt.str "operation %s defined twice" x)
  | None -> (
    let bad_param =
      List.find_map
        (fun d ->
          let used = Expr.params d.body in
          match List.find_opt (fun x -> not (List.mem x d.params)) used with
          | Some x -> Some (d.name, x)
          | None -> None)
        t.defs
    in
    match bad_param with
    | Some (name, x) ->
      Error (Fmt.str "definition of %s uses undeclared parameter %s" name x)
    | None -> (
      let bad_call =
        List.find_map
          (fun d ->
            let rec check e =
              match e with
              | Expr.Call (callee, args) -> (
                match find t callee with
                | None -> Some (Fmt.str "%s calls unknown operation %s" d.name callee)
                | Some cd when List.length cd.params <> List.length args ->
                  Some
                    (Fmt.str "%s calls %s with %d arguments (expects %d)" d.name
                       callee (List.length args) (List.length cd.params))
                | Some _ -> List.find_map check args)
              | Expr.Rel _ | Expr.Lit _ | Expr.Param _ -> None
              | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Product (a, b) -> (
                match check a with
                | Some e -> Some e
                | None -> check b)
              | Expr.Select (_, a) | Expr.Map (_, a) | Expr.Ifp (_, a) -> check a
            in
            check d.body)
          t.defs
      in
      match bad_call with
      | Some msg -> Error msg
      | None -> (
        match param_cycle t with
        | Some (a, b) ->
          Error
            (Fmt.str
               "parameterised definitions %s and %s are mutually recursive; \
                recursion is only supported through nullary constants"
               a b)
        | None -> Ok ())))

let inline t e =
  (* The depth guard catches recursion through parameterised definitions
     (which validate rejects) even when inline is called directly. *)
  let rec go depth e =
    if depth > 10_000 then
      invalid_arg "Defs.inline: parameterised definitions are recursive"
    else
      match e with
      | Expr.Call (name, args) -> (
        match find t name with
        | None -> invalid_arg (Fmt.str "Defs.inline: unknown operation %s" name)
        | Some d ->
          if List.length d.params <> List.length args then
            invalid_arg (Fmt.str "Defs.inline: arity mismatch calling %s" name)
          else if d.params = [] then
            (* A nullary call is just a reference to the defined constant. *)
            Expr.Rel name
          else
            let args' = List.map (go depth) args in
            go (depth + 1) (Expr.subst_params (List.combine d.params args') d.body))
      | Expr.Rel _ | Expr.Lit _ | Expr.Param _ -> e
      | Expr.Union (a, b) -> Expr.Union (go depth a, go depth b)
      | Expr.Diff (a, b) -> Expr.Diff (go depth a, go depth b)
      | Expr.Product (a, b) -> Expr.Product (go depth a, go depth b)
      | Expr.Select (p, a) -> Expr.Select (p, go depth a)
      | Expr.Map (f, a) -> Expr.Map (f, go depth a)
      | Expr.Ifp (x, a) -> Expr.Ifp (x, go depth a)
  in
  go 0 e

let inline_all t =
  match validate t with
  | Error msg -> invalid_arg ("Defs.inline_all: " ^ msg)
  | Ok () ->
    let nullary = List.filter (fun d -> d.params = []) t.defs in
    { defs = List.map (fun d -> { d with body = inline t d.body }) nullary;
      builtins = t.builtins }

(* The SCCs of the edges [n -> m], [m] a defined constant free in
   [n]'s body, with the constants numbered in declaration order. *)
let components t =
  let bodies = Array.of_list (constant_bodies t) in
  let id = numbering (List.map fst (Array.to_list bodies)) in
  Graph.sccs (Array.length bodies) (fun i ->
      List.filter_map id (Expr.rel_names (snd bodies.(i))))
  |> List.map (List.map (fun i -> fst bodies.(i)))

let pp ppf t =
  let params ppf = function
    | [] -> ()
    | ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") Efun.pp_name) ps
  in
  let pp_def ppf d =
    Fmt.pf ppf "@[<h>let %a%a = %a;@]" Efun.pp_name d.name params d.params Expr.pp d.body
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_def) t.defs
