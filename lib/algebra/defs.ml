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

(* Dependency edges among parameterised definitions through Call nodes. *)
let param_def_deps t =
  List.concat_map
    (fun d ->
      if d.params = [] then []
      else
        List.filter_map
          (fun callee ->
            match find t callee with
            | Some callee_def when callee_def.params <> [] -> Some (d.name, callee)
            | Some _ | None -> None)
          (Expr.called_ops d.body))
    t.defs

let has_cycle edges nodes =
  (* Longest-path style detection: if following edges more than |nodes|
     steps is possible, there is a cycle. *)
  let n = List.length nodes in
  let reachable_steps = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace reachable_steps v 0) nodes;
  let changed = ref true in
  let cycle = ref None in
  while !changed && !cycle = None do
    changed := false;
    List.iter
      (fun (a, b) ->
        let da = Option.value ~default:0 (Hashtbl.find_opt reachable_steps a) in
        let db = Option.value ~default:0 (Hashtbl.find_opt reachable_steps b) in
        if db < da + 1 then begin
          Hashtbl.replace reachable_steps b (da + 1);
          if da + 1 > n then cycle := Some (a, b);
          changed := true
        end)
      edges
  done;
  !cycle

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
        let param_names =
          List.filter_map (fun d -> if d.params <> [] then Some d.name else None) t.defs
        in
        match has_cycle (param_def_deps t) param_names with
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

(* Tarjan's algorithm over the edges [n -> m], [m] a defined constant
   free in [n]'s body. A component is complete when its root's DFS
   returns, after every component it reaches, so the output order puts
   dependencies first. *)
let components t =
  let bodies = constant_bodies t in
  let names = List.map fst bodies in
  let deps n = List.filter (fun m -> List.mem m names) (Expr.rel_names (List.assoc n bodies)) in
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 and on_stack = Hashtbl.create 16 in
  let stack = ref [] and next = ref 0 and out = ref [] in
  let rec visit v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          visit w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (deps v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop members =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: members else pop (w :: members)
        | [] -> assert false
      in
      let members = pop [] in
      out := List.filter (fun n -> List.mem n members) names :: !out
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then visit n) names;
  List.rev !out

let pp ppf t =
  List.iter
    (fun d ->
      match d.params with
      | [] -> Fmt.pf ppf "%s = %a@ " d.name Expr.pp d.body
      | ps ->
        Fmt.pf ppf "%s(%a) = %a@ " d.name Fmt.(list ~sep:comma string) ps Expr.pp d.body)
    t.defs
