let add_unique x acc = if List.mem x acc then acc else x :: acc

(* Collect free names by polarity. [neg] is true under an odd number of
   difference right-hand sides. *)
let rec collect bound neg (pos_acc, neg_acc) e =
  match e with
  | Expr.Rel name ->
    if List.mem name bound then (pos_acc, neg_acc)
    else if neg then (pos_acc, add_unique name neg_acc)
    else (add_unique name pos_acc, neg_acc)
  | Expr.Lit _ | Expr.Param _ -> (pos_acc, neg_acc)
  | Expr.Union (a, b) | Expr.Product (a, b) ->
    collect bound neg (collect bound neg (pos_acc, neg_acc) a) b
  | Expr.Diff (a, b) ->
    collect bound (not neg) (collect bound neg (pos_acc, neg_acc) a) b
  | Expr.Select (_, a) | Expr.Map (_, a) -> collect bound neg (pos_acc, neg_acc) a
  | Expr.Ifp (x, a) -> collect (x :: bound) neg (pos_acc, neg_acc) a
  | Expr.Call (_, args) ->
    (* Without the callee's definition, arguments may be used at either
       polarity; be conservative and record both. *)
    List.fold_left
      (fun acc a -> collect bound true (collect bound false acc a) a)
      (pos_acc, neg_acc) args

let negative_names e = List.rev (snd (collect [] false ([], []) e))
let positive_names e = List.rev (fst (collect [] false ([], []) e))
let occurs_negatively e name = List.mem name (negative_names e)

let positive_ifp e =
  let ok = ref true in
  let rec walk e =
    (match e with
    | Expr.Ifp (x, body) ->
      (* Inside the body, x is free again for this check. *)
      let _, negs = collect [] false ([], []) body in
      if List.mem x negs then ok := false
    | Expr.Rel _ | Expr.Lit _ | Expr.Param _ | Expr.Union _ | Expr.Diff _
    | Expr.Product _ | Expr.Select _ | Expr.Map _ | Expr.Call _ ->
      ());
    match e with
    | Expr.Rel _ | Expr.Lit _ | Expr.Param _ -> ()
    | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Product (a, b) ->
      walk a;
      walk b
    | Expr.Select (_, a) | Expr.Map (_, a) | Expr.Ifp (_, a) -> walk a
    | Expr.Call (_, args) -> List.iter walk args
  in
  walk e;
  !ok

let monotone_in names e =
  positive_ifp e && not (List.exists (fun n -> List.mem n names) (negative_names e))

let monotone_syntactic defs name =
  let inlined = Defs.inline_all defs in
  match Defs.find inlined name with
  | None -> false
  | Some d -> monotone_in (Defs.constant_names inlined) d.Defs.body

let positive_program defs =
  let inlined = Defs.inline_all defs in
  let names = Defs.constant_names inlined in
  List.for_all (fun (_, body) -> monotone_in names body) (Defs.constant_bodies inlined)
