open Recalg_kernel

type analysis =
  | Stratified of string list list
  | Not_stratified of string * string

(* The least stratification: stratum(h) >= stratum(q) for every rule
   with head h and a positive body literal on q, and stratum(h) >=
   stratum(q) + 1 when the literal is negated. It exists iff no negative
   edge lies inside a strongly connected component. The members of a
   component then share one stratum: the largest that its edges into
   earlier components force. Returns the predicates in
   {!Program.all_preds} order, their numbering, each one's stratum and
   the dependency edges. *)
let stratify p =
  let preds = Array.of_list (Program.all_preds p) in
  let n = Array.length preds in
  let ids = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) preds;
  let id = Hashtbl.find ids in
  let deps = Program.dependencies p in
  let edges = Array.make n [] in
  List.iter (fun (h, q, pol) -> edges.(id h) <- (id q, pol) :: edges.(id h)) deps;
  let comps = Graph.sccs n (fun i -> List.map fst edges.(i)) in
  let comp = Graph.index n comps in
  match
    List.find_opt (fun (h, q, pol) -> pol = `Neg && comp.(id h) = comp.(id q)) deps
  with
  | Some (h, q, _) -> Error (h, q)
  | None ->
    let stratum = Array.make n 0 in
    List.iter
      (fun members ->
        let need s i =
          List.fold_left
            (fun s (j, pol) ->
              if comp.(j) = comp.(i) then s
              else max s (if pol = `Neg then stratum.(j) + 1 else stratum.(j)))
            s edges.(i)
        in
        let s = List.fold_left need 0 members in
        List.iter (fun i -> stratum.(i) <- s) members)
      comps;
    Ok (preds, id, stratum, deps)

(* [keep i] of the predicates, one list per stratum number, each list in
   {!Program.all_preds} order; strata left empty are dropped. *)
let by_stratum preds stratum keep =
  let groups = Array.make (Array.fold_left max 0 stratum + 1) [] in
  for i = Array.length preds - 1 downto 0 do
    if keep i then groups.(stratum.(i)) <- preds.(i) :: groups.(stratum.(i))
  done;
  List.filter (fun g -> g <> []) (Array.to_list groups)

let analyse p =
  match stratify p with
  | Error (h, q) -> Not_stratified (h, q)
  | Ok (preds, _, stratum, _) -> Stratified (by_stratum preds stratum (fun _ -> true))

let is_stratified p =
  match analyse p with
  | Stratified _ -> true
  | Not_stratified _ -> false

let not_stratified (h, q) =
  Fmt.str "not stratified: %s depends negatively on %s through a cycle" h q

let strata p =
  match analyse p with
  | Stratified groups -> Ok groups
  | Not_stratified (h, q) -> Error (not_stratified (h, q))

(* The connected components of the edges between derived predicates of
   one stratum, taken undirected: the SCCs of that symmetrised graph.
   A component lists its members ascending, so it is recorded at its
   first member, and [by_stratum] orders each stratum's components by
   it. *)
let schedule p =
  match stratify p with
  | Error edge -> Error (not_stratified edge)
  | Ok (preds, id, stratum, deps) ->
    let n = Array.length preds in
    let derived = Array.make n false in
    List.iter (fun r -> derived.(id (Rule.head_pred r)) <- true) p.Program.rules;
    let adj = Array.make n [] in
    List.iter
      (fun (h, q, _) ->
        let i = id h and j = id q in
        if derived.(j) && stratum.(i) = stratum.(j) then begin
          adj.(i) <- j :: adj.(i);
          adj.(j) <- i :: adj.(j)
        end)
      deps;
    let members = Array.make n [] in
    List.iter
      (fun comp ->
        let first = List.hd comp in
        if derived.(first) then members.(first) <- List.map (Array.get preds) comp)
      (Graph.sccs n (Array.get adj));
    Ok (by_stratum members stratum (fun i -> members.(i) <> []))
