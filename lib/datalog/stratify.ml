open Recalg_kernel

type analysis =
  | Stratified of string list list
  | Not_stratified of string * string

(* Graph vertices [0 .. n-1] for [names], numbered in array order. *)
let numbering names =
  let ids = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  ids

(* The least stratification: stratum(h) >= stratum(q) for every rule
   with head h and a positive body literal on q, and stratum(h) >=
   stratum(q) + 1 when the literal is negated. It exists iff no negative
   edge lies inside a strongly connected component. The members of a
   component then share one stratum: the largest that its edges into
   earlier components force. *)
let analyse p =
  let preds = Array.of_list (Program.all_preds p) in
  let n = Array.length preds in
  let id = Hashtbl.find (numbering preds) in
  let deps = Program.dependencies p in
  let edges = Array.make n [] in
  List.iter (fun (h, q, pol) -> edges.(id h) <- (id q, pol) :: edges.(id h)) deps;
  let comps = Graph.sccs n (fun i -> List.map fst edges.(i)) in
  let comp = Graph.index n comps in
  match
    List.find_opt (fun (h, q, pol) -> pol = `Neg && comp.(id h) = comp.(id q)) deps
  with
  | Some (h, q, _) -> Not_stratified (h, q)
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
    let groups = Array.make (Array.fold_left max 0 stratum + 1) [] in
    for i = n - 1 downto 0 do
      groups.(stratum.(i)) <- preds.(i) :: groups.(stratum.(i))
    done;
    Stratified (List.filter (fun g -> g <> []) (Array.to_list groups))

let is_stratified p =
  match analyse p with
  | Stratified _ -> true
  | Not_stratified _ -> false

let strata p =
  match analyse p with
  | Stratified groups -> Ok groups
  | Not_stratified (h, q) ->
    Error (Fmt.str "not stratified: %s depends negatively on %s through a cycle" h q)

(* Connected components of the dependency graph restricted to [preds]
   (edges taken as undirected): the SCCs of the symmetrised graph. Two
   predicates of one stratum that share no component cannot reach each
   other's relations at all, so their fixpoints are independent — the
   refinement both parallel stratum evaluators (Seminaive.stratified,
   Stratified_to_ifp) fan out over. Vertices are numbered in [preds]
   order, so members come in that order, and sorting the components
   orders them by first member. *)
let components p preds =
  let names = Array.of_list preds in
  let n = Array.length names in
  let ids = numbering names in
  let adj = Array.make n [] in
  List.iter
    (fun (h, q, _pol) ->
      match (Hashtbl.find_opt ids h, Hashtbl.find_opt ids q) with
      | Some i, Some j ->
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j)
      | _ -> ())
    (Program.dependencies p);
  Graph.sccs n (Array.get adj)
  |> List.sort compare
  |> List.map (List.map (Array.get names))
