(* Reference answers computed without recalg: breadth-first closure,
   retrograde game labelling and direct hash joins over the generated
   tuples. The expected printouts follow the documented output format of
   [recalg alg] and [recalg run]. *)

open Gen

(* --- reachability --------------------------------------------------- *)

let adjacency nodes edges =
  let adj = Array.make nodes [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  adj

(* Nodes reachable from [src] by one or more edges, breadth first. *)
let reachable adj src =
  let seen = Array.make (Array.length adj) false and queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    List.iter
      (fun y ->
        if not seen.(y) then begin
          seen.(y) <- true;
          Queue.add y queue
        end)
      adj.(Queue.pop queue)
  done;
  seen

(* The closure as sorted pairs, and its printout under [pp_vset]. *)
let closure nodes edges =
  let adj = adjacency nodes edges in
  List.concat
    (List.init nodes (fun a ->
         let r = reachable adj a in
         List.filter_map (fun b -> if r.(b) then Some (a, b) else None) (List.init nodes Fun.id)))

let closure_text pairs =
  let b = Buffer.create 65536 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (x, y) -> Printf.bprintf b "%s[%d, %d]" (if i = 0 then "" else ", ") x y)
    pairs;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- the WIN game by retrograde analysis ---------------------------- *)

type label = Won | Lost | Drawn

(* A position with no move is lost; one with a move to a lost position
   is won; one whose moves all reach won positions is lost; the rest
   are drawn, which the valid semantics reports as undefined. *)
let win_labels positions moves =
  let label = Array.make positions Drawn in
  let preds = Array.make positions [] and out = Array.make positions 0 in
  List.iter
    (fun (p, q) ->
      preds.(q) <- p :: preds.(q);
      out.(p) <- out.(p) + 1)
    moves;
  let queue = Queue.create () in
  Array.iteri
    (fun p n ->
      if n = 0 then begin
        label.(p) <- Lost;
        Queue.add p queue
      end)
    out;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    List.iter
      (fun p ->
        if label.(p) = Drawn then
          if label.(q) = Lost then begin
            label.(p) <- Won;
            Queue.add p queue
          end
          else begin
            out.(p) <- out.(p) - 1;
            if out.(p) = 0 then begin
              label.(p) <- Lost;
              Queue.add p queue
            end
          end)
      preds.(q)
  done;
  label

(* [recalg run] prints each predicate's true atoms, then its undefined
   ones, predicates and atoms in order. *)
let win_text moves label =
  let b = Buffer.create 16384 in
  List.iter (fun (p, q) -> Printf.bprintf b "move(%d, %d)\n" p q) moves;
  Array.iteri (fun p l -> if l = Won then Printf.bprintf b "win(%d)\n" p) label;
  Array.iteri (fun p l -> if l = Drawn then Printf.bprintf b "undef: win(%d)\n" p) label;
  Buffer.contents b

(* --- direct hash joins ---------------------------------------------- *)

let index key rows =
  let h = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.add h (key r) r) rows;
  h

let fst_of = function T [ I a; _ ] -> a | _ -> invalid_arg "fst_of"
let snd_of = function T [ _; I b ] -> b | _ -> invalid_arg "snd_of"

(* The sorted, duplicate-free answer of [Engine.expr shape]. *)
let join shape rels =
  let rel name = List.assoc name rels in
  List.sort_uniq compare
  @@
  match shape with
  | Star ->
    (* h1.2 = t.1 and h2.2 = t.2 *)
    let h1 = index snd_of (rel "h1") and h2 = index snd_of (rel "h2") in
    List.concat_map
      (fun t ->
        List.concat_map
          (fun a -> List.map (fun b -> T [ T [ a; b ]; t ]) (Hashtbl.find_all h2 (snd_of t)))
          (Hashtbl.find_all h1 (fst_of t)))
      (rel "t")
  | Chain ->
    (* carry (c1 row, current key) pairs forward, deduplicated *)
    let step frontier name =
      let next = index fst_of (rel name) in
      List.sort_uniq compare
        (List.concat_map
           (fun (origin, key) ->
             List.map (fun r -> (origin, snd_of r)) (Hashtbl.find_all next key))
           frontier)
    in
    let start = List.map (fun r -> (r, snd_of r)) (rel "c1") in
    List.map fst (List.fold_left step start [ "c2"; "c3"; "c4"; "c5"; "c6" ])
  | Semi ->
    let keys = index fst_of (rel "sb") in
    List.filter (fun r -> Hashtbl.mem keys (snd_of r)) (rel "sa")
