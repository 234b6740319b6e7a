(* Seeded input generators: plain OCaml data and program text, nothing
   from recalg. Input sizes come from fixed strata, so a percentile lands
   on the same stratum under every seed; the seed moves the WIN games,
   the tc-update shortcuts, the probes and the request order. *)

type tree = I of int | T of tree list

(* One independent stream per purpose, so adding draws to one stream
   never shifts the inputs of another. *)
let rng seed stream = Random.State.make [| seed; stream |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A canonical text for a list of trees; expected answers are kept in
   this form, which the garbage collector does not have to scan. *)
let render trees =
  let b = Buffer.create 4096 in
  let rec go = function
    | I i -> Buffer.add_string b (string_of_int i)
    | T xs ->
      Buffer.add_char b '[';
      List.iteri (fun k x -> if k > 0 then Buffer.add_char b ','; go x) xs;
      Buffer.add_char b ']'
  in
  List.iter (fun t -> go t; Buffer.add_char b ' ') trees;
  Buffer.contents b

(* Values the generators never produce; an absent probe is a present
   element with its last leaf moved past them, so it sorts next to the
   element it came from and a scan pays a realistic price for it. *)
let absent_offset = 1_000_000

let rec perturb = function
  | I i -> I (i + absent_offset)
  | T xs -> (
    match List.rev xs with
    | last :: rest -> T (List.rev (perturb last :: rest))
    | [] -> T [])

(* [count] probes: present elements at evenly spaced ranks of the sorted
   array [present] (seeded within each rank band), alternately as they
   are and perturbed, so a scan meets probes at the same depths under
   every seed. *)
let probes rng present ~count =
  let n = Array.length present in
  Array.init count (fun i ->
      let x = present.(((i * n) + Random.State.int rng n) / count) in
      if i mod 2 = 0 then x else perturb x)

(* --- tc-alg: chains with forward shortcuts --------------------------- *)

let chain_strata = [| 48; 60; 72; 84; 96; 108; 120; 132; 144 |]

(* A chain with eight shortcuts, each skipping one node, evenly spaced:
   the longest shortest path is [nodes - 9]. The chain is fixed by its
   length, not by the seed, for the reason given at [join_rels]. *)
let chain nodes =
  let shortcuts = List.init 8 (fun k -> let a = 2 * ((2 * k + 1) * nodes / 32) in (a, a + 2)) in
  List.sort compare (List.init (nodes - 1) (fun i -> (i, i + 1)) @ shortcuts)

let chain_text edges =
  let b = Buffer.create 8192 in
  Buffer.add_string b "let edge = {";
  List.iteri
    (fun i (x, y) -> Printf.bprintf b "%s[%d, %d]" (if i = 0 then "" else ", ") x y)
    edges;
  Buffer.add_string b
    "};\n\
     let tc = edge + map[[pi1 . pi1, pi2 . pi2]](sel[pi2 . pi1 = pi1 . pi2](edge x tc));\n";
  Buffer.contents b

(* --- win-valid: the WIN game on a random move graph ---------------- *)

let game_strata = [| 200; 250; 300; 350; 400; 450; 500; 550; 600 |]

(* 0 to 4 distinct moves per position (2 on average), self-moves
   allowed, so cycles and therefore undefined positions are common. *)
let game rng positions =
  List.concat
    (List.init positions (fun p ->
         List.sort_uniq compare
           (List.init (Random.State.int rng 5) (fun _ ->
                (p, Random.State.int rng positions)))))

let game_text moves =
  let b = Buffer.create 8192 in
  List.iter (fun (p, q) -> Printf.bprintf b "move(%d, %d).\n" p q) moves;
  Buffer.add_string b "win(X) :- move(X, Y), not win(Y).\n";
  Buffer.contents b

(* --- join-plan: the three E14 shapes ------------------------------- *)

type shape = Star | Chain | Semi

(* Per shape, three sizes; 9 strata in all. *)
let join_strata =
  [| (Semi, 4000); (Semi, 6000); (Semi, 8000);
     (Chain, 160); (Chain, 200); (Chain, 240);
     (Star, 200); (Star, 250); (Star, 300) |]

let pair a b = T [ I a; I b ]

(* [n] keys following the skew profile [weights], in runs: the first
   [n * w0 / total] rows get key 0, and so on. *)
let skewed_keys n weights =
  let total = Array.fold_left ( + ) 0 weights in
  let keys = Array.make n 0 and pos = ref 0 in
  Array.iteri
    (fun k w ->
      let c = if k = Array.length weights - 1 then n - !pos else n * w / total in
      Array.fill keys !pos c k;
      pos := !pos + c)
    weights;
  keys

(* The relations are fixed by the stratum, not by the seed: at the seed
   commit the cost of interning a relation depends on which values were
   interned before it and in what order (see the README's findings), and
   seeded contents swung a request's time by a third between seeds. The
   seed still moves the probes and the request order. *)
let join_rels (shape, size) =
  match shape with
  | Star ->
    (* two large relations keyed 0..3 with skew 4:3:2:1, a 4-row centre *)
    let keys = skewed_keys size [| 4; 3; 2; 1 |] in
    let keyed = List.init size (fun i -> pair i keys.(i)) in
    [ ("h1", keyed); ("h2", keyed); ("t", List.init 4 (fun j -> pair j j)) ]
  | Chain ->
    (* six relations; the middle edge has only two distinct keys *)
    let ident = List.init size (fun i -> pair i i) in
    let keys = skewed_keys size [| 1; 1 |] in
    [ ("c1", ident); ("c2", ident);
      ("c3", List.init size (fun i -> pair i keys.(i)));
      ("c4", List.init size (fun j -> pair keys.(j) j));
      ("c5", ident); ("c6", ident) ]
  | Semi ->
    (* 100 small rows over keys 0..9; the big side only carries keys 0..7 *)
    let small = skewed_keys 100 [| 3; 3; 2; 2; 2; 2; 1; 1; 1; 1 |] in
    let big = skewed_keys size [| 8; 4; 2; 2; 1; 1; 1; 1 |] in
    [ ("sa", List.init 100 (fun i -> pair i small.(i)));
      ("sb", List.init size (fun j -> pair big.(j) j)) ]

(* --- tc-update: four chains with shortcuts under edge churn --------- *)

(* 200 nodes in four chains of 50 (node [c * 50 + j] is position [j] of
   chain [c]); the 196 chain edges plus 104 seeded shortcuts within a
   chain, each reaching 2 to 20 positions ahead, make 300 edges. The closure
   has the same size under every seed; the seed moves the shortcuts, and
   with them how much a deletion overdeletes and rederives. *)
let dag_nodes = 200
let dag_edges = 300
let chain_length = 50

let dag rng =
  let set = Hashtbl.create 512 in
  for n = 0 to dag_nodes - 1 do
    if n mod chain_length < chain_length - 1 then Hashtbl.replace set (n, n + 1) ()
  done;
  while Hashtbl.length set < dag_edges do
    let j = Random.State.int rng (chain_length - 2) in
    let a = (Random.State.int rng (dag_nodes / chain_length) * chain_length) + j in
    Hashtbl.replace set (a, a + 2 + Random.State.int rng (min 19 (chain_length - 2 - j))) ()
  done;
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys set))

(* Read probes: pairs a short way apart, some across a chain boundary. *)
let read_pair rng =
  let a = Random.State.int rng (dag_nodes - 1) in
  (a, a + 1 + Random.State.int rng (min 60 (dag_nodes - 1 - a)))
