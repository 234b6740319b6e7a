(* Tarjan's algorithm with the recursion unrolled onto a list of
   [(vertex, successors not yet tried)] frames, the top frame first. It
   tries vertices and successors in the order the recursive version
   would, so it emits the same components in the same order; but its
   depth lives on the heap, which matters on long paths, where OCaml 5
   scans a deep native stack at every collection. *)
let sccs n succ =
  let num = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and out = ref [] in
  let enter v =
    num.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    (v, succ v)
  in
  let rec pop v members =
    match !stack with
    | w :: rest ->
      stack := rest;
      on_stack.(w) <- false;
      if w = v then w :: members else pop v (w :: members)
    | [] -> assert false
  in
  let rec run frames =
    match frames with
    | [] -> ()
    | (v, w :: ws) :: rest ->
      if num.(w) < 0 then run (enter w :: (v, ws) :: rest)
      else begin
        if on_stack.(w) then low.(v) <- min low.(v) num.(w);
        run ((v, ws) :: rest)
      end
    | (v, []) :: rest ->
      if low.(v) = num.(v) then out := List.sort compare (pop v []) :: !out;
      (match rest with
      | (u, _) :: _ -> low.(u) <- min low.(u) low.(v)
      | [] -> ());
      run rest
  in
  for v = 0 to n - 1 do
    if num.(v) < 0 then run [ enter v ]
  done;
  List.rev !out

let index n comps =
  let pos = Array.make n (-1) in
  List.iteri (fun i comp -> List.iter (fun v -> pos.(v) <- i) comp) comps;
  pos
