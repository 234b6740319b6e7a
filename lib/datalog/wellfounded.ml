open Recalg_kernel
module Obs = Recalg_obs.Obs

(* An occurrence index in compressed rows: the rules listed for atom [a]
   are [items.(start.(a)) .. items.(start.(a + 1) - 1)], in rule order,
   once per occurrence. *)
type rows = { start : int array; items : int array }

let rows n rules occurrences =
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun r -> occurrences r (fun a -> start.(a + 1) <- start.(a + 1) + 1))
    rules;
  for a = 1 to n do
    start.(a) <- start.(a) + start.(a - 1)
  done;
  let fill = Array.sub start 0 n and items = Array.make start.(n) 0 in
  Array.iteri
    (fun ri r ->
      occurrences r (fun a ->
          items.(fill.(a)) <- ri;
          fill.(a) <- fill.(a) + 1))
    rules;
  { start; items }

let iter_row { start; items } a f =
  for i = start.(a) to start.(a + 1) - 1 do
    f items.(i)
  done

let undecided = '\000'
let true_ = '\001'
let false_ = '\002'

let solve_raw (pg : Propgm.t) =
  Obs.span "wellfounded" @@ fun () ->
  let n = Propgm.n_atoms pg and rules = pg.Propgm.rules in
  let pos = rows n rules (fun r f -> Array.iter f r.Propgm.pos)
  and neg = rows n rules (fun r f -> Array.iter f r.Propgm.neg)
  and heads = rows n rules (fun r f -> f r.Propgm.head) in
  let value = Bytes.make n undecided in
  let undecided_at a = Bytes.get value a = undecided in
  (* [pending.(r)]: literals of rule [r] not yet decided in its favour;
     [live.(a)]: rules for [a] none of whose literals is decided
     against them. *)
  let pending =
    Array.map (fun r -> Array.length r.Propgm.pos + Array.length r.Propgm.neg) rules
  in
  let dead = Array.make (Array.length rules) false in
  let live = Array.init n (fun a -> heads.start.(a + 1) - heads.start.(a)) in
  (* Every atom is decided at most once, so the queue of decided atoms
     not yet propagated fits in [n] slots. *)
  let queue = Array.make n 0 and next = ref 0 and last = ref 0 in
  let decide a v =
    if undecided_at a then begin
      Bytes.set value a v;
      queue.(!last) <- a;
      incr last
    end
  in
  let kill ri =
    if not dead.(ri) then begin
      dead.(ri) <- true;
      let h = rules.(ri).Propgm.head in
      live.(h) <- live.(h) - 1;
      if live.(h) = 0 then decide h false_
    end
  in
  let satisfy ri =
    pending.(ri) <- pending.(ri) - 1;
    if pending.(ri) = 0 && not dead.(ri) then decide rules.(ri).Propgm.head true_
  in
  let propagate () =
    while !next < !last do
      let a = queue.(!next) in
      incr next;
      if Bytes.get value a = true_ then begin
        iter_row pos a satisfy;
        iter_row neg a kill
      end
      else begin
        iter_row pos a kill;
        iter_row neg a satisfy
      end
    done
  in
  Array.iteri (fun ri r -> if pending.(ri) = 0 then decide r.Propgm.head true_) rules;
  for a = 0 to n - 1 do
    if live.(a) = 0 then decide a false_
  done;
  propagate ();
  (* Propagation stalls on cycles. Split the atoms it left undecided into
     strongly connected components over the live rules, and walk them
     dependencies first: when a component's turn comes, every atom below
     it is final. *)
  let ids = Array.make n 0 and local = Array.make n (-1) and m = ref 0 in
  for a = 0 to n - 1 do
    if undecided_at a then begin
      ids.(!m) <- a;
      local.(a) <- !m;
      incr m
    end
  done;
  let succ v =
    let deps = ref [] in
    let add b = if local.(b) >= 0 then deps := local.(b) :: !deps in
    iter_row heads ids.(v) (fun ri ->
        if not dead.(ri) then begin
          Array.iter add rules.(ri).Propgm.pos;
          Array.iter add rules.(ri).Propgm.neg
        end);
    !deps
  in
  let comp = Array.make n (-1) in
  let comps =
    List.mapi
      (fun c vs ->
        List.map
          (fun v ->
            comp.(ids.(v)) <- c;
            ids.(v))
          vs)
      (Graph.sccs !m succ)
  in
  (* The unfounded-set pass over component [c]: the least fixpoint of its
     live rules, reading a positive literal as a premise only when it is
     an undecided atom of [c]. Anything below [c] is final, and a literal
     decided against a rule has killed it, so what this leaves
     unreached is the component's part of the greatest unfounded set. *)
  let need = Array.make (Array.length rules) 0 in
  let reached = Array.make n (-1) and work = Array.make n 0 in
  let passes = ref 0 and unfounded = ref 0 in
  let pass c members =
    incr passes;
    let stamp = !passes and top = ref 0 in
    let reach a =
      if reached.(a) <> stamp then begin
        reached.(a) <- stamp;
        work.(!top) <- a;
        incr top
      end
    in
    List.iter
      (fun a ->
        if undecided_at a then
          iter_row heads a (fun ri ->
              if not dead.(ri) then begin
                let k = ref 0 in
                Array.iter
                  (fun b -> if undecided_at b && comp.(b) = c then incr k)
                  rules.(ri).Propgm.pos;
                need.(ri) <- !k;
                if !k = 0 then reach a
              end))
      members;
    while !top > 0 do
      decr top;
      iter_row pos work.(!top) (fun ri ->
          let h = rules.(ri).Propgm.head in
          if (not dead.(ri)) && undecided_at h && comp.(h) = c then begin
            need.(ri) <- need.(ri) - 1;
            if need.(ri) = 0 then reach h
          end)
    done;
    let before = !last in
    List.iter
      (fun a -> if undecided_at a && reached.(a) <> stamp then decide a false_)
      members;
    unfounded := !unfounded + (!last - before);
    propagate ();
    !last > before
  in
  List.iteri
    (fun c members ->
      while List.exists undecided_at members && pass c members do
        ()
      done)
    comps;
  Obs.count "wellfounded/passes" !passes;
  Obs.count "wellfounded/unfounded" !unfounded;
  let true_set = Bitset.create n and undef = Bitset.create n in
  Bytes.iteri
    (fun a v ->
      if v = true_ then Bitset.set true_set a
      else if v = undecided then Bitset.set undef a)
    value;
  (true_set, undef)

let solve pg =
  let true_, undef = solve_raw pg in
  Interp.make pg ~true_ ~undef
