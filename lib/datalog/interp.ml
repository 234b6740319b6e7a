open Recalg_kernel

(* One predicate's atoms: [members] in id order, and [listing], the same
   ids sorted by argument, published by the first reader that needs it. *)
type group = { mutable members : int list; listing : int array option Atomic.t }

(* The captured atoms grouped by predicate: [names] sorted, [groups]
   keyed by name. Built whole on the first ordered read, then shared. *)
type index = { names : string list; groups : (string, group) Hashtbl.t }

type t = {
  atoms : Propgm.fact Interner.t;
  n : int;
  true_ : Bitset.t;
  undef : Bitset.t;
  index : index option Atomic.t;
}

let make (pg : Propgm.t) ~true_ ~undef =
  let n = Propgm.n_atoms pg in
  if Bitset.length true_ <> n || Bitset.length undef <> n then
    invalid_arg "Interp.make: a bitset's length is not the atom count";
  { atoms = pg.Propgm.atoms; n; true_; undef; index = Atomic.make None }

let of_true pg bits = make pg ~true_:bits ~undef:(Bitset.create (Propgm.n_atoms pg))

let args t id = snd (Interner.get t.atoms id)

let status t id =
  if Bitset.get t.true_ id then Tvl.True
  else if Bitset.get t.undef id then Tvl.Undef
  else Tvl.False

(* Ids at or past [n] were interned after the solve (a later batch of
   [Run.Live]): outside the captured grounding, so false. *)
let holds_fact t f =
  match Interner.find_opt t.atoms f with
  | Some id when id < t.n -> status t id
  | Some _ | None -> Tvl.False

let holds t pred args = holds_fact t (pred, args)

(* The atoms of one predicate are mostly interned together, so the
   previous atom's group is tried before the table. *)
let build_index t =
  let groups = Hashtbl.create 16 in
  let group pred =
    match Hashtbl.find_opt groups pred with
    | Some g -> g
    | None ->
      let g = { members = []; listing = Atomic.make None } in
      Hashtbl.add groups pred g;
      g
  in
  if t.n > 0 then begin
    let last_pred = ref (fst (Interner.get t.atoms (t.n - 1))) in
    let last = ref (group !last_pred) in
    for id = t.n - 1 downto 0 do
      let pred, _ = Interner.get t.atoms id in
      if not (String.equal pred !last_pred) then begin
        last_pred := pred;
        last := group pred
      end;
      !last.members <- id :: !last.members
    done
  end;
  let names = Array.make (Hashtbl.length groups) "" and i = ref 0 in
  Hashtbl.iter
    (fun p _ ->
      names.(!i) <- p;
      incr i)
    groups;
  Array.stable_sort String.compare names;
  { names = Array.to_list names; groups }

let index t =
  match Atomic.get t.index with
  | Some i -> i
  | None ->
    let i = build_index t in
    Atomic.set t.index (Some i);
    i

(* Extensional atoms are interned in listing order, so a predicate's
   members are often sorted already. *)
let listing t g =
  match Atomic.get g.listing with
  | Some l -> l
  | None ->
    let l = Array.of_list g.members in
    let cmp a b = List.compare Value.compare (args t a) (args t b) in
    let rec sorted i =
      i >= Array.length l || (cmp l.(i - 1) l.(i) < 0 && sorted (i + 1))
    in
    if not (sorted 1) then Array.stable_sort cmp l;
    Atomic.set g.listing (Some l);
    l

let select t pred keep =
  match Hashtbl.find_opt (index t).groups pred with
  | None -> []
  | Some g ->
    let l = listing t g in
    let acc = ref [] in
    for k = Array.length l - 1 downto 0 do
      if keep l.(k) then acc := args t l.(k) :: !acc
    done;
    !acc

let is_true t = Bitset.get t.true_
let is_undef t = Bitset.get t.undef
let true_tuples t pred = select t pred (is_true t)
let undef_tuples t pred = select t pred (is_undef t)
let false_tuples t pred = select t pred (fun id -> not (is_true t id || is_undef t id))
let preds t = (index t).names

let to_edb t =
  List.fold_left
    (fun edb pred -> Edb.add_relation pred (Tuples.of_list (true_tuples t pred)) edb)
    Edb.empty (preds t)

let count_true t = Bitset.count t.true_
let count_undef t = Bitset.count t.undef
let is_total t = Bitset.is_empty t.undef

(* Predicate by predicate, as fact lists, so the groundings may differ. *)
let equal a b =
  let same = List.equal (List.equal Value.equal) in
  List.for_all
    (fun p ->
      same (true_tuples a p) (true_tuples b p)
      && same (undef_tuples a p) (undef_tuples b p))
    (List.sort_uniq String.compare (preds a @ preds b))

let pp ppf t =
  let facts keep =
    List.concat_map (fun p -> List.map (fun a -> (p, a)) (select t p keep)) (preds t)
  in
  Fmt.pf ppf "@[<v>true: %a@ undef: %a@]"
    Fmt.(list ~sep:sp Propgm.pp_fact)
    (facts (is_true t))
    Fmt.(list ~sep:sp Propgm.pp_fact)
    (facts (is_undef t))
