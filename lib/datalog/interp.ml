open Recalg_kernel

module Facts = Set.Make (struct
  type t = string * Value.t list

  let compare (p, a) (q, b) =
    let c = String.compare p q in
    if c <> 0 then c else List.compare Value.compare a b
end)

type t = {
  true_ : Facts.t;
  undef : Facts.t;
  base : Facts.t;
}

let facts_of_bitset pg bits =
  let acc = ref Facts.empty in
  Bitset.iter_set (fun id -> acc := Facts.add (Propgm.fact_of_id pg id) !acc) bits;
  !acc

let base_of pg =
  let acc = ref Facts.empty in
  let n = Propgm.n_atoms pg in
  for id = 0 to n - 1 do
    acc := Facts.add (Propgm.fact_of_id pg id) !acc
  done;
  !acc

let make pg ~true_ ~undef =
  {
    true_ = facts_of_bitset pg true_;
    undef = facts_of_bitset pg undef;
    base = base_of pg;
  }

let of_true pg bits =
  { true_ = facts_of_bitset pg bits; undef = Facts.empty; base = base_of pg }

let holds t pred args =
  let f = (pred, args) in
  if Facts.mem f t.true_ then Tvl.True
  else if Facts.mem f t.undef then Tvl.Undef
  else Tvl.False

let holds_fact t (pred, args) = holds t pred args

(* [Facts] is ordered by predicate first, and [(pred, [])] sorts before
   every fact of [pred], so one predicate's facts are one range. *)
let range set pred =
  Facts.to_seq_from (pred, []) set
  |> Seq.take_while (fun (p, _) -> String.equal p pred)

let tuples_of set pred = List.of_seq (Seq.map snd (range set pred))
let true_tuples t pred = tuples_of t.true_ pred
let undef_tuples t pred = tuples_of t.undef pred

let false_tuples t pred =
  range t.base pred
  |> Seq.filter (fun f -> not (Facts.mem f t.true_ || Facts.mem f t.undef))
  |> Seq.map snd |> List.of_seq

let preds t =
  Facts.fold
    (fun (p, _) acc ->
      match acc with
      | q :: _ when String.equal p q -> acc
      | _ :: _ | [] -> p :: acc)
    t.base []
  |> List.rev

let to_edb t =
  Facts.fold (fun (p, args) edb -> Edb.add p args edb) t.true_ Edb.empty

let count_true t = Facts.cardinal t.true_
let count_undef t = Facts.cardinal t.undef
let is_total t = Facts.is_empty t.undef

let equal a b = Facts.equal a.true_ b.true_ && Facts.equal a.undef b.undef

let pp ppf t =
  Fmt.pf ppf "@[<v>true: %a@ undef: %a@]"
    Fmt.(list ~sep:sp Propgm.pp_fact)
    (Facts.elements t.true_)
    Fmt.(list ~sep:sp Propgm.pp_fact)
    (Facts.elements t.undef)
