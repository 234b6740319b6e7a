type t = { node : node; id : int; hash : int }

and node =
  | Int of int
  | Str of string
  | Bool of bool
  | Sym of string
  | Tuple of t list
  | Set of t list
  | Cstr of string * t list

let node v = v.node
let id v = v.id

(* ------------------------------------------------------------------ *)
(* Structural order.  Must match the seed's order exactly (the Set
   canonical form and Value.product's sorted-output trick depend on it):
   Int < Str < Bool < Sym < Tuple < Set < Cstr, lexicographic children.
   The physical-equality check at every level means comparing values
   that share subterms never re-walks them. *)

let rec compare a b = if a == b then 0 else compare_node a.node b.node

and compare_node na nb =
  match na, nb with
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Bool x, Bool y -> Stdlib.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Sym x, Sym y -> String.compare x y
  | Sym _, _ -> -1
  | _, Sym _ -> 1
  | Tuple x, Tuple y -> compare_list x y
  | Tuple _, _ -> -1
  | _, Tuple _ -> 1
  | Set x, Set y -> compare_list x y
  | Set _, _ -> -1
  | _, Set _ -> 1
  | Cstr (f, x), Cstr (g, y) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_list x y

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

(* Every constructor interns (see [make]), so structurally equal values
   are one node. *)
let equal a b = a == b

(* ------------------------------------------------------------------ *)
(* Hashing.  FNV-1a over constructor tag and the children's *memoized*
   hashes — computing a node's hash is O(arity), never a deep walk.  The
   id is deliberately absent: hashes must be reproducible across runs
   (persisted stats files key on them). *)

let fnv_offset = 0x811c9dc5
let fnv_prime = 0x01000193
let mix h k = ((h lxor k) * fnv_prime) land max_int
let hash v = v.hash
let hash_fold h v = mix h v.hash
let hash_children seed xs = List.fold_left hash_fold (mix fnv_offset seed) xs

let node_hash n =
  match n with
  | Int x -> mix (mix fnv_offset 3) (Hashtbl.hash x)
  | Str s -> mix (mix fnv_offset 5) (Hashtbl.hash s)
  | Bool b -> mix (mix fnv_offset 7) (if b then 1 else 0)
  | Sym s -> mix (mix fnv_offset 11) (Hashtbl.hash s)
  | Tuple xs -> hash_children 13 xs
  | Set xs -> hash_children 17 xs
  | Cstr (f, xs) -> List.fold_left hash_fold (mix (mix fnv_offset 19) (Hashtbl.hash f)) xs

(* ------------------------------------------------------------------ *)
(* The hash-consing table.  Keys are nodes whose children are already
   constructed values, so key equality only compares payloads and child
   *pointers* — O(arity), like key hashing.  A strong table: the value
   universes here live as long as the evaluation that built them, and a
   strong table keeps Stats deterministic; a weak table (GC-evictable
   entries) is the drop-in upgrade if retention ever dominates. *)

module Tbl = Hashtbl.Make (struct
  type t = node

  let rec same_children xs ys =
    match xs, ys with
    | [], [] -> true
    | x :: xs', y :: ys' -> x == y && same_children xs' ys'
    | _, _ -> false

  let equal n1 n2 =
    match n1, n2 with
    | Int a, Int b -> Stdlib.( = ) a b
    | Str a, Str b -> String.equal a b
    | Bool a, Bool b -> Stdlib.( = ) a b
    | Sym a, Sym b -> String.equal a b
    | Tuple xs, Tuple ys -> same_children xs ys
    | Set xs, Set ys -> same_children xs ys
    | Cstr (f, xs), Cstr (g, ys) -> String.equal f g && same_children xs ys
    | (Int _ | Str _ | Bool _ | Sym _ | Tuple _ | Set _ | Cstr _), _ -> false

  let hash = node_hash
end)

(* The table is sharded so concurrent domains (Pool workers) intern
   without a global bottleneck. The shard is chosen by the node's
   structural FNV-1a hash, so where a value lands is deterministic and
   scheduling-independent. It reads bits 24..29 of the hash: each
   shard's Hashtbl indexes buckets by the hash's low bits, so choosing
   the shard from those same bits would leave every shard using only
   1/64 of its buckets. Each shard carries its own mutex, taken only
   while the pool is live ([Pool.parallel ()]), so single-domain runs
   pay no synchronisation at all. Ids come from one atomic counter:
   unique across domains, but assignment *order* depends on scheduling
   — safe because nothing observable consults ids ([compare]/[hash]
   never do; see the .mli and DESIGN.md §9), while hashes are purely
   structural and hit/miss totals stay deterministic (a node's first
   construction is the one miss, every other one a hit, under any
   interleaving). *)

let shard_bits = 6
let shard_count = 1 lsl shard_bits

type shard = {
  table : t Tbl.t;
  lock : Mutex.t;
  mutable hits : int; (* guarded by [lock] while the pool is live *)
  mutable misses : int;
  contended : int Atomic.t; (* try_lock failures: cross-domain collisions *)
}

let shards =
  Array.init shard_count (fun _ ->
      {
        table = Tbl.create 256;
        lock = Mutex.create ();
        hits = 0;
        misses = 0;
        contended = Atomic.make 0;
      })

let next_id = Atomic.make 0

let intern shard n h =
  match Tbl.find_opt shard.table n with
  | Some v ->
    shard.hits <- shard.hits + 1;
    v
  | None ->
    shard.misses <- shard.misses + 1;
    let v = { node = n; id = Atomic.fetch_and_add next_id 1; hash = h } in
    Tbl.add shard.table n v;
    v

let make n =
  (* Chaos probe sits before the shard lock on purpose: an injected
     intern fault must propagate with every mutex released, so a
     faulted parallel run can keep interning afterwards. *)
  Faultinj.hit "value/intern";
  let h = node_hash n in
  let shard = shards.((h lsr 24) land (shard_count - 1)) in
  if Pool.parallel () then begin
    if not (Mutex.try_lock shard.lock) then begin
      Atomic.incr shard.contended;
      Mutex.lock shard.lock
    end;
    let v = intern shard n h in
    Mutex.unlock shard.lock;
    v
  end
  else intern shard n h

module Stats = struct
  type snapshot = {
    live : int;
    buckets : int;
    max_bucket : int;
    hits : int;
    misses : int;
    total_ids : int;
    shards : int;
    contended : int;
  }

  let snapshot () =
    let live = ref 0
    and buckets = ref 0
    and max_bucket = ref 0
    and hits = ref 0
    and misses = ref 0
    and contended = ref 0 in
    Array.iter
      (fun (sh : shard) ->
        let s = Tbl.stats sh.table in
        live := !live + s.Hashtbl.num_bindings;
        buckets := !buckets + s.Hashtbl.num_buckets;
        max_bucket := max !max_bucket s.Hashtbl.max_bucket_length;
        hits := !hits + sh.hits;
        misses := !misses + sh.misses;
        contended := !contended + Atomic.get sh.contended)
      shards;
    {
      live = !live;
      buckets = !buckets;
      max_bucket = !max_bucket;
      hits = !hits;
      misses = !misses;
      total_ids = Atomic.get next_id;
      shards = shard_count;
      contended = !contended;
    }

  let reset_counters () =
    Array.iter
      (fun (sh : shard) ->
        sh.hits <- 0;
        sh.misses <- 0;
        Atomic.set sh.contended 0)
      shards
end

(* ------------------------------------------------------------------ *)
(* Smart constructors — the only way in, so every value is stamped. *)

let int x = make (Int x)
let str s = make (Str s)
let bool b = make (Bool b)
let sym s = make (Sym s)
let tuple xs = make (Tuple xs)
let pair a b = make (Tuple [ a; b ])
let cstr f xs = make (Cstr (f, xs))
let tt = bool true
let ff = bool false

(* Canonicalisation: strictly sorted, duplicate free. *)
let canon xs = make (Set (List.sort_uniq compare xs))
let set xs = canon xs
let empty_set = make (Set [])
let singleton x = make (Set [ x ])

let as_elements name v =
  match v.node with
  | Set xs -> xs
  | Int _ | Str _ | Bool _ | Sym _ | Tuple _ | Cstr _ ->
    invalid_arg (name ^ ": expected a set value")

let elements v = as_elements "Value.elements" v

let is_set v =
  match v.node with
  | Set _ -> true
  | Int _ | Str _ | Bool _ | Sym _ | Tuple _ | Cstr _ -> false

let cardinal v = List.length (as_elements "Value.cardinal" v)

(* Scan of the sorted element list; the [c < 0] arm exits as soon as the
   scanned element exceeds the probe. *)
let mem x v =
  let rec search xs =
    match xs with
    | [] -> false
    | y :: rest ->
      let c = compare x y in
      if c = 0 then true else if c < 0 then false else search rest
  in
  search (as_elements "Value.mem" v)

(* Merge of two sorted duplicate-free lists. *)
let rec merge xs ys =
  match xs, ys with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c = 0 then x :: merge xs' ys'
    else if c < 0 then x :: merge xs' ys
    else y :: merge xs ys'

let union a b =
  make (Set (merge (as_elements "Value.union" a) (as_elements "Value.union" b)))

let inter a b =
  let rec go xs ys =
    match xs, ys with
    | [], _ | _, [] -> []
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then x :: go xs' ys'
      else if c < 0 then go xs' ys
      else go xs ys'
  in
  make (Set (go (as_elements "Value.inter" a) (as_elements "Value.inter" b)))

let diff a b =
  let rec go xs ys =
    match xs, ys with
    | [], _ -> []
    | l, [] -> l
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then go xs' ys'
      else if c < 0 then x :: go xs' ys
      else go xs ys'
  in
  make (Set (go (as_elements "Value.diff" a) (as_elements "Value.diff" b)))

let product a b =
  let xs = as_elements "Value.product" a
  and ys = as_elements "Value.product" b in
  (* Tuple comparison is lexicographic, so with both inputs strictly
     sorted the blocks (one per left element, each ordered by the right
     element) concatenate into a strictly sorted, duplicate-free list —
     no re-canonicalisation pass needed. *)
  make (Set (List.concat_map (fun x -> List.map (fun y -> pair x y) ys) xs))

let subset a b =
  let rec go xs ys =
    match xs, ys with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then go xs' ys'
      else if c < 0 then false
      else go xs ys'
  in
  go (as_elements "Value.subset" a) (as_elements "Value.subset" b)

let add x v = union (singleton x) v
let filter p v = make (Set (List.filter p (as_elements "Value.filter" v)))
let map_set f v = canon (List.map f (as_elements "Value.map_set" v))

let filter_map_set f v =
  canon (List.filter_map f (as_elements "Value.filter_map_set" v))

let union_all vs =
  (* Balanced divide-and-conquer over the element lists: a left fold
     re-merges the growing accumulator against every element,
     O(n * total); pairing neighbours halves the list each round for
     O(total * log n). Only the final list is interned. *)
  let rec pairup ls =
    match ls with
    | a :: b :: rest -> merge a b :: pairup rest
    | ([] | [ _ ]) as ls -> ls
  in
  let rec go ls =
    match ls with
    | [] -> []
    | [ l ] -> l
    | ls -> go (pairup ls)
  in
  make (Set (go (List.map (as_elements "Value.union") vs)))

let proj i v =
  match v.node with
  | Tuple xs -> List.nth_opt xs (i - 1)
  | Int _ | Str _ | Bool _ | Sym _ | Set _ | Cstr _ -> None

let rec pp ppf v =
  match v.node with
  | Int x -> Fmt.int ppf x
  | Str s -> Fmt.pf ppf "%S" s
  | Bool true -> Fmt.string ppf "T"
  | Bool false -> Fmt.string ppf "F"
  | Sym s -> Fmt.string ppf s
  | Tuple xs -> Fmt.pf ppf "@[<h>[%a]@]" Fmt.(list ~sep:comma pp) xs
  | Set xs -> Fmt.pf ppf "@[<h>{%a}@]" Fmt.(list ~sep:comma pp) xs
  | Cstr (f, []) -> Fmt.string ppf f
  | Cstr (f, xs) -> Fmt.pf ppf "@[<h>%s(%a)@]" f Fmt.(list ~sep:comma pp) xs

let to_string v = Fmt.str "%a" pp v
