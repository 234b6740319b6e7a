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
   (E13's and E14's committed fingerprints are built from them and
   compared across commits). *)

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
(* The hash-consing table.  Keys are the interned records themselves,
   hashed by their memoized [hash], so a node is hashed once per [make]
   and a resize rehashes nothing; a lookup probes with a record that has
   no id yet.  Key equality compares the hashes, then payloads and child
   *pointers* — O(arity).  A strong table: the value universes here live
   as long as the evaluation that built them, and a strong table keeps
   Stats deterministic; a weak table (GC-evictable entries) is the
   drop-in upgrade if retention ever dominates. *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let rec same_children xs ys =
    match xs, ys with
    | [], [] -> true
    | x :: xs', y :: ys' -> x == y && same_children xs' ys'
    | _, _ -> false

  let same_node n1 n2 =
    match n1, n2 with
    | Int a, Int b -> Stdlib.( = ) a b
    | Str a, Str b -> String.equal a b
    | Bool a, Bool b -> Stdlib.( = ) a b
    | Sym a, Sym b -> String.equal a b
    | Tuple xs, Tuple ys -> same_children xs ys
    | Set xs, Set ys -> same_children xs ys
    | Cstr (f, xs), Cstr (g, ys) -> String.equal f g && same_children xs ys
    | (Int _ | Str _ | Bool _ | Sym _ | Tuple _ | Set _ | Cstr _), _ -> false

  let equal a b = a.hash = b.hash && same_node a.node b.node
  let hash v = v.hash
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

(* Membership indexes built and declined (see [mem] below). *)
let mem_indexed = Atomic.make 0
let mem_declined = Atomic.make 0

let intern shard n h =
  match Tbl.find_opt shard.table { node = n; id = -1; hash = h } with
  | Some v ->
    shard.hits <- shard.hits + 1;
    v
  | None ->
    shard.misses <- shard.misses + 1;
    let v = { node = n; id = Atomic.fetch_and_add next_id 1; hash = h } in
    Tbl.add shard.table v v;
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
    mem_indexed : int;
    mem_declined : int;
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
      mem_indexed = Atomic.get mem_indexed;
      mem_declined = Atomic.get mem_declined;
    }

  let reset_counters () =
    Array.iter
      (fun (sh : shard) ->
        sh.hits <- 0;
        sh.misses <- 0;
        Atomic.set sh.contended 0)
      shards;
    Atomic.set mem_indexed 0;
    Atomic.set mem_declined 0
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

(* ------------------------------------------------------------------ *)
(* Membership.  A large set probed repeatedly is tested as its 0/1
   characteristic vector over intern ids: bit [y.id - lo] is set for
   every element [y].  Ids are unique per value, so the bit test gives
   the scan's answer; they serve only as bit positions, never as an
   order.

   Indexes live in a fixed direct-mapped table keyed by the set's
   memoized hash; a collision replaces the slot.  (An ephemeron table
   keyed by the set would not bound them: the intern table holds every
   set strongly, so its entries would never die.)  A large set's first
   probe only marks its slot [Seen] and scans, so a one-off test never
   pays for an index; its second probe builds the bitmap.  The density
   guard declines a set whose id span needs more than [density] bitmap
   words per element, which is never more than its own list spine (3
   words per cons cell), so index memory stays within [slot_count]
   slots and memory the sets already hold.  Slots hold immutable
   records, each published after its bitmap is filled, under a lock
   taken only while the pool is live, as for the intern shards. *)

let scan_cutoff = 16
let slot_count = 64
let density = 3

type slot =
  | Empty
  | Seen of t
  | Declined of t
  | Indexed of { set : t; lo : int; bits : Bitset.t }

let slots = Array.make slot_count Empty
let slot_lock = Mutex.create ()

(* Bits 32..37 of the hash: the FNV multiply mixes them well, and they
   lie above the bits the intern shards and their buckets read. *)
let slot_of v = (v.hash lsr 32) land (slot_count - 1)

let read_slot i =
  if Pool.parallel () then begin
    Mutex.lock slot_lock;
    let s = slots.(i) in
    Mutex.unlock slot_lock;
    s
  end
  else slots.(i)

(* Store [s] in slot [i] unless another domain replaced [seen] since it
   was read; [true] when stored. *)
let publish i seen s =
  if Pool.parallel () then begin
    Mutex.lock slot_lock;
    let fresh = slots.(i) == seen in
    if fresh then slots.(i) <- s;
    Mutex.unlock slot_lock;
    fresh
  end
  else begin
    slots.(i) <- s;
    true
  end

(* Scan of the sorted element list; the [c < 0] arm exits as soon as the
   scanned element exceeds the probe. *)
let rec scan x xs =
  match xs with
  | [] -> false
  | y :: rest ->
    let c = compare x y in
    if c = 0 then true else if c < 0 then false else scan x rest

(* [List.length xs > n], walking at most [n + 1] cells. *)
let rec longer_than n xs =
  match xs with
  | [] -> false
  | _ :: rest -> n = 0 || longer_than (n - 1) rest

let rec id_bounds lo hi n xs =
  match xs with
  | [] -> (lo, hi, n)
  | y :: rest -> id_bounds (Int.min lo y.id) (Int.max hi y.id) (n + 1) rest

let index v xs =
  let lo, hi, n = id_bounds max_int min_int 0 xs in
  if (hi - lo) / 64 > density * n then Declined v
  else begin
    let bits = Bitset.create (hi - lo + 1) in
    List.iter (fun y -> Bitset.set bits (y.id - lo)) xs;
    Indexed { set = v; lo; bits }
  end

let hit lo bits x =
  let k = x.id - lo in
  k >= 0 && k < Bitset.length bits && Bitset.get bits k

let mem x v =
  let xs = as_elements "Value.mem" v in
  if not (longer_than scan_cutoff xs) then scan x xs
  else
    let i = slot_of v in
    match read_slot i with
    | Indexed { set; lo; bits } when set == v -> hit lo bits x
    | Declined s when s == v -> scan x xs
    | Seen s as seen when s == v -> (
      match index v xs with
      | Indexed { lo; bits; _ } as built ->
        if publish i seen built then Atomic.incr mem_indexed;
        hit lo bits x
      | built ->
        if publish i seen built then Atomic.incr mem_declined;
        scan x xs)
    | other ->
      ignore (publish i other (Seen v));
      scan x xs

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

(* Digits of [n >= 0], most significant first, straight into [b]:
   [Int.to_string] goes through [caml_format_int], which cost most of a
   large set's print. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (Int.to_string n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let rec to_buffer b v =
  match v.node with
  | Int n -> add_int b n
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (String.escaped s);
    Buffer.add_char b '"'
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Sym s -> Buffer.add_string b s
  | Tuple xs -> add_seq b '[' xs ']'
  | Set xs -> add_seq b '{' xs '}'
  | Cstr (f, xs) -> cstr_to_buffer b f xs

and cstr_to_buffer b f xs =
  Buffer.add_string b f;
  add_seq b '(' xs ')'

and add_seq b opening xs closing =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      to_buffer b x)
    xs;
  Buffer.add_char b closing

let to_string v =
  match v.node with
  | Sym s -> s
  | Int _ | Str _ | Bool _ | Tuple _ | Set _ | Cstr _ ->
    let b = Buffer.create 16 in
    to_buffer b v;
    Buffer.contents b

(* The [h] box keeps the line break Format puts before a box that opens
   past [pp_max_indent] in an hov, hv, v or b box. *)
let pp ppf v =
  match v.node with
  | Int _ | Str _ | Bool _ | Sym _ -> Format.pp_print_string ppf (to_string v)
  | Tuple _ | Set _ | Cstr _ ->
    Format.pp_open_hbox ppf ();
    Format.pp_print_string ppf (to_string v);
    Format.pp_close_box ppf ()
