open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Unsafe = Store.Unsafe

(* A rule instance is its head with its positive and negative body atoms
   as sets: sorted id lists, compared and hashed as ints. *)
module Rule_key = Hashtbl.Make (struct
  type t = int * int list * int list

  let equal (h, p, n) (h', p', n') =
    h = h' && List.equal Int.equal p p' && List.equal Int.equal n n'

  let hash (h, p, n) =
    let mix acc id = (acc * 0x100000001b3) + id in
    let x = List.fold_left mix (mix (List.fold_left mix h p) (-1)) n in
    x lxor (x lsr 29)
end)

type state = {
  program : Program.t;
  fuel : Limits.fuel;
  rules : (Rule.t * Literal.t list) list;  (* bodies in evaluation order *)
  atoms : Propgm.fact Interner.t;
  stores : (string, Store.t) Hashtbl.t;
  mutable marks : Bytes.t;
      (* Byte [id] is set when atom [id]'s tuple is in its predicate's
         store, in any section; bytes past the end are clear. *)
  seen_rules : unit Rule_key.t;
  mutable ground_rules : Propgm.rule list;
  (* Probe accounting, only bumped while a sink is installed; emitted as
     counters when grounding completes. *)
  mutable idx_hits : int;
  mutable idx_misses : int;
  mutable scans : int;
}

let store_of st pred =
  match Hashtbl.find_opt st.stores pred with
  | Some s -> s
  | None ->
    let s = Store.create ~full:Tuples.empty ~delta:Tuples.empty in
    Hashtbl.add st.stores pred s;
    s

let intern_fact st fact =
  match Interner.find_opt st.atoms fact with
  | Some id -> id
  | None ->
    Limits.spend st.fuel ~what:"grounder: atom";
    Interner.intern st.atoms fact

let marked st id = id < Bytes.length st.marks && Bytes.get st.marks id <> '\000'

let mark st id =
  let len = Bytes.length st.marks in
  if id >= len then begin
    let bigger = Bytes.make (max (2 * len) (id + 1)) '\000' in
    Bytes.blit st.marks 0 bigger 0 len;
    st.marks <- bigger
  end;
  Bytes.set st.marks id '\001'

(* Add atom [id]'s tuple to its predicate's store unless it is there:
   one mark test, where three tuple-set lookups ([Store.known]) were. *)
let discover st id =
  if not (marked st id) then begin
    mark st id;
    let pred, tup = Interner.get st.atoms id in
    Store.add (store_of st pred) tup
  end

let rule_key head pos neg = (head, List.sort Int.compare pos, List.sort Int.compare neg)

let emit_rule st ~head ~pos ~neg =
  let key = rule_key head pos neg in
  if not (Rule_key.mem st.seen_rules key) then begin
    Rule_key.add st.seen_rules key ();
    Limits.spend st.fuel ~what:"grounder: rule instance";
    st.ground_rules <-
      { Propgm.head; pos = Array.of_list pos; neg = Array.of_list neg }
      :: st.ground_rules;
    discover st head
  end

(* Replace the materialized rules and re-key the instance table. *)
let set_rules st rules =
  st.ground_rules <- rules;
  Rule_key.reset st.seen_rules;
  List.iter
    (fun (r : Propgm.rule) ->
      Rule_key.replace st.seen_rules
        (rule_key r.Propgm.head (Array.to_list r.Propgm.pos)
           (Array.to_list r.Propgm.neg))
        ())
    rules

(* Enumerate all substitutions satisfying the ordered body within the
   current envelope, calling [k] on each complete one — the semi-naive
   split of {!Store.split}: with [delta_pos = Some d] the positive
   literal at position [d] reads only the delta, earlier positions only
   older facts, later ones both. Negative literals are recorded later
   from the complete substitution; they never filter. *)
let solve st body delta_pos k =
  let count (p : Store.probe) =
    if Obs.enabled () then
      match p with
      | Hit -> st.idx_hits <- st.idx_hits + 1
      | Miss -> st.idx_misses <- st.idx_misses + 1
      | Scan -> st.scans <- st.scans + 1
  in
  Store.solve st.program.Program.builtins ~store:(store_of st)
    ~sections:(Store.split delta_pos)
    ~neg:(fun _ _ -> true)
    ~count body k

let instantiate st ((r : Rule.t), ordered_body, delta_pos) =
  let builtins = st.program.Program.builtins in
  solve st ordered_body delta_pos (fun subst ->
      match Literal.ground_atom builtins subst r.Rule.head with
      | Some head_fact ->
        let head = intern_fact st head_fact in
        let pos_ids, neg_ids =
          List.fold_left
            (fun (ps, ns) lit ->
              match lit with
              | Literal.Pos a -> (
                match Literal.ground_atom builtins subst a with
                | Some f -> (intern_fact st f :: ps, ns)
                | None -> (ps, ns))
              | Literal.Neg a -> (
                match Literal.ground_atom builtins subst a with
                | Some f -> (ps, intern_fact st f :: ns)
                | None -> (ps, ns))
              | Literal.Eq _ | Literal.Neq _ -> (ps, ns))
            ([], []) ordered_body
        in
        emit_rule st ~head ~pos:(List.rev pos_ids) ~neg:(List.rev neg_ids)
      | None -> ())

let propgm_of st =
  { Propgm.atoms = st.atoms; rules = Array.of_list (List.rev st.ground_rules) }

let flush_counters st =
  if Obs.enabled () then begin
    Obs.count "ground/index_hit" st.idx_hits;
    Obs.count "ground/index_miss" st.idx_misses;
    Obs.count "ground/scan" st.scans;
    st.idx_hits <- 0;
    st.idx_misses <- 0;
    st.scans <- 0;
    Obs.count "ground/envelope"
      (Hashtbl.fold (fun _ s n -> n + Tuples.cardinal (Store.full s)) st.stores 0);
    Obs.count "ground/atoms" (Interner.size st.atoms);
    Obs.count "ground/rules" (List.length st.ground_rules)
  end

(* Add [axioms] to the envelope as body-less ground rules, so every
   semantics sees them as axioms, and run the rule loop to its
   fixpoint. The axioms are the first round's delta. *)
let close st axioms ~first ~variant =
  Edb.fold
    (fun pred tup () ->
      let id = intern_fact st (pred, tup) in
      emit_rule st ~head:id ~pos:[] ~neg:[])
    axioms ();
  Hashtbl.iter (fun _ s -> Store.promote s) st.stores;
  Store.rounds ~fuel:st.fuel ~what:"grounder: round" ~site:"ground/round"
    ~derived:"ground/delta" ~first ~variant
    ~fire:(List.iter (instantiate st))
    st.stores st.rules;
  flush_counters st

let grounding ~fuel ~strategy program edb =
  let st =
    {
      program;
      fuel;
      rules = Store.ordered program.Program.builtins program.Program.rules;
      atoms = Interner.create ~hash:Propgm.fact_hash ~equal:Propgm.fact_equal ();
      stores = Hashtbl.create 16;
      marks = Bytes.empty;
      seen_rules = Rule_key.create 256;
      ground_rules = [];
      idx_hits = 0;
      idx_misses = 0;
      scans = 0;
    }
  in
  close st edb ~first:`Full ~variant:strategy;
  st

let ground ?(fuel = Limits.default ()) ?(strategy = `Seminaive) program edb =
  Obs.span "ground" @@ fun () -> propgm_of (grounding ~fuel ~strategy program edb)

(* Resident grounding under update batches.

   The envelope is monotone in the extensional database — [solve] never
   lets a negative literal filter — so insertions are a semi-naive
   continuation: the new facts enter as axiom rules, become the delta,
   and the ordinary closing rounds extend the materialization.

   Deletions exploit that the materialized ground rules record the whole
   derivation structure of the envelope. Removing the deleted facts'
   axiom rules and recomputing atom liveness over the remaining rules (a
   rule supports its head once every positive body atom is live) yields
   exactly the envelope of the shrunk database; dead rules and dead
   store tuples are pruned. One conservative corner: a fact that is both
   extensional and the head of a body-less rule instance shares a single
   materialized rule with its axiom, so retraction can overdelete it —
   the unrestricted first round that follows rederives it, DRed-style.

   Atoms stay interned forever: the interner cannot shrink, but a stale
   atom heads no rule, so every semantics maps it to false and
   interpretation-level equality with a from-scratch grounding holds. *)
module Live = struct
  type nonrec t = { st : state; mutable edb : Edb.t }

  let start ?(fuel = Limits.default ()) program edb =
    Obs.span "ground.live_start" @@ fun () ->
    { st = grounding ~fuel ~strategy:`Seminaive program edb; edb }

  let edb t = t.edb
  let propgm t = propgm_of t.st

  (* Checkpoints make update batches all-or-nothing. Everything the
     batch mutates is either an immutable value behind a mutable field
     ([edb], [ground_rules], the per-store [Tuples.t] sections) or
     rebuildable from one of those ([seen_rules] from the rule list, the
     atom marks and the indexes from the stores) — so a checkpoint is a
     handful of pointer copies, and [restore] only pays the rebuilds on
     the failure path. Interned atoms are deliberately not rolled back:
     the interner only grows, and an atom heading no rule is invisible
     to every semantics (see the module comment). *)
  type checkpoint = {
    cp_edb : Edb.t;
    cp_rules : Propgm.rule list;
    cp_stores : (string * (Tuples.t * Tuples.t * Tuples.t)) list;
  }

  let checkpoint t =
    {
      cp_edb = t.edb;
      cp_rules = t.st.ground_rules;
      cp_stores =
        Hashtbl.fold
          (fun pred s acc -> (pred, Store.sections s) :: acc)
          t.st.stores [];
    }

  let restore t cp =
    let st = t.st in
    t.edb <- cp.cp_edb;
    set_rules st cp.cp_rules;
    Hashtbl.iter
      (fun pred s ->
        Store.restore s
          (match List.assoc_opt pred cp.cp_stores with
          | Some sections -> sections
          | None ->
            (* Store created by the aborted batch: empty it; an all-empty
               store is indistinguishable from an absent one. *)
            (Tuples.empty, Tuples.empty, Tuples.empty)))
      st.stores;
    Bytes.fill st.marks 0 (Bytes.length st.marks) '\000';
    Hashtbl.iter
      (fun pred s ->
        let full, delta, next = Store.sections s in
        List.iter
          (Tuples.iter (fun tup ->
               Option.iter (mark st) (Interner.find_opt st.atoms (pred, tup))))
          [ full; delta; next ])
      st.stores

  module Iset = Set.Make (Int)

  let retract t dels =
    let st = t.st in
    (* Drop the deleted facts' axiom rules. *)
    let dead_axioms =
      Edb.fold
        (fun pred tup acc ->
          match Interner.find_opt st.atoms (pred, tup) with
          | Some id -> Iset.add id acc
          | None -> acc)
        dels Iset.empty
    in
    let candidates =
      List.filter
        (fun (r : Propgm.rule) ->
          not
            (Array.length r.Propgm.pos = 0
            && Array.length r.Propgm.neg = 0
            && Iset.mem r.Propgm.head dead_axioms))
        st.ground_rules
    in
    (* Atom liveness over the remaining rules, as a least fixpoint from
       scratch — support counts cannot simply be decremented, because
       facts may have supported each other in a cycle reachable only
       through a deleted fact. Negative literals never filter the
       envelope, so they are licensed; a rule is kept when all its
       positive atoms are live. One unit of fuel per live atom. *)
    let live =
      Fixpoint.lfp
        { Propgm.atoms = st.atoms; rules = Array.of_list candidates }
        ~neg_ok:(fun _ -> true)
    in
    for _ = 1 to Bitset.count live do
      Limits.spend st.fuel ~what:"grounder: liveness"
    done;
    let kept =
      List.filter
        (fun (r : Propgm.rule) -> Array.for_all (Bitset.get live) r.Propgm.pos)
        candidates
    in
    Obs.countf "incr/ground_pruned_rules" (fun () ->
        List.length st.ground_rules - List.length kept);
    set_rules st kept;
    (* Prune dead envelope tuples and invalidate the per-store indexes.
       Between updates [delta]/[next] are empty, so [full] is the whole
       envelope. *)
    Hashtbl.iter
      (fun pred s ->
        let full =
          Tuples.filter
            (fun tup ->
              match Interner.find_opt st.atoms (pred, tup) with
              | Some id -> Bitset.get live id
              | None -> false)
            (Store.full s)
        in
        Store.restore s (full, Tuples.empty, Tuples.empty))
      st.stores;
    (* The stores kept their live tuples only; so do the marks. *)
    Bytes.iteri
      (fun id m ->
        if m <> '\000' && not (id < Bitset.length live && Bitset.get live id) then
          Bytes.set st.marks id '\000')
      st.marks

  (* All-or-nothing: any exception mid-batch — fuel, a governed
     ceiling, an injected fault — restores the pre-batch checkpoint
     before re-raising, so the resident grounding never holds a
     half-applied update. *)
  let update t u =
    Obs.span "ground.live_update" @@ fun () ->
    let cp = checkpoint t in
    try
      let adds, dels = Edb.Update.effective t.edb u in
      t.edb <- Edb.Update.apply u t.edb;
      let n_adds = Edb.fold (fun _ _ n -> n + 1) adds 0
      and n_dels = Edb.fold (fun _ _ n -> n + 1) dels 0 in
      if n_adds + n_dels > 0 then begin
        Obs.count "incr/ground_insertions" n_adds;
        Obs.count "incr/ground_retractions" n_dels;
        Limits.spend t.st.fuel ~what:"grounder: update batch";
        Faultinj.hit "incr/batch";
        if n_dels > 0 then retract t dels;
        (* After a retraction the first round re-fires every rule
           against the pruned envelope, resurrecting the conservatively
           overdeleted instances noted above; an insertion alone
           continues from the new axioms. *)
        close t.st adds ~first:(if n_dels > 0 then `Full else `Delta)
          ~variant:`Seminaive
      end;
      propgm_of t.st
    with e ->
      restore t cp;
      raise e
end
