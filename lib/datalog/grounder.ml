open Recalg_kernel
module Obs = Recalg_obs.Obs

exception Unsafe of string

module Tuples = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* [full] and [delta] are disjoint: [discover] refuses tuples already in
   either, and [promote] only moves tuples between the sections. Probing
   both therefore enumerates exactly [full ∪ delta], without building the
   union set. *)
type store = {
  mutable full : Tuples.t;  (* envelope facts from earlier rounds *)
  mutable delta : Tuples.t; (* facts new in the current round *)
  mutable next : Tuples.t;  (* facts discovered during this round *)
  indexes : (int * int, Tuples.t Vtbl.t) Hashtbl.t;
      (* (section, argument position) -> value at that position -> tuples
         of the section. Sections: 0 = full, 1 = delta. Built lazily on
         first probe, discarded by [promote] when the sections change. *)
}

let fresh_store () =
  { full = Tuples.empty;
    delta = Tuples.empty;
    next = Tuples.empty;
    indexes = Hashtbl.create 8 }

let section_full = 0
let section_delta = 1

let section_tuples s section =
  if section = section_full then s.full else s.delta

let index_of s section pos =
  match Hashtbl.find_opt s.indexes (section, pos) with
  | Some idx -> idx
  | None ->
    let idx = Vtbl.create 64 in
    Tuples.iter
      (fun tup ->
        match List.nth_opt tup pos with
        | Some key ->
          let bucket =
            Option.value (Vtbl.find_opt idx key) ~default:Tuples.empty
          in
          Vtbl.replace idx key (Tuples.add tup bucket)
        | None -> ())
      (section_tuples s section);
    Hashtbl.add s.indexes (section, pos) idx;
    idx

type state = {
  program : Program.t;
  fuel : Limits.fuel;
  atoms : Propgm.fact Interner.t;
  stores : (string, store) Hashtbl.t;
  seen_rules : (int * int list * int list, unit) Hashtbl.t;
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
    let s = fresh_store () in
    Hashtbl.add st.stores pred s;
    s

let intern_fact st fact =
  match Interner.find_opt st.atoms fact with
  | Some id -> id
  | None ->
    Limits.spend st.fuel ~what:"grounder: atom";
    Interner.intern st.atoms fact

let discover st pred tup =
  let s = store_of st pred in
  if not (Tuples.mem tup s.full || Tuples.mem tup s.delta || Tuples.mem tup s.next)
  then s.next <- Tuples.add tup s.next

let emit_rule st ~head ~pos ~neg =
  let key = (head, List.sort Int.compare pos, List.sort Int.compare neg) in
  if not (Hashtbl.mem st.seen_rules key) then begin
    Hashtbl.add st.seen_rules key ();
    Limits.spend st.fuel ~what:"grounder: rule instance";
    st.ground_rules <-
      { Propgm.head; pos = Array.of_list pos; neg = Array.of_list neg }
      :: st.ground_rules;
    let pred, tup = Interner.get st.atoms head in
    discover st pred tup
  end

(* Enumerate all substitutions satisfying the ordered body within the
   current envelope, calling [k] on each complete one. [idx] counts body
   positions; when [delta_pos = Some d], the positive literal at position
   [d] scans only the delta, positions before [d] scan only older facts,
   and positions after scan everything — the semi-naive split. *)
let rec solve st body idx delta_pos subst k =
  let builtins = st.program.Program.builtins in
  match body with
  | [] -> k subst
  | Literal.Pos a :: rest ->
    let s = store_of st a.Literal.pred in
    let sections =
      match delta_pos with
      | Some d when d = idx -> [ section_delta ]
      | Some d when d > idx -> [ section_full ]
      | Some _ | None -> [ section_full; section_delta ]
    in
    (* The first argument position fully evaluable under the current
       substitution keys an index probe; a literal with no bound argument
       falls back to scanning the section. *)
    let key =
      let rec find i args =
        match args with
        | [] -> None
        | t :: args' -> (
          match Dterm.eval builtins subst t with
          | Some v -> Some (i, v)
          | None -> find (i + 1) args')
      in
      find 0 a.Literal.args
    in
    let try_tuple tup =
      let rec match_args subst args vals =
        match args, vals with
        | [], [] -> Some subst
        | t :: args', v :: vals' -> (
          match Dterm.match_value builtins t v subst with
          | Some subst' -> match_args subst' args' vals'
          | None -> None)
        | _, _ -> None
      in
      match match_args subst a.Literal.args tup with
      | Some subst' -> solve st rest (idx + 1) delta_pos subst' k
      | None -> ()
    in
    List.iter
      (fun section ->
        match key with
        | Some (pos, v) -> (
          match Vtbl.find_opt (index_of s section pos) v with
          | Some bucket ->
            if Obs.enabled () then st.idx_hits <- st.idx_hits + 1;
            Tuples.iter try_tuple bucket
          | None -> if Obs.enabled () then st.idx_misses <- st.idx_misses + 1)
        | None ->
          if Obs.enabled () then st.scans <- st.scans + 1;
          Tuples.iter try_tuple (section_tuples s section))
      sections
  | Literal.Neg _ :: rest ->
    (* Recorded later from the complete substitution; never filters. *)
    solve st rest (idx + 1) delta_pos subst k
  | Literal.Eq (t1, t2) :: rest -> (
    match Dterm.eval builtins subst t1, Dterm.eval builtins subst t2 with
    | Some v1, Some v2 ->
      if Value.equal v1 v2 then solve st rest (idx + 1) delta_pos subst k
    | Some v, None -> (
      match Dterm.match_value builtins t2 v subst with
      | Some subst' -> solve st rest (idx + 1) delta_pos subst' k
      | None -> ())
    | None, Some v -> (
      match Dterm.match_value builtins t1 v subst with
      | Some subst' -> solve st rest (idx + 1) delta_pos subst' k
      | None -> ())
    | None, None -> ())
  | Literal.Neq (t1, t2) :: rest -> (
    match Dterm.eval builtins subst t1, Dterm.eval builtins subst t2 with
    | Some v1, Some v2 ->
      if not (Value.equal v1 v2) then solve st rest (idx + 1) delta_pos subst k
    | _, _ -> ())

let instantiate_rule st (r : Rule.t) ordered_body ~delta_pos =
  let builtins = st.program.Program.builtins in
  solve st ordered_body 0 delta_pos Subst.empty (fun subst ->
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

(* [`Stats] scans the smallest estimated relation first (see {!Cardest});
   any evaluable ordering instantiates the same ground rules on the same
   rounds, so the propositional program is identical either way. *)
let ordered_bodies ?(order = `Syntactic) program edb =
  let prefer =
    match order with
    | `Syntactic -> fun _ -> 0
    | `Stats -> Cardest.prefer program edb
  in
  List.map
    (fun (r : Rule.t) ->
      match
        Safety.evaluation_order_with program.Program.builtins ~prefer
          r.Rule.body
      with
      | Ok body -> (r, body)
      | Error msg -> raise (Unsafe msg))
    program.Program.rules

let promote st =
  Hashtbl.iter
    (fun _ s ->
      s.full <- Tuples.union s.full s.delta;
      s.delta <- s.next;
      s.next <- Tuples.empty;
      Hashtbl.reset s.indexes)
    st.stores;
  if Obs.enabled () then begin
    let envelope, delta =
      Hashtbl.fold
        (fun _ s (e, d) ->
          let dn = Tuples.cardinal s.delta in
          (e + Tuples.cardinal s.full + dn, d + dn))
        st.stores (0, 0)
    in
    Obs.count "ground/envelope" envelope;
    Obs.count "ground/delta" delta
  end

let delta_nonempty st =
  Hashtbl.fold (fun _ s acc -> acc || not (Tuples.is_empty s.delta)) st.stores false

let close_seminaive st ordered =
  while delta_nonempty st do
    Limits.check st.fuel ~what:"grounder: round";
    Faultinj.hit "ground/round";
    Obs.count "ground/round" 1;
    List.iter
      (fun (r, body) ->
        List.iteri
          (fun i lit ->
            match lit with
            | Literal.Pos _ -> instantiate_rule st r body ~delta_pos:(Some i)
            | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ -> ())
          body)
      ordered;
    promote st
  done

let fresh_state ~fuel program =
  {
    program;
    fuel;
    atoms = Interner.create ~hash:Propgm.fact_hash ~equal:Propgm.fact_equal ();
    stores = Hashtbl.create 16;
    seen_rules = Hashtbl.create 256;
    ground_rules = [];
    idx_hits = 0;
    idx_misses = 0;
    scans = 0;
  }

(* Seed the envelope with the extensional database; EDB facts become
   body-less ground rules so every semantics sees them as axioms. *)
let seed_axioms st edb =
  Edb.fold
    (fun pred tup () ->
      let id = intern_fact st (pred, tup) in
      emit_rule st ~head:id ~pos:[] ~neg:[])
    edb ()

let propgm_of st =
  { Propgm.atoms = st.atoms; rules = Array.of_list (List.rev st.ground_rules) }

let flush_probe_counters st =
  if Obs.enabled () then begin
    Obs.count "ground/index_hit" st.idx_hits;
    Obs.count "ground/index_miss" st.idx_misses;
    Obs.count "ground/scan" st.scans;
    st.idx_hits <- 0;
    st.idx_misses <- 0;
    st.scans <- 0;
    Obs.count "ground/atoms" (Interner.size st.atoms);
    Obs.count "ground/rules" (List.length st.ground_rules)
  end

let ground ?(fuel = Limits.default ()) ?(strategy = `Seminaive) ?order program
    edb =
  Obs.span "ground" @@ fun () ->
  let st = fresh_state ~fuel program in
  seed_axioms st edb;
  let ordered = ordered_bodies ?order program edb in
  promote st;
  (* First pass without a delta restriction covers rules whose bodies have
     no positive literal and seeds everything else. *)
  List.iter (fun (r, body) -> instantiate_rule st r body ~delta_pos:None) ordered;
  promote st;
  (match strategy with
  | `Seminaive -> close_seminaive st ordered
  | `Naive ->
    let changed = ref true in
    while !changed do
      Obs.count "ground/round" 1;
      let before = Hashtbl.length st.seen_rules in
      List.iter (fun (r, body) -> instantiate_rule st r body ~delta_pos:None) ordered;
      promote st;
      changed := Hashtbl.length st.seen_rules > before || delta_nonempty st
    done);
  flush_probe_counters st;
  propgm_of st

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
   the full re-instantiation pass that follows rederives it, DRed-style.

   Atoms stay interned forever: the interner cannot shrink, but a stale
   atom heads no rule, so every semantics maps it to false and
   interpretation-level equality with a from-scratch grounding holds. *)
module Live = struct
  type nonrec t = {
    st : state;
    ordered : (Rule.t * Literal.t list) list;
    mutable edb : Edb.t;
  }

  let start ?(fuel = Limits.default ()) ?order program edb =
    Obs.span "ground.live_start" @@ fun () ->
    let st = fresh_state ~fuel program in
    seed_axioms st edb;
    let ordered = ordered_bodies ?order program edb in
    promote st;
    List.iter (fun (r, body) -> instantiate_rule st r body ~delta_pos:None) ordered;
    promote st;
    close_seminaive st ordered;
    flush_probe_counters st;
    { st; ordered; edb }

  let edb t = t.edb
  let propgm t = propgm_of t.st

  (* Checkpoints make update batches all-or-nothing. Everything the
     batch mutates is either an immutable value behind a mutable field
     ([edb], [ground_rules], the per-store [Tuples.t] sections) or
     rebuildable from one of those ([seen_rules] from the rule list,
     indexes lazily from the stores) — so a checkpoint is a handful of
     pointer copies, and [restore] only pays the [seen_rules] rebuild on
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
          (fun pred s acc -> (pred, (s.full, s.delta, s.next)) :: acc)
          t.st.stores [];
    }

  let restore t cp =
    let st = t.st in
    t.edb <- cp.cp_edb;
    st.ground_rules <- cp.cp_rules;
    Hashtbl.reset st.seen_rules;
    List.iter
      (fun (r : Propgm.rule) ->
        Hashtbl.replace st.seen_rules
          ( r.Propgm.head,
            List.sort Int.compare (Array.to_list r.Propgm.pos),
            List.sort Int.compare (Array.to_list r.Propgm.neg) )
          ())
      cp.cp_rules;
    Hashtbl.iter
      (fun pred s ->
        (match List.assoc_opt pred cp.cp_stores with
        | Some (full, delta, next) ->
          s.full <- full;
          s.delta <- delta;
          s.next <- next
        | None ->
          (* Store created by the aborted batch: empty it; an all-empty
             store is indistinguishable from an absent one. *)
          s.full <- Tuples.empty;
          s.delta <- Tuples.empty;
          s.next <- Tuples.empty);
        Hashtbl.reset s.indexes)
      st.stores

  module Iset = Set.Make (Int)

  let rule_key (r : Propgm.rule) =
    ( r.Propgm.head,
      List.sort Int.compare (Array.to_list r.Propgm.pos),
      List.sort Int.compare (Array.to_list r.Propgm.neg) )

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
       through a deleted fact. Counting worklist: each rule holds the
       number of its not-yet-live positive occurrences; a rule reaching
       zero makes its head live, waking the rules waiting on it. *)
    let live : (int, unit) Hashtbl.t = Hashtbl.create 256 in
    let waiting : (int, (int ref * Propgm.rule) list) Hashtbl.t =
      Hashtbl.create 256
    in
    let queue = Queue.create () in
    let mark id =
      if not (Hashtbl.mem live id) then begin
        Hashtbl.add live id ();
        Queue.push id queue
      end
    in
    let entries =
      List.map
        (fun (r : Propgm.rule) ->
          let unmet = ref (Array.length r.Propgm.pos) in
          Array.iter
            (fun a ->
              let l = Option.value (Hashtbl.find_opt waiting a) ~default:[] in
              Hashtbl.replace waiting a ((unmet, r) :: l))
            r.Propgm.pos;
          if !unmet = 0 then mark r.Propgm.head;
          (unmet, r))
        candidates
    in
    while not (Queue.is_empty queue) do
      let a = Queue.pop queue in
      Limits.spend st.fuel ~what:"grounder: liveness";
      match Hashtbl.find_opt waiting a with
      | None -> ()
      | Some l ->
        Hashtbl.remove waiting a;
        List.iter
          (fun (unmet, (r : Propgm.rule)) ->
            decr unmet;
            if !unmet = 0 then mark r.Propgm.head)
          l
    done;
    let kept =
      List.filter_map
        (fun (unmet, r) -> if !unmet = 0 then Some r else None)
        entries
    in
    Obs.countf "incr/ground_pruned_rules" (fun () ->
        List.length st.ground_rules - List.length kept);
    st.ground_rules <- kept;
    Hashtbl.reset st.seen_rules;
    List.iter (fun r -> Hashtbl.replace st.seen_rules (rule_key r) ()) kept;
    (* Prune dead envelope tuples and invalidate the per-store indexes.
       Between updates [delta]/[next] are empty, so [full] is the whole
       envelope. *)
    Hashtbl.iter
      (fun pred s ->
        s.full <-
          Tuples.filter
            (fun tup ->
              match Interner.find_opt st.atoms (pred, tup) with
              | Some id -> Hashtbl.mem live id
              | None -> false)
            s.full;
        s.delta <- Tuples.empty;
        s.next <- Tuples.empty;
        Hashtbl.reset s.indexes)
      st.stores

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
        seed_axioms t.st adds;
        promote t.st;
        if n_dels > 0 then begin
          (* Rederive: one unrestricted pass re-fires every rule against
             the pruned envelope, resurrecting the conservatively
             overdeleted instances noted above, before closing up. *)
          List.iter
            (fun (r, body) -> instantiate_rule t.st r body ~delta_pos:None)
            t.ordered;
          promote t.st
        end;
        close_seminaive t.st t.ordered;
        flush_probe_counters t.st
      end;
      propgm_of t.st
    with e ->
      restore t cp;
      raise e
end
