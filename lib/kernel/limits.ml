exception Diverged of string

type kind = Fuel | Deadline | Memory | Cancelled

exception
  Resource_exhausted of {
    kind : kind;
    what : string;
    span_path : string option;
  }

let kind_name = function
  | Fuel -> "fuel"
  | Deadline -> "deadline"
  | Memory -> "memory"
  | Cancelled -> "cancelled"

(* Exhaustion context: an observability layer higher in the stack may
   register a provider describing *where* evaluation currently is (the
   active span path). [None] — the default, and the answer whenever
   tracing is off — leaves the message byte-identical to the
   context-free one. *)
let context : (unit -> string option) ref = ref (fun () -> None)
let set_context f = context := f

let exhausted what =
  let base = what ^ ": fuel exhausted" in
  match !context () with
  | None -> Diverged base
  | Some where -> Diverged (base ^ " (in " ^ where ^ ")")

let describe = function
  | Diverged msg -> Some msg
  | Resource_exhausted { kind; what; span_path } ->
    let base = what ^ ": " ^ kind_name kind ^ " exhausted" in
    Some
      (match span_path with
      | None -> base
      | Some where -> base ^ " (in " ^ where ^ ")")
  | _ -> None

let () =
  Printexc.register_printer (function
    | Resource_exhausted _ as e ->
      Option.map (fun m -> "Limits.Resource_exhausted(" ^ m ^ ")") (describe e)
    | _ -> None)

(* A governed budget adds wall-clock, heap, and cancellation ceilings
   on top of fuel. The deadline is absolute; the memory ceiling is on
   the major heap ([Gc.quick_stat], no heap walk); the cancel token is
   a plain atomic another domain (a future server's control plane, or a
   test) may flip at any time. [tick] amortizes the [Unix.gettimeofday]
   / [Gc.quick_stat] cost across spends; boundary sites call {!check}
   for an unamortized probe so a stuck round still notices promptly. *)
type budget = {
  deadline : float option;
  memory_words : int option;
  cancel : bool Atomic.t;
  degrade : bool;
  degraded : (kind * string) option Atomic.t;
  tick : int Atomic.t;
}

(* The budget cell is atomic so a fuel value shared across pool tasks
   (parallel strata, per-rule rounds) loses no spends: every successful
   [spend] subtracts exactly one, so the total — and hence [remaining]
   after a completed evaluation — is the sequential number regardless of
   interleaving. A failed spend restores its decrement before raising,
   keeping [left] non-negative, exactly as the sequential check that
   raises without decrementing. *)
type fuel = { left : int Atomic.t; infinite : bool; budget : budget option }

let of_int n =
  if n <= 0 then invalid_arg "Limits.of_int: fuel must be positive";
  { left = Atomic.make n; infinite = false; budget = None }

let unlimited = { left = Atomic.make 0; infinite = true; budget = None }
let default () = of_int 1_000_000
let cancel_token () = Atomic.make false
let cancel tok = Atomic.set tok true
let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

let governed ?fuel ?timeout_ms ?memory_limit_mb ?cancel ?(degrade = false) () =
  let budget =
    Some
      {
        deadline =
          Option.map
            (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
            timeout_ms;
        memory_words = Option.map (( * ) words_per_mb) memory_limit_mb;
        cancel =
          (match cancel with Some tok -> tok | None -> Atomic.make false);
        degrade;
        degraded = Atomic.make None;
        tick = Atomic.make 0;
      }
  in
  match fuel with
  | Some n ->
    if n <= 0 then invalid_arg "Limits.governed: fuel must be positive";
    { left = Atomic.make n; infinite = false; budget }
  | None -> { left = Atomic.make 0; infinite = true; budget }

let raise_exhausted kind ~what =
  raise (Resource_exhausted { kind; what; span_path = !context () })

let check_budget b ~what =
  if Atomic.get b.cancel then raise_exhausted Cancelled ~what;
  (match b.deadline with
  | Some t when Unix.gettimeofday () > t -> raise_exhausted Deadline ~what
  | Some _ | None -> ());
  match b.memory_words with
  | Some w when (Gc.quick_stat ()).Gc.heap_words > w ->
    raise_exhausted Memory ~what
  | Some _ | None -> ()

let check t ~what =
  match t.budget with None -> () | Some b -> check_budget b ~what

(* Probe the expensive ceilings only every 64th spend: fuel stays an
   exact count while deadline/memory/cancellation detection lags by at
   most 64 cheap steps. Ungoverned fuel pays one [None] branch. *)
let tick_mask = 63

let spend t ~what =
  (match t.budget with
  | None -> ()
  | Some b ->
    if Atomic.fetch_and_add b.tick 1 land tick_mask = 0 then
      check_budget b ~what);
  if not t.infinite then
    if Atomic.fetch_and_add t.left (-1) <= 0 then begin
      Atomic.incr t.left;
      raise (exhausted what)
    end

let remaining t = if t.infinite then None else Some (Atomic.get t.left)

(* Graceful degradation: a budget created with [~degrade:true] lets the
   monotone engines (IFP, semi-naive) catch their own exhaustion at a
   round boundary, latch what ran out, and return the best-so-far
   under-approximation instead of raising. The latch is sticky and
   records only the first cause. *)
let degrade_allowed t =
  match t.budget with None -> false | Some b -> b.degrade

let degraded t =
  match t.budget with None -> None | Some b -> Atomic.get b.degraded

let latch t e =
  match t.budget with
  | None -> ()
  | Some b ->
    let cause =
      match e with
      | Diverged msg -> Some (Fuel, msg)
      | Resource_exhausted { kind; what; _ } -> Some (kind, what)
      | _ -> None
    in
    (match (cause, Atomic.get b.degraded) with
    | Some c, None -> Atomic.set b.degraded (Some c)
    | _ -> ())

let degradable t e =
  degrade_allowed t
  && (match e with Diverged _ | Resource_exhausted _ -> true | _ -> false)

let fail_degraded t =
  match degraded t with
  | None -> invalid_arg "Limits.fail_degraded: budget is not degraded"
  | Some (kind, what) -> raise_exhausted kind ~what

(* The ambient active budget: installed by the top-level driver
   ([Common_args.with_reporting], or a chaos test) so layers with no
   fuel parameter of their own — pool tasks — can still honor the
   deadline/cancellation ceilings. A single global cell
   is enough: drivers nest on one domain, and worker domains only read. *)
let active : fuel option Atomic.t = Atomic.make None

let with_active t f =
  let prev = Atomic.get active in
  Atomic.set active (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set active prev) f

let check_active ~what =
  match Atomic.get active with None -> () | Some t -> check t ~what

(* A pure read of the ambient budget's remaining fuel: the metrics layer
   subtracts two readings to attribute fuel to a span. Reading never
   spends, so instrumentation cannot perturb the budget it observes. *)
let active_remaining () =
  match Atomic.get active with None -> None | Some t -> remaining t
