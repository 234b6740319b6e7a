(** Explicit resource bounds.

    Membership testing for the languages of the paper is undecidable
    (Proposition 6.3), and the intended models may be infinite (the even-set
    example generates all even naturals). Every evaluator therefore takes a
    fuel budget; exhausting it raises {!Diverged} instead of silently
    truncating the answer.

    Beyond fuel, {!governed} builds a composable budget that adds a
    wall-clock deadline, a major-heap memory ceiling, and a cooperative
    cancellation token — the resource-governance layer a long-lived
    server needs. Those ceilings raise the structured
    {!Resource_exhausted}; plain fuel keeps raising {!Diverged}, so the
    historical contract (and every test that relies on it) is
    unchanged. *)

exception Diverged of string
(** Raised when an evaluation exceeds its fuel budget. The payload says
    which engine gave up and at what size. *)

type kind = Fuel | Deadline | Memory | Cancelled

exception
  Resource_exhausted of {
    kind : kind;  (** which ceiling was hit *)
    what : string;  (** the engine step that noticed, e.g. ["IFP iteration"] *)
    span_path : string option;
        (** the active observability span path, when tracing is on *)
  }
(** Raised when a {!governed} budget's deadline, memory ceiling, or
    cancellation token trips ([kind] is never [Fuel] from the checks
    themselves — fuel raises {!Diverged} — but [Fuel] appears when a
    degradation latch is re-raised by {!fail_degraded}). *)

val kind_name : kind -> string
(** ["fuel"], ["deadline"], ["memory"], ["cancelled"]. *)

val describe : exn -> string option
(** A human-readable message for {!Diverged} and {!Resource_exhausted}
    (span path included when present); [None] for any other exception. *)

type fuel

val of_int : int -> fuel
(** A budget of [n] abstract steps. Raises [Invalid_argument] if [n <= 0]. *)

val unlimited : fuel
val default : unit -> fuel
(** A fresh budget of 1_000_000 steps — ample for all bundled examples and
    benches. *)

val governed :
  ?fuel:int ->
  ?timeout_ms:int ->
  ?memory_limit_mb:int ->
  ?cancel:bool Atomic.t ->
  ?degrade:bool ->
  unit ->
  fuel
(** A composable budget. [?fuel] bounds abstract steps (omitted =
    unlimited steps, but the other ceilings still apply); [?timeout_ms]
    sets an absolute wall-clock deadline measured from now;
    [?memory_limit_mb] caps the major heap (checked via [Gc.quick_stat],
    so it is cheap but counts live+garbage words until the next major
    collection); [?cancel] is a token another domain may {!cancel} at
    any time; [~degrade:true] opts into graceful degradation (see
    {!degradable}). Deadline/memory/cancellation are probed every 64th
    {!spend} and at every {!check}; fuel accounting stays exact. *)

val cancel_token : unit -> bool Atomic.t
(** A fresh, untripped cancellation token for {!governed}. *)

val cancel : bool Atomic.t -> unit
(** Trip a token: every computation governed by a budget carrying it
    raises [Resource_exhausted {kind = Cancelled; _}] at its next
    probe. *)

val spend : fuel -> what:string -> unit
(** Consume one step; raises {!Diverged} when the budget is exhausted
    (and, for governed budgets, {!Resource_exhausted} when an amortized
    probe finds a tripped ceiling). The same [fuel] value is a shared
    mutable budget: pass it down to share a budget across
    sub-computations. *)

val check : fuel -> what:string -> unit
(** Probe the governed ceilings without consuming fuel — the call
    engines make at fixpoint-round, pool-task, and join-partition
    boundaries. No-op for ungoverned fuel. *)

val remaining : fuel -> int option
(** [None] for {!unlimited} (and fuel-less governed budgets). *)

(** {2 Graceful degradation}

    With [governed ~degrade:true], the monotone engines (IFP loops,
    datalog semi-naive) catch their own exhaustion at a round boundary
    and return the fixpoint computed so far — a sound
    under-approximation — instead of raising. The budget latches what
    ran out; callers must consult {!degraded} to learn the result is
    incomplete. Non-monotone engines (alternating fixpoints, stratified
    negation beyond the degraded stratum) never degrade: they either
    finish or raise. *)

val degrade_allowed : fuel -> bool
(** Whether this budget opted into degradation. *)

val degradable : fuel -> exn -> bool
(** [true] when the budget allows degradation and [e] is one of its
    exhaustion signals ({!Diverged} or {!Resource_exhausted}) — the
    guard engines use in [with e when ...] handlers. Injected faults
    and genuine bugs are never degradable. *)

val latch : fuel -> exn -> unit
(** Record [e] as the degradation cause (first cause wins; non-resource
    exceptions are ignored). *)

val degraded : fuel -> (kind * string) option
(** The latched degradation cause, if the computation was cut short. *)

val fail_degraded : fuel -> 'a
(** Re-raise the latched cause as {!Resource_exhausted} — used by the
    incremental engines, which must treat degradation as an abort (a
    silently under-approximated materialization would poison every
    later update). Raises [Invalid_argument] if not degraded. *)

(** {2 Ambient budget}

    Layers with no fuel parameter of their own — pool tasks, join
    partitions — honor deadlines and cancellation through an ambient
    budget the top-level driver installs. *)

val with_active : fuel -> (unit -> 'a) -> 'a
(** Install [fuel] as the ambient budget for the duration of the
    callback (restored on exit, exceptions included). *)

val check_active : what:string -> unit
(** {!check} against the ambient budget; no-op when none is installed. *)

val active_remaining : unit -> int option
(** {!remaining} of the ambient budget — [None] when none is installed
    or it is unlimited. A pure read: the metrics layer subtracts two
    readings to attribute fuel to a span without spending any. *)

val set_context : (unit -> string option) -> unit
(** Register an exhaustion-context provider, consulted when {!Diverged}
    or {!Resource_exhausted} is about to be raised: [Some where]
    attaches the location to the message / [span_path] field so users
    see where the budget died (the observability layer supplies the
    active span path, e.g. ["run.valid > valid > round"]); [None]
    leaves the message unchanged. The default provider always answers
    [None]. *)
