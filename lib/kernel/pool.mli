(** A small fixed work-pool over stdlib [Domain] — the multicore engine
    room shared by every parallel evaluation path: the independent
    components of a stratum, in [Seminaive.stratified] and
    [Stratified_to_ifp.eval_all].

    The pool is global and opt-in: the default size is [1], at which
    {!run} and {!map} degenerate to plain sequential evaluation with
    zero synchronisation — single-domain behaviour (results, fuel,
    traces) is exactly the pre-multicore engine. With [set_domains n]
    for [n > 1], the first {!run} of two or more tasks spawns [n - 1]
    worker domains, which persist and serve a shared job queue; the
    submitting domain works the queue alongside them
    (so nested {!run} calls cannot deadlock: a waiter always either
    finds a job to execute or sleeps until one of its own completes).

    Determinism contract: {!run} and {!map} return results in input
    order, and every parallel call site in the repository is structured
    so the combined result is independent of execution interleaving:
    each task computes its own fixpoint over shared immutable inputs,
    and the results merge in task order (DESIGN.md §9). If several
    tasks raise, the exception of the earliest task (lowest index) is
    re-raised, so failure is as deterministic as success.

    Failure containment contract (see DESIGN.md §11): a task that
    raises — including a [Faultinj.Injected] fault or a
    [Limits.Resource_exhausted] abort — never poisons the pool. The
    remaining tasks of the batch run (or fail fast at their own
    ambient-budget probe, for cancellation), the workers return to the
    queue, and the very next {!run} behaves normally. Every task probes
    [Limits.check_active] on entry, which is how stratum components
    honor deadlines and cancellation without threading a budget through
    their signatures. *)

val set_domains : int -> unit
(** Resize the pool to [n] total domains ([n - 1] workers plus the
    caller); values [< 1] clamp to [1]. Records the size and spawns
    nothing: the workers start at the first {!run} of two or more
    tasks. A new size joins the old workers, so it must be set from
    outside any pool task. Idempotent when the size is unchanged. *)

val parallel : unit -> bool
(** Whether worker domains are live — false until the first batch of a
    pool above size [1] spawns them. The one-load guard the kernel's
    intern-shard and membership-index locks and the obs emit lock check
    before paying any synchronisation. *)

val run : (unit -> 'a) list -> 'a list
(** Evaluate the thunks, possibly concurrently, returning results in
    input order. Sequential (in order, on the calling domain) when the
    pool is size 1 or fewer than two thunks are given; otherwise it
    spawns the workers if they are not live yet. Re-raises the
    lowest-indexed exception if any task fails, after all tasks have
    finished. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs = run (List.map (fun x () -> f x) xs)]. *)

module Stats : sig
  type snapshot = {
    domains : int;  (** configured pool size *)
    tasks : int;  (** tasks handed to the queue by parallel {!run}s *)
    batches : int;  (** parallel {!run} invocations *)
  }

  val snapshot : unit -> snapshot

  val reset : unit -> unit
  (** Zero the task/batch counters; the pool itself is untouched. *)
end
