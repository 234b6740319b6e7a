(** A small fixed work-pool over stdlib [Domain] — the multicore engine
    room shared by every parallel evaluation path (per-rule semi-naive
    rounds, independent stratum components).

    The pool is global and opt-in: the default size is [1], at which
    {!run} and {!map} degenerate to plain sequential evaluation with
    zero synchronisation — single-domain behaviour (results, fuel,
    traces) is exactly the pre-multicore engine. With [set_domains n]
    for [n > 1], [n - 1] persistent worker domains serve a shared job
    queue and the submitting domain works the queue alongside them
    (so nested {!run} calls cannot deadlock: a waiter always either
    finds a job to execute or sleeps until one of its own completes).

    Determinism contract: {!run} and {!map} return results in input
    order, and every parallel call site in the repository is structured
    so the combined result is independent of execution interleaving
    (canonical-set merges, or parallel derivation with sequential
    commit — see DESIGN.md §9). If several tasks raise, the exception
    of the earliest task (lowest index) is re-raised, so failure is as
    deterministic as success.

    Failure containment contract (see DESIGN.md §11): a task that
    raises — including a [Faultinj.Injected] fault or a
    [Limits.Resource_exhausted] abort — never poisons the pool. The
    remaining tasks of the batch run (or fail fast at their own
    ambient-budget probe, for cancellation), the workers return to the
    queue, and the very next {!run} behaves normally. Every task probes
    [Limits.check_active] on entry, which is how parallel rounds and
    stratum components honor deadlines and cancellation without
    threading a budget through their signatures. *)

val set_domains : int -> unit
(** Resize the pool to [n] total domains ([n - 1] workers plus the
    caller); values [< 1] clamp to [1], which shuts the workers down.
    Must be called from outside any pool task (it joins the old
    workers). Idempotent when the size is unchanged. *)

val parallel : unit -> bool
(** Whether worker domains are live (the size is above [1]) — the
    one-load guard parallel call sites (and the kernel's intern-shard
    locks) check before paying any synchronisation. *)

val run : (unit -> 'a) list -> 'a list
(** Evaluate the thunks, possibly concurrently, returning results in
    input order. Sequential (in order, on the calling domain) when the
    pool is size 1 or fewer than two thunks are given. Re-raises the
    lowest-indexed exception if any task fails, after all tasks have
    finished. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs = run (List.map (fun x () -> f x) xs)]. *)

val shutdown : unit -> unit
(** Join all worker domains (also registered [at_exit]). The configured
    size is kept; the next {!run} after a shutdown is sequential until
    {!set_domains} is called again. *)

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
