(* One global pool: a mutex-guarded FIFO of jobs, [n - 1] persistent
   worker domains spawned at the first batch of two or more tasks, and
   batch completion tracked per [run] call. The
   submitting domain never blocks while work it could do remains queued
   — it pops jobs like a worker until its own batch count drains — so
   nested [run]s compose without deadlock and a size-[n] pool never
   needs more than [n] domains.

   [work] doubles as the "jobs available" and the "a batch finished"
   signal; waiters re-check their own condition after every wake, so
   cross-purpose broadcasts cost only a spurious loop iteration. *)

let lock = Mutex.create ()
let work = Condition.create ()
let jobs : (unit -> unit) Queue.t = Queue.create ()
let stop = ref false (* guarded by [lock] *)
let workers : unit Domain.t list ref = ref [] (* main domain only *)

(* [requested] is the configured size (what [Stats] reports); [live]
   is whether worker domains currently exist — the flag the parallel
   fast paths and the intern-shard locks actually check. A run that
   never hands the pool a batch keeps one domain, so no idle worker
   joins its minor collections. *)
let requested = Atomic.make 1
let live = Atomic.make false

module Stats = struct
  let tasks = Atomic.make 0
  let batches = Atomic.make 0

  type snapshot = { domains : int; tasks : int; batches : int }

  let snapshot () =
    {
      domains = Atomic.get requested;
      tasks = Atomic.get tasks;
      batches = Atomic.get batches;
    }

  let reset () =
    Atomic.set tasks 0;
    Atomic.set batches 0
end

let parallel () = Atomic.get live

let rec worker () =
  Mutex.lock lock;
  let rec await () =
    if !stop then None
    else
      match Queue.take_opt jobs with
      | Some j -> Some j
      | None ->
        Condition.wait work lock;
        await ()
  in
  let job = await () in
  Mutex.unlock lock;
  match job with
  | None -> ()
  | Some j ->
    j ();
    worker ()

let shutdown () =
  match !workers with
  | [] -> ()
  | ws ->
    Atomic.set live false;
    Mutex.lock lock;
    stop := true;
    Condition.broadcast work;
    Mutex.unlock lock;
    List.iter Domain.join ws;
    workers := [];
    stop := false

let set_domains n =
  let n = max 1 n in
  if n <> Atomic.get requested then begin
    shutdown ();
    Atomic.set requested n
  end

let () = at_exit shutdown

(* Until the first batch only this domain exists, so [live] is set
   before the workers start: every domain that can race sees it. *)
let spawn_workers () =
  if not (Atomic.get live) then begin
    Atomic.set live true;
    workers := List.init (Atomic.get requested - 1) (fun _ -> Domain.spawn worker)
  end

let run thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ when Atomic.get requested = 1 -> List.map (fun f -> f ()) thunks
  | _ ->
    spawn_workers ();
    let n = List.length thunks in
    Atomic.incr Stats.batches;
    ignore (Atomic.fetch_and_add Stats.tasks n);
    let results = Array.make n None in
    let pending = ref n in
    (* [results] and [pending] are only touched under [lock]; the
       lock's release/acquire pairs order every task's write before the
       submitter's reads below (the OCaml memory model's happens-before
       through mutexes). *)
    (* Each task starts by probing the ambient budget (deadline /
       cancellation / memory) and the pool/task fault point, so a
       cancelled batch fails fast: already-queued tasks each raise at
       entry instead of running to completion, and the lowest-indexed
       structured error is what the submitter re-raises. Failures stay
       inside [Error] — workers survive, the queue drains, and the pool
       is immediately reusable. *)
    let wrap i f () =
      let r =
        try
          Limits.check_active ~what:"pool task";
          Faultinj.hit "pool/task";
          Ok (f ())
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock lock;
      results.(i) <- Some r;
      decr pending;
      if !pending = 0 then Condition.broadcast work;
      Mutex.unlock lock
    in
    Mutex.lock lock;
    List.iteri (fun i f -> Queue.push (wrap i f) jobs) thunks;
    Condition.broadcast work;
    let rec drain () =
      if !pending > 0 then
        match Queue.take_opt jobs with
        | Some j ->
          Mutex.unlock lock;
          j ();
          Mutex.lock lock;
          drain ()
        | None ->
          Condition.wait work lock;
          drain ()
    in
    drain ();
    Mutex.unlock lock;
    (* Left-to-right scan so the lowest-indexed failure wins. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
         results)

let map f xs = run (List.map (fun x () -> f x) xs)
