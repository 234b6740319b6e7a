(** Pluggable event consumers.

    A sink is just a pair of callbacks; the {!Obs} front end guarantees
    they are only invoked while that sink is installed. Sinks must not
    raise: an emission happens inside engine hot loops and an exception
    there would corrupt an evaluation that is otherwise correct. *)

type t = { emit : Event.t -> unit; flush : unit -> unit }

val null : t
(** Drops everything. It is also the default sink, which the {!Obs}
    front end does not count as installed: with no sink installed (and
    no metrics collection) engine call sites short-circuit before
    building event payloads. Installing [null] with {!Obs.with_sink}
    does turn the front end on — span paths are tracked, so a resource
    error can name the phase it died in — while every event is still
    dropped. *)

val jsonl : out_channel -> t
(** One JSON object per line per event (see {!Event.to_json}). The
    channel is flushed by [flush], not closed — the opener closes it. *)

val memory : unit -> t * (unit -> Event.t list)
(** Collects events in memory; the second component returns them in
    emission order. For tests and the bench harness — e.g. a per-round
    series of [Count] increments, which the {!Metrics} registry keeps
    only as a distribution. *)
