(** Observability events.

    Every engine emission is one of these four shapes. [at] is seconds
    since the active sink was installed (a relative clock, so traces from
    different runs line up at zero); span [ms] is the wall-clock duration
    of the phase. The [span] field of a metric event is the full active
    span path at emission time, components joined with [" > "] — e.g.
    ["run.valid > valid > round"].

    Span events also carry a stable monotone id: [sid] starts at 1 when a
    sink is installed over the disabled state and increments per span
    opening, and [parent] is the [sid] of the enclosing span ([0] at the
    root) — so a trace reconstructs into a tree by ids alone, without
    parsing path strings. *)

type t =
  | Span_begin of { span : string; at : float; sid : int; parent : int }
  | Span_end of { span : string; at : float; ms : float; sid : int }
  | Count of { counter : string; span : string; at : float; n : int }
      (** monotone metric: [n] is the increment, not a running total *)
  | Gauge of { counter : string; span : string; at : float; value : float }
      (** sampled metric: [value] is the current reading *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars) —
    shared with the {!Metrics} JSON snapshot writer. *)

val to_json : t -> string
(** One JSON object, no trailing newline. Every event carries the three
    keys ["span"], ["counter"] and ["at"] (span events with an empty
    ["counter"], metric events with the enclosing span path), plus
    ["ev"] discriminating the shape and the shape's payload (["ms"],
    ["n"] or ["value"]; span events add ["sid"], [span_begin] also
    ["parent"]). *)
