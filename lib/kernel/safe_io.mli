(** Atomic file persistence (tmp + rename).

    Every artifact the system persists — JSONL traces, metrics files,
    bench records — goes through here, so a crash, fault, or resource
    abort mid-write can never leave a torn file behind: the target is
    replaced by a single [Sys.rename] only after the writer callback
    returned and the channel was flushed and closed. On any exception
    the temporary file is removed and the previous target (if any) is
    left intact.

    Carries the ["io/write"] fault-injection point, so the chaos suite
    can assert exactly that: a faulted write leaves the old artifact
    byte-identical and no temp litter. *)

val with_file : string -> (out_channel -> 'a) -> 'a
(** [with_file path f] opens a temporary sibling of [path], passes its
    channel to [f], and atomically renames it over [path] when [f]
    returns. If [f] raises, the temporary is removed and the exception
    re-raised. *)
