(** Recorded operation histories.

    A history is the ordered list of {!Store.Trace} events one run
    emitted. The recorder is thread-safe (live-transport clients emit
    from many threads) and serializes to JSON so CI can upload the
    history of a failing schedule as an artifact and a developer can
    replay the oracle over it. *)

type t

val create : unit -> t

val record : t -> Store.Trace.event -> unit
(** Append one event (normally installed as the {!Store.Trace} sink). *)

val recording : t -> (unit -> 'a) -> 'a
(** Install [t] as the global trace sink (resetting the trace counters),
    run the thunk, and uninstall — even on exceptions. Recording is
    process-global, so [recording] refuses to nest. *)

val events : t -> Store.Trace.event list
(** In emission ([seq]) order. *)

val length : t -> int

val digest : t -> string
(** Hex SHA-256 of the canonical serialization — equal iff two runs
    produced identical histories (the determinism witness). *)

val to_json : t -> string
(** One JSON object: [{"events": [...]}], stamps rendered as objects,
    context vectors as arrays of [uid, stamp] pairs. *)

