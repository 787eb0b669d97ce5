(** Deterministic discrete-event network simulator.

    Servers are registered as passive request handlers; client protocol
    code runs as fibers whose {!Runtime} effects the engine interprets
    under virtual time. Message delays come from a {!Latency} model and a
    seeded {!Srng}, so every run is reproducible from its seed. *)

type t

type counters = {
  mutable messages_sent : int;  (** requests + replies + one-way sends *)
  mutable bytes_sent : int;
  mutable messages_dropped : int;
}

val create : ?seed:int -> ?latency:Latency.t -> unit -> t

val add_server :
  t -> Runtime.node_id -> (now:float -> from:Runtime.node_id -> string -> string option) -> unit
(** Register the handler for a server id. A handler returning [None]
    sends no reply (the paper's "faulty servers may choose not to
    respond" is modelled this way too). Re-registering replaces the
    handler (used to swap in Byzantine wrappers). *)

val set_down : t -> Runtime.node_id -> bool -> unit
(** A down server receives nothing and sends nothing (crash failure). *)

val set_reachable : t -> (Runtime.node_id -> Runtime.node_id -> bool) -> unit
(** Network partition predicate [reachable src dst]; default always true. *)

val spawn : t -> ?at:float -> ?client:Runtime.node_id -> (unit -> unit) -> unit
(** Schedule a fiber. [client] is informational (the node id stamped as
    the sender of its requests; defaults to -1). *)

val post : t -> src:Runtime.node_id -> dst:Runtime.node_id -> string -> unit
(** One-way message injection from *outside* a fiber — the escape hatch
    that lets registered handlers themselves originate messages (e.g.
    PBFT replicas multicasting PREPAREs when a PRE-PREPARE arrives).
    Subject to the same latency, loss, partition and down-server rules. *)

type periodic
val every : t -> ?start:float -> period:float -> ?client:Runtime.node_id -> (unit -> unit) -> periodic
(** Run [fn] as a fresh fiber every [period] seconds of virtual time. *)

val cancel : periodic -> unit

val run : ?until:float -> ?after_step:(unit -> unit) -> t -> unit
(** Drain the event queue (or stop once virtual time passes [until]),
    calling [after_step] after each event (an observer, e.g. a state
    checker; it must not touch the engine). Raises [Invalid_argument] if
    called re-entrantly from inside a fiber. *)

val now : t -> float
val counters : t -> counters
val reset_counters : t -> unit
val rng : t -> Srng.t
(** The engine's root RNG (e.g. to derive workload generators). *)
