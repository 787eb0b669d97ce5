(** Host {!Store.Server}s behind a TCP listener.

    Every request names its shard in the one {!Frame} request header,
    and the host dispatches it to that shard's server state; an
    unsharded host is the one-shard case, shard 0. Calls are pipelined —
    many in flight on one connection, replies in any order of
    completion, each echoing the request's correlation id and a status
    byte. Unparsable frames are answered with a framed connection error
    instead of a silent drop, so a client can tell "server rejected"
    from "connection died".

    One thread per connection. Each shard's lock is scoped to
    server-state mutation only: envelope decode and signature
    verification (RSA) run outside it, so connections contend only on
    the state update. Each shard's gossip thread pushes newly accepted
    writes to its peers over the shared connection {!Pool} (persistent
    connections, not a dial per push); pushes that fail (peer down,
    endpoint suspected) are requeued in a bounded per-peer backlog and
    retried next round, so a write accepted during a partition still
    reaches peers once the partition heals. A shard without peers
    discards its gossip buffer every round instead of keeping it. *)

type gossip = { peers : (string * int) list; period : float }

(** One shard hosted by a process: its server state, its (per-shard)
    Byzantine behaviour, and its gossip peers — the endpoints of the
    other replicas of the *same shard*. *)
type shard_spec = {
  shard : int;  (** wire shard id, [0 .. Frame.max_shard] *)
  server : Store.Server.t;
  behavior : Store.Faults.behavior;
  peers : (string * int) list;  (** [[]] = no gossip for this shard *)
}

type t

val start :
  ?gossip:gossip ->
  ?behavior:Store.Faults.behavior ->
  server:Store.Server.t ->
  port:int ->
  unit ->
  t
(** Bind, listen and serve [server] as shard 0 on a background thread;
    returns immediately. [port = 0] picks an ephemeral port (see
    {!port}). Without [gossip] the shard has no peers and a 1 s period.

    [behavior] (default {!Store.Faults.Honest}) hosts the server behind
    the corresponding Byzantine wrapper, so the simulator's fault suite
    runs unchanged over real sockets. A behaviour that answers nothing
    (e.g. [Crash], [Silent_reads] on queries) is genuinely silent on the
    wire — the client runs into its deadline, not a framed "no reply". *)

val start_sharded :
  ?gossip_period:float -> shards:shard_spec list -> port:int -> unit -> t
(** Host several shard replicas behind one listener. A request
    dispatches to its shard's server under that shard's own lock — S
    independent locks instead of one global store mutex — and each
    shard gossips to its own peer set on its own thread. A call for a
    shard this host does not serve is rejected with "shard N not
    hosted" (a stale shard table looks different from a dead server); a
    one-way for one is dropped.
    @raise Invalid_argument on an empty or duplicate shard list. *)

val port : t -> int

val hosted_shards : t -> int list
(** Shard ids this host serves, ascending. *)

val snapshot : t -> shard:int -> string
(** {!Store.Server.snapshot} of one hosted shard, taken under the
    shard's lock so it never interleaves with a request's state change:
    the blob is one consistent state that {!Store.Server.restore_result}
    accepts. Write it out with {!Store.Server.write_snapshot}, outside
    the lock. Usable after {!stop}.
    @raise Invalid_argument when the shard is not hosted. *)

val drain : ?max_passes:int -> t -> unit
(** Graceful departure, the first half of a handoff: put every hosted
    shard's server into draining mode (new client writes are denied;
    reads, gossip and {!Store.Payload.Evidence_upgrade} still served),
    then synchronously push the remaining gossip backlog to the peers —
    up to [max_passes] (default 10) rounds, so a dead peer cannot wedge
    the drain. The caller then {!stop}s and {!snapshot}s. *)

val stop : t -> unit
(** Close the listener, stop the gossip thread, and shut down accepted
    connections (pooled clients see EOF and redial on next use). *)
