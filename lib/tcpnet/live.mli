(** Real-time, real-socket interpretation of the {!Sim.Runtime} effects.

    The third interpreter for the same protocol code: [Now] is the wall
    clock, [Sleep] blocks the thread, and [Call_many]/[Call_scatter]/
    [Send_oneway] go over TCP through {!Pool} — persistent per-endpoint
    connections, correlation-id pipelining, condition-based quorum
    wakeup, no per-call threads or sockets. Endpoint resolution maps node
    ids to [(host, port)] pairs served by {!Server_host}. *)

type endpoints = Sim.Runtime.node_id -> (string * int) option

val run :
  ?pool:Pool.t ->
  ?shard_of:(Sim.Runtime.node_id -> int option) ->
  endpoints:endpoints ->
  (unit -> 'a) ->
  'a
(** Interpret the thunk's effects over TCP ([pool] defaults to
    {!Pool.shared}). Unresolvable or unreachable destinations simply
    never reply (indistinguishable from a crashed server, as in the
    paper's model).

    [shard_of] (default [fun _ -> None]) maps a node id to the shard its
    traffic is addressed to on the wire; [None] means shard 0. With the
    flat id scheme of {!Store.Router.shard_servers} it is
    [fun node -> Some (node / n)]. A quorum round is addressed by its
    first destination's shard: the router guarantees every round
    addresses a single shard's replica set. *)
