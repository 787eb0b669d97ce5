(** Client-side shard router: one logical client per shard.

    A router owns a {!Shardmap} and lazily opens one {!Client} session
    per group, against the quorum group of the shard that owns the
    group. Because a context is already scoped to a single group
    (section 4 of the paper), and a group lives wholly on one shard,
    nothing a session carries — contexts, signing state, escalation
    queues, fault evidence — ever crosses a shard boundary, so routing
    needs no cross-shard coordination of any kind: shard s's quorum math
    is independent of shard s'.

    The router is deliberately transport-agnostic (it speaks
    {!Sim.Runtime} effects like {!Client} does): the same router runs
    under the simulator, the Direct harness, and live TCP. Like
    {!Client}, a router is not thread-safe — use one per thread. *)

type t

val shard_servers : n:int -> int -> Sim.Runtime.node_id list
(** Global node ids of shard [s]'s replica set: [s*n + r] for [r] in
    [0..n-1]. The whole deployment shares one flat id space so a MAC or
    signature bound to a server id names exactly one replica of one
    shard. *)

val create :
  ?admin:Crypto.Rsa.public ->
  table:Shardmap.t ->
  uid:string ->
  key:Crypto.Rsa.keypair ->
  keyring:Keyring.t ->
  config_of:(int -> Client.config) ->
  unit ->
  t
(** [config_of shard] supplies the per-shard client config — typically
    [default_config] with [servers = shard_servers ~n shard]. When
    [admin] is given, the table's signature must verify against it.
    @raise Invalid_argument on a missing/invalid table signature. *)

val shard_of : t -> Uid.t -> int
val table : t -> Shardmap.t

val session : t -> group:string -> (Client.t, Client.error) result
(** The (lazily connected) session for [group], on its owning shard. *)

val write : t -> uid:Uid.t -> string -> (unit, Client.error) result
val read : t -> uid:Uid.t -> (string, Client.error) result

val disconnect : t -> (unit, Client.error) result
(** Disconnect every open session with at most one RSA signature: the
    context write-backs of all sessions are signed as one Merkle batch
    ({!Signbatch.sign_contexts}; a lone write-back keeps plain [Sig]
    evidence), then all of a shard's records are stored in one quorum
    round ({!Client.finish_close}). A session sends no write-back when a
    quorum already holds its context (see {!Client.prepare_close}). The
    first error is reported, but all sessions are attempted, and a
    record the servers refuse fails only its own session. *)

val sessions : t -> (string * Client.t) list
(** Open sessions as [(group, session)] — diagnostics and tests. *)
