(** Pooled, pipelined RPC transport.

    Persistent connections (a bounded few per endpoint) carry
    correlation-id framed requests ({!Frame.encode_call}), so many RPCs
    share one connection and replies may arrive out of order. Each
    connection has one reader thread resolving a pending-request table;
    quorum fan-outs wait on a Condition woken by completion or by a
    single timekeeper thread at the deadline — there is no polling, no
    per-call thread, and no per-call socket. A dial gives up at the
    round's deadline, and destinations with a pooled connection are sent
    to before those that need a dial.

    The pool is the one owner of per-endpoint health. It keeps one
    failure state per endpoint: a failed dial, a dead connection and a
    timeout all count as RPC failures, and an endpoint that keeps
    failing is suspected (see {!health}): its requests fail fast, and
    only the pool's own probes reach it until one is answered. {!health}
    and {!families} read that state, and {!evict} drops it.

    Process-wide transport counters ([tcp_connects]/[tcp_reuses]/
    [tcp_reconnects]/[rpcs], the in-flight high-water mark, RPC round
    percentiles) are reported through {!Store.Metrics}. *)

type t

val create :
  ?max_connections_per_endpoint:int (** default 2 *) ->
  ?suspect_after:int
    (** consecutive RPC failures (timeouts, dead connections, failed
        dials) before the endpoint is suspected, default 5 *) ->
  ?suspect_base:float
    (** first suspicion window, and the time a probe has to answer,
        default 0.25 s *) ->
  ?suspect_max:float (** suspicion window cap, default 5 s *) ->
  unit ->
  t

val shared : unit -> t
(** The process-wide pool (created on first use) — what {!Live} and
    {!Server_host} gossip use by default, so clients and servers in one
    process share connections. *)

type result =
  | Reply of string  (** the server answered *)
  | Rejected of string  (** the server answered with a framed error *)
  | No_reply  (** the server processed the call but had no response *)
  | Dropped  (** never delivered: endpoint down, connection died, or timeout *)

val call : t -> ?timeout:float -> ?shard:int -> string * int -> string -> result
(** One RPC. The result distinguishes "server rejected" ([Rejected])
    from "connection died" ([Dropped]). Default timeout 5 s. [shard]
    (default 0) addresses one shard of a multi-shard host. *)

val call_many :
  t ->
  ?timeout:float ->
  ?shard:int ->
  quorum:int ->
  (int * (string * int)) list ->
  string ->
  (int * string) list
(** Fan the request out to every [(node_id, endpoint)] destination and
    return [(node_id, reply)] pairs in arrival order, as soon as
    [quorum] replies are in, every destination has failed, or the
    timeout fires. Abandoned requests are dropped from the pending
    tables immediately — nothing keeps running past completion.

    The request is encoded into its wire frame once per round and the
    buffer shared across destinations (only the correlation id is
    patched per send) — a quorum broadcast costs one encode, not
    [n]. With [shard], every destination is addressed as that shard
    (a quorum group lives wholly inside one shard by construction). *)

val call_scatter :
  t ->
  ?timeout:float ->
  ?shard:int ->
  quorum:int ->
  (int * (string * int) * string) list ->
  (int * string) list
(** Like {!call_many} but with a distinct request per destination — one
    [(node_id, endpoint, request)] triple each — under a single quorum
    wait. The dispersal data path uses this to ship each server its own
    fragment piece in one round. Each request is encoded into its own
    frame (there is no shared buffer to patch); completion semantics are
    exactly {!call_many}'s. *)

val send : t -> ?shard:int -> string * int -> string -> bool
(** Fire-and-forget one-way message on a pooled connection (gossip
    pushes). Retries once on a connection found dead at write time.
    [false] when the message could not even be written (endpoint down
    or suspected) — the caller can requeue; [true] means written, not
    delivered. A dial gives up after [suspect_base]. [shard] addresses
    one shard of a multi-shard host. *)

val connection_count : t -> string * int -> int
(** Live pooled connections to the endpoint (introspection). *)

val suspected : t -> string * int -> bool
(** Whether requests to the endpoint currently fail fast (see
    {!health}). Read-only: an endpoint the pool has never seen is
    healthy, and asking creates no state for it. {!Live} ranks each
    round's destinations by this. *)

type state =
  | Healthy
  | Suspected  (** requests fail fast; a probe is booked *)
  | Probing  (** still suspected, with the pool's probe in flight *)

type health = {
  endpoint : string * int;
  connections : int;  (** live pooled connections *)
  consecutive_failures : int;
      (** RPC-level failures (timeouts, dead connections, failed dials)
          since the last framed response from the endpoint *)
  last_error : string option;
  down_until : float;
      (** the suspicion window's end (when the next probe is due); [0.]
          when healthy. A past time does not mean healthy: read
          [state]. *)
  state : state;
  probes : int;  (** probes the pool has sent the endpoint *)
}

val health : t -> health list
(** Per-endpoint health, sorted by endpoint. After [suspect_after]
    consecutive failures an endpoint is suspected: submissions fail
    fast, even on live connections (a blackholed server accepts
    connections and says nothing). User requests never probe it. When
    the suspicion window expires, the timekeeper sends one probe of its
    own on a separate thread: a well-formed store request to the shard
    of the last failure, with [suspect_base] to answer. The probe
    always dials when no connection is pooled. Any framed reply clears
    the suspicion; a timeout or failed dial re-arms a doubled window,
    from [suspect_base] up to [suspect_max], and books the next probe.

    An extra connection is dialled only while the endpoint has no
    failure since its last reply; a failed extra dial counts as a
    failure and the request rides the least-loaded live connection. *)

val pp_health : now:float -> Format.formatter -> health -> unit
(** One line: state, connections, failures, probes, last error. [now]
    turns a suspected endpoint's [down_until] into the time to its next
    probe. *)

val families : t -> Obs.Expo.family list
(** The pool's per-endpoint state as exposition families, each labelled
    by [endpoint="host:port"]: [securestore_endpoint_health] (1 healthy,
    0 suspected), [securestore_endpoint_connections],
    [securestore_endpoint_consecutive_failures] and the
    [securestore_endpoint_rpc_duration_seconds] histogram, which records
    request-to-reply latency while tracing is enabled. *)

val in_flight : t -> int
(** Requests currently registered and unanswered across the pool. *)

val evict : t -> string * int -> unit
(** Retire an endpoint for good (membership churn): close its
    connections and drop its state — suspicion, health row and latency
    histogram. Without this, entries for servers no longer in any
    active config accumulate forever. A later submission to the same
    address starts from a clean slate. *)

val shutdown : t -> unit
(** Close every pooled connection and stop the timekeeper. The pool must
    not be used afterwards (tests only — the shared pool lives as long
    as the process). *)
