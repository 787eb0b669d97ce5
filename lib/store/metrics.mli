(** Protocol-level cost counters.

    These implement the paper's section 6 accounting: messages exchanged
    between client and servers, signatures produced, signatures verified,
    digests computed. Counters are global and reset per measured
    operation; experiments snapshot deltas.

    The module holds no per-endpoint state: endpoint health and
    per-endpoint latency belong to the transport pool
    ([Tcpnet.Pool.health], [Tcpnet.Pool.families]), which drops them
    with the endpoint. *)

type snapshot = {
  messages : int;  (** protocol messages, both directions *)
  bytes : int;  (** payload bytes across those messages *)
  signs : int;
  verifies : int;
  digests : int;
  server_verifies : int;  (** verifications done at servers *)
  macs : int;  (** MAC computations (PBFT-style authenticators) *)
  sigcache_hits : int;  (** verifications answered from the sig cache *)
  sigcache_misses : int;  (** verifications that ran the RSA math *)
  tcp_connects : int;  (** transport sockets dialed *)
  tcp_reuses : int;  (** RPC submissions that reused a pooled connection *)
  tcp_reconnects : int;  (** dials to an endpoint that had connected before *)
  rpcs : int;  (** quorum RPC rounds issued through the pooled transport *)
  retries : int;  (** client retry-later rounds (Fig. 2's "try again") *)
  escalations : int;
      (** client server-set expansions after a partial round (section 5's
          "contact more servers") *)
}

val reset : unit -> unit
(** Clear the per-operation counters (the {!snapshot} fields), the RPC
    latency histogram, and the per-phase span histograms
    ({!Obs.Span.reset_stats}) — everything experiment-scoped, so
    back-to-back bench phases in one process start from clean
    percentiles. Operator gauges — {!inflight_high_water}, the epoch
    and dispersal tallies — are deliberately left alone so a
    measurement reset cannot blank what a live operator is watching;
    use {!reset_gauges} for those. Per-endpoint health and latency are
    not here at all: the transport pool owns them
    ([Tcpnet.Pool.health]), and neither function touches them. *)

val reset_gauges : unit -> unit
(** Clear the operator gauges: the in-flight high-water mark and the
    epoch and dispersal tallies. For tests that need a pristine
    slate. *)

val read : unit -> snapshot
val diff : snapshot -> snapshot -> snapshot

val add_messages : int -> unit
val add_bytes : int -> unit
val incr_sign : unit -> unit
val incr_verify : unit -> unit
val incr_digest : unit -> unit
val incr_server_verify : unit -> unit
val incr_mac : unit -> unit
val incr_sigcache_hit : unit -> unit
val incr_sigcache_miss : unit -> unit
val incr_tcp_connect : unit -> unit
val incr_tcp_reuse : unit -> unit
val incr_tcp_reconnect : unit -> unit
val incr_rpc : unit -> unit
val incr_retry : unit -> unit
val incr_escalation : unit -> unit

(** {1 Per-shard registries}

    Two per-shard views, both experiment-scoped (cleared by {!reset}):
    what servers hosting a shard saw (requests dispatched into that
    shard's state) and what a router's ops against it looked like. Both
    surface on [/metrics] labeled by shard id, so a hot shard under a
    skewed workload is visible at a glance. *)

type shard_client = {
  mutable shard_reads : int;
  mutable shard_writes : int;
  mutable shard_failures : int;  (** ops that returned an error *)
  shard_op_latency : Obs.Histo.t;  (** end-to-end router op latency *)
}

type shard_server = {
  mutable shard_requests : int;
  shard_request_latency : Obs.Histo.t;
}

val note_shard_client_op : shard:int -> write:bool -> ok:bool -> float -> unit
(** Record one routed client op (latency in nanoseconds). *)

val note_shard_request : shard:int -> float -> unit
(** Record one server-side request dispatched into [shard]'s state. *)

val shard_client_stats : unit -> (int * shard_client) list
val shard_request_stats : unit -> (int * shard_server) list
(** Sorted by shard id; cells are live references. *)

val note_inflight : int -> unit
(** Report the current number of in-flight requests; the high-water mark
    is retained (a gauge, not part of {!snapshot}). *)

val inflight_high_water : unit -> int

(** {1 Reconfiguration}

    Epoch state is operator-facing like the transport gauges: it
    survives {!reset} and clears only under {!reset_gauges}. *)

val set_epoch_version : int -> unit
(** Report an adopted config epoch version; the maximum is retained. *)

val incr_epoch_transition : unit -> unit
val incr_epoch_rejection : unit -> unit

val add_bootstrap_bytes : int -> unit
(** Count write-body bytes re-announced into gossip for a joining
    server's bootstrap transfer. *)

val epoch_version : unit -> int
val epoch_transitions : unit -> int
val epoch_rejections : unit -> int
val bootstrap_bytes : unit -> int

(** {1 Dispersal}

    Fragment traffic and repair tallies, operator-facing like the epoch
    counters: they survive {!reset} (the repair test scrapes [/metrics]
    across experiment resets) and clear under {!reset_gauges}. *)

val incr_frag_put : unit -> unit
(** A fragment stream was sealed (final chunk stored) at a server. *)

val incr_frag_get : unit -> unit
(** A fragment range read was served. *)

val incr_frag_repair : unit -> unit
(** A missing fragment was reconstructed from peers and re-stored. *)

val incr_dispersed_write : unit -> unit
(** A client write took the coded-dispersal path. *)

val incr_dispersed_read : unit -> unit
(** A client read reconstructed its value from coded fragments. *)

val frag_puts : unit -> int
val frag_gets : unit -> int
val frag_repairs : unit -> int
val dispersed_writes : unit -> int
val dispersed_reads : unit -> int

val record_rpc_ns : float -> unit
(** Record one RPC round duration (nanoseconds) in the global log-scale
    latency histogram (fixed bucket counters; replaced the old
    4096-sample reservoir). *)

type rpc_stats = {
  rpc_count : int;  (** samples ever recorded *)
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
}

val rpc_latency_stats : unit -> rpc_stats
(** Nearest-rank percentiles resolved to histogram bucket bounds. *)

val families : unit -> Obs.Expo.family list
(** Everything this module tracks as Prometheus exposition families
    ([securestore_*]): counters, operator gauges and the RPC round
    latency histogram. Span phase histograms are
    {!Obs.Span.phase_family}'s job, per-endpoint health and latency
    [Tcpnet.Pool.families]'s. *)

val rsa_verifies : snapshot -> int
(** RSA exponentiations actually performed for verification — the cache
    misses. [verifies] and [server_verifies] keep counting the paper's
    section 6 cost-model verifications regardless of caching. *)

val pp : Format.formatter -> snapshot -> unit
