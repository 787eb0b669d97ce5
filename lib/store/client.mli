(** Client sessions: where consistency is enforced.

    The paper's central design decision is that servers are passive and
    *clients* maintain consistency, using the context they carry between
    sessions. This module implements:

    - context acquisition and storage with ⌈(n+b+1)/2⌉ quorums (Fig. 1);
    - context reconstruction from all servers after a crashed session;
    - single-writer reads and writes under MRC or CC (Fig. 2), with
      server-set expansion and retry when the wanted version has not yet
      disseminated;
    - the multi-writer protocol of section 5.3: 3-tuple timestamps,
      2b+1 read quorums with b+1 vouching, fork reporting.

    Both data classes read in one round: the first polled server ships
    its current write, every polled server lists its stamps, and Fig.
    2's fetch runs only when the shipped write is not the one to return
    (section 6's best case: a read costs what a write does).

    Every write, replicated or dispersed, runs as one
    write op: one ["write"] span, one Invoke/Return pair in the history,
    one acknowledged round to b+1 servers (2b+1 for multi-writer data,
    escalating to the rest when acks fall short; section 6 counts the
    same write one-way, see {!Quorums.cost}),
    and one context update, made only when the write lands (CC sets the
    item's entry, MRC observes it). The signed CC context carries the
    write's own entry bumped (Fig. 2), but a refused write leaves the
    session's context as it was.

    The paper lets a client pick any quorum-sized set of servers, and
    contacting more is its fallback. So every first round prefers
    servers the transport reports healthy ({!Sim.Runtime.rank}), and a
    silent replica is asked only when too few others are healthy.

    All network interaction goes through {!Sim.Runtime} effects, so the
    same session code runs under the simulator, the synchronous test
    harness, or a real transport. *)

type consistency = MRC | CC
type mode = Quorums.data_class = Single_writer | Multi_writer

type signing_mode =
  | Per_write_sig  (** one RSA signature per write — the paper's baseline *)
  | Mac_fast
      (** no signature on the write path at all: a per-server HMAC vector
          ({!Payload.Mac}) gets the write accepted into servers' held
          slots, and a background escalation ({!Payload.Evidence_upgrade},
          triggered every [escalate_every] writes, before reads, and at
          disconnect) signs one Merkle root over the pending writes and
          swaps in each write's batch leaf ({!Payload.Batch}), so the
          write can be announced and gossiped. Falls back to a signature
          when pairwise keys are missing. *)

type config = {
  n : int;
  b : int;
  servers : Sim.Runtime.node_id list;  (** length n *)
  consistency : consistency;
  mode : mode;
  timeout : float;
  read_spread : bool;
      (** poll a random read set instead of a fixed one (exercises
          dissemination; used by experiment E7) *)
  read_retries : int;  (** try-later rounds before reporting staleness *)
  retry_delay : float;  (** first try-later delay *)
  retry_backoff_max : float;
      (** cap for the try-later delay, which doubles per round with full
          jitter in [d/2, d]; the default equals [retry_delay], i.e. a
          fixed delay and no jitter (and no rng draws), preserving
          deterministic simulator runs. Raise it on live transports so
          retries back off instead of hammering a struggling cluster. *)
  write_retries : int;
      (** full write rounds (fanout + escalation) to retry when acks fall
          short; the same signed write is re-sent, which servers apply
          idempotently. Default 0: a write fails as soon as one round
          (including escalation) does, as before. *)
  op_deadline : float;
      (** absolute budget in seconds for one read or write operation:
          no retry sleep may overrun it (the operation fails instead of
          sleeping past the deadline). Default [infinity]. *)
  timestamp_jitter : int;
      (** advance scalar timestamps by a random amount in [1, jitter] so
          servers cannot count a confidential item's updates
          (section 5.2); 1 = no jitter *)
  evidence : Fault_evidence.t option;
      (** dynamic quorums: accumulate proofs of server misbehaviour,
          exclude proven-faulty servers, and shrink read sets and
          context quorums to the effective fault bound (the Alvisi et
          al. technique the paper cites). Share one evidence store
          across a client's sessions to keep what it has learned. *)
  token : string option;
  seed : int;  (** client-local randomness (read-set spreading) *)
  canary_skip_freshness : bool;
      (** DELIBERATELY BROKEN client variant for the consistency oracle's
          canary: reads ignore the context-freshness floor, so a stale
          server can serve values older than what this client already
          observed. [Check.Oracle] must flag the resulting history — the
          proof the oracle harness cannot pass vacuously. Never enable
          outside oracle tests. *)
  signing : signing_mode;
  escalate_every : int;
      (** Mac_fast: pending fast-path writes that force an escalation
          flush (reads and disconnect flush regardless). Default 8. *)
  epoch_admin : Crypto.Rsa.public option;
      (** Dynamic membership: the cluster administrator's public key.
          When set, {!connect} discovers the live config epoch from the
          configured servers, the session re-derives n/b/servers/quorums
          from the adopted epoch (the static fields above become the
          bootstrap membership only), and any {!Payload.Stale_epoch}
          reply mid-session verifies and adopts the newer config without
          failing the in-flight operation. [None] (default) = static
          deployment; epochs are ignored. *)
  dispersal_threshold : int;
      (** Values at least this many bytes are written dispersed: coded
          fragments scattered k-of-n over the servers, with only the
          descriptor's digest root going through the full n-replica
          metadata protocol. [k = b + 1], the smallest k that still
          tolerates [b] Byzantine holders. 0 or negative disables
          dispersal entirely. Default 64 KiB. *)
  dispersal_chunk : int;
      (** Fragment bytes per {!Payload.Frag_put}/{!Payload.Frag_get}
          round — the streaming granularity: at most one chunk per
          connection is in memory or in flight at a time, so a 64 MB
          value never materializes wholesale on the wire path. Default
          1 MiB. *)
}

val default_config : n:int -> b:int -> config
(** Single writer, MRC, reliable writes, servers [0..n-1], per-write
    signatures.
    @raise Invalid_argument when n < 3b+1. *)

type error =
  | No_quorum of { wanted : int; got : int }
  | Not_found of Uid.t  (** no server reports the item at all *)
  | Stale of { uid : Uid.t; wanted : Stamp.t }
      (** no server could prove a value at least as fresh as the context *)
  | Writer_faulty of Uid.t
  | Write_rejected
  | Disconnected
  | Not_enough_fragments of { uid : Uid.t; needed : int; got : int }
      (** a dispersed item's metadata was read fine, but fewer than [k]
          digest-authentic fragments could be gathered (more than [b]
          holders lost, corrupt, or silent) *)

type t

type opstats = {
  mutable messages : int;  (** protocol messages, this client only *)
  mutable reads : int;
  mutable writes : int;
  mutable read_rounds : int;  (** server-set polls across all reads *)
  mutable read_failures : int;  (** stale / not-found / faulty outcomes *)
}

val stats : t -> opstats
(** Live per-session counters (useful when several clients share the
    global {!Metrics}). *)

val uid : t -> string
val group : t -> string
val context : t -> Context.t
val config : t -> config

val epoch : t -> Config_epoch.t option
(** The config epoch this session currently operates under ([None] in a
    static deployment): adopted at {!connect} via discovery and updated
    whenever a server's {!Payload.Stale_epoch} proves a newer one. *)

val connect :
  ?recover:[ `Fresh | `Reconstruct ] ->
  ?known:Payload.ctx_record ->
  config:config ->
  uid:string ->
  key:Crypto.Rsa.keypair ->
  keyring:Keyring.t ->
  group:string ->
  unit ->
  (t, error) result
(** Acquire the stored context (Fig. 1). When no validly signed context
    is found: [`Fresh] (default) starts empty, [`Reconstruct] rebuilds it
    from all servers' signed writes (section 5.1's recovery path).

    [known] is a record this client loaded or stored for [group] before
    ({!held_context} of an earlier session). The read then asks for it
    by digest ({!Payload.Ctx_check}): servers storing exactly that
    record answer {!Payload.Ctx_same} instead of resending it, and it is
    adopted without a verification unless a fresher valid record
    turns up. *)

val held_context : t -> Payload.ctx_record option
(** The stored record this session holds: the one its connect loaded,
    or the one its last successful write-back stored. [None] for a
    fresh or rebuilt context. *)

val disconnect : t -> (unit, error) result
(** Store the updated context with a ⌈(n+b+1)/2⌉ quorum and end the
    session. Further operations return {!Disconnected}. The record
    carries one signature ([Sig] evidence), as in Fig. 1. *)

(** {2 Closing in two halves}

    {!disconnect} split around its signature, so a {!Router} can close
    all of its sessions with one Merkle-batch signature. *)

type closing

val prepare_close : t -> (closing, error) result
(** Flush pending escalations, open the disconnect in the history, and
    prepare the write-back: bump the session counter and build its
    {!Payload.ctx_body}. There is no write-back when a quorum already
    holds the context: connect loaded it from at least [context_quorum]
    byte-identical replies, nothing changed it since, and the session's
    epoch is the one that read went out under. *)

val close_body : closing -> string option
(** The body to sign, or [None] when the write-back is skipped. *)

val finish_close :
  (closing * Payload.evidence option) list -> (unit, error) result list
(** Store each prepared record with its evidence and end its session;
    pass [None] exactly when {!close_body} is [None]. The records of
    sessions that share a membership (one shard, one epoch) go out in
    one {!Payload.Ctx_write} to [context_quorum] servers; each record
    needs its own quorum of acks, and only the records short of one
    escalate to the remaining servers. Results are in input order, and
    each session's history gets its Disconnect return.
    @raise Invalid_argument when an evidence does not match. *)

val write : t -> item:string -> string -> (unit, error) result
(** Write a value to [group/item] under the session's consistency level.
    Values of at least [dispersal_threshold] bytes take the dispersed
    path (when the membership supports it): fragments are scattered
    first, then the metadata write commits through the unchanged quorum
    protocol — fragments without committed metadata stay invisible, so
    the two phases are atomic under a crash at any point. *)

val flush : t -> (unit, error) result
(** Escalate any pending Mac_fast writes to signed (batch) evidence now.
    Reads, {!reconstruct} and {!disconnect} do this implicitly. *)

val read : t -> item:string -> (string, error) result
(** The caller-visible value: for a dispersed item this gathers [k]
    digest-authentic fragments and decodes them (so a successful read
    proves integrity end to end); replicated items return the stored
    bytes as before. *)

val server_set : t -> int -> Sim.Runtime.node_id list
(** The [k] servers an operation's first round asks: healthy servers
    before suspected ones ({!Sim.Runtime.rank}), each part in the
    configured order (with [evidence], proven-faulty servers excluded
    and the least-suspected first; with [read_spread], the healthy part
    shuffled). When every server is healthy the ranking changes
    nothing. *)

val reconstruct : t -> (unit, error) result
(** Force context reconstruction from all servers (the expensive path for
    sessions that ended without a context write-back). *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string
