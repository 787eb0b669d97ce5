(** A secure store server: a passive, signed-data repository.

    Servers never originate data and never order writes; they store
    whatever validly-signed write messages reach them (directly or by
    gossip) and answer queries. All the paper's defenses live here:

    - every stored write and context carries a client signature the
      server verified on arrival, so replies can be checked end-to-end;
    - with {!config.malicious_client_guard} on (section 5.3), a write is
      *held* — stored but not reported — until the causally preceding
      writes named in its context have arrived, defeating the
      spurious-context denial-of-service;
    - a bounded per-item log keeps recently overwritten values available
      while their successors disseminate;
    - multi-writer forks (one timestamp, two values) are detected and the
      writer is quarantined. *)

type config = {
  n : int;
  b : int;
  malicious_client_guard : bool;
  log_depth : int;  (** overwritten values retained per item *)
  mac_hold_depth : int;
      (** MAC-fast writes held per item awaiting evidence escalation;
          oldest dropped beyond this *)
  auth : Access_control.service option;
  epoch_admin : Crypto.Rsa.public option;
      (** the cluster administrator's public key; announced config
          epochs ({!Payload.Epoch_announce}, gossip piggybacks) must
          verify against it. [None] = static deployment: every epoch
          transition is refused ([Error "no admin key"]) — epochs
          arrive on unauthenticated channels, so an unverifiable one
          could drain this server off the membership. Bootstrap
          installs ({!set_epoch}) are unaffected. *)
}

val default_config : n:int -> b:int -> config
(** guard off, log depth 4, MAC hold depth 32, no auth. *)

type t

val create : ?config:config -> id:int -> keyring:Keyring.t -> n:int -> b:int -> unit -> t
val id : t -> int
val config : t -> config

(** {1 Config epochs (dynamic membership)}

    A server without an installed epoch ([epoch t = None]) behaves
    exactly as before epochs existed: it never stamps gossip, never
    rejects anything as stale. Once an epoch is installed (via
    {!set_epoch}, {!Payload.Epoch_announce}, or gossip piggyback),
    requests from envelopes with a lower epoch version are answered
    {!Payload.Stale_epoch} — except gossip and the epoch requests
    themselves, which must flow regardless so lagging parties can catch
    up. *)

val epoch : t -> Config_epoch.t option
val epoch_version : t -> int
(** 0 when no epoch is installed. *)

val set_epoch : t -> Config_epoch.t -> unit
(** Install unconditionally (bootstrap / genesis); no validation. Use
    {!try_adopt_epoch} for announced transitions. *)

val try_adopt_epoch : t -> Config_epoch.t -> (unit, string) result
(** The announced-transition rule: {!config.epoch_admin} must be
    configured (otherwise every transition is [Error "no admin key"]),
    and the epoch must be structurally valid, admin-signed, and
    strictly newer than the current one; a direct successor
    (version + 1) must also hash-chain to the current epoch
    ({!Config_epoch.follows}), while a bigger jump is accepted on the
    signature alone (laggard catch-up). On adoption: if servers joined
    and this server remains a member, its full write-set is
    re-announced into gossip for their bootstrap; if this server is no
    longer a member, it starts draining; if it was draining and the
    new epoch re-admits it, the drain is cleared and its state
    re-announced. *)

val draining : t -> bool
val begin_drain : t -> unit
(** A draining server denies new client writes — both data
    ({!Payload.Write_req}) and context records ({!Payload.Ctx_write}),
    each with [Denied "draining"], since neither would survive handoff —
    but keeps serving reads, gossip, and {!Payload.Evidence_upgrade} —
    held MAC-fast writes must still escalate out before handoff. *)

val handle : t -> now:float -> from:Sim.Runtime.node_id -> Payload.envelope -> Payload.response option
(** Core request dispatch (typed). *)

val handler : t -> now:float -> from:Sim.Runtime.node_id -> string -> string option
(** Wire-level dispatch: decodes the envelope, encodes the response.
    Malformed requests get no reply. Register this with the engine. *)

val preverify : t -> Payload.envelope -> unit
(** Warm the signature-verification cache for every signed part of the
    request. Hosts that serialize {!handle} behind a lock call this
    first, outside the lock, so RSA verification never runs under it;
    {!handle} still re-checks (as cache hits), so this is advisory. *)

val take_gossip_buffer : t -> Payload.write list
(** Writes accepted since the last call — what the next gossip round
    pushes; clears the buffer. *)

val gossip_pending : t -> int
(** Writes waiting in the gossip buffer (queue depth — what the next
    round will drain). Observability only; does not touch the buffer. *)

val current_write : t -> Uid.t -> Payload.write option
(** Introspection for tests: the announced current write of an item. *)

val pending_count : t -> Uid.t -> int
(** Held (unannounced) writes for an item: at most {!held_cap}, the
    oldest dropped beyond it. Each is indexed under one dependency it
    still lacks, so an arriving write re-checks only the writes waiting
    on its own item. *)

val held_cap : int
(** Held writes kept per item (64). *)

val pending_writes : t -> Uid.t -> Payload.write list
(** The held writes themselves (used by the eager-report fault injector,
    which leaks them before their causal predecessors arrive). *)

val maced_count : t -> Uid.t -> int
(** MAC-fast writes held for an item, awaiting {!Payload.Evidence_upgrade}. *)

val maced_writes : t -> Uid.t -> Payload.write list
(** The MAC-held writes themselves. An honest server never serves these;
    the downgrade fault injector leaks them to model a Byzantine one. *)

val item_count : t -> int
val is_writer_faulty : t -> string -> bool
val log_writes : t -> Uid.t -> Payload.write list
(** Announced writes: current first, then the retained log. *)

val audit_window : int
(** Announced writes the audit trail keeps whole (256). *)

val audit_log : t -> Payload.write list
(** The newest announced writes, at most {!audit_window}, oldest first
    (for {!Audit}). Older ones survive only in {!audit_frontier} and
    {!audit_digest}. *)

val audit_frontier : t -> Crypto.Merkle.frontier
(** The Merkle frontier over the announced writes' bodies
    ({!Payload.write_body}) before {!audit_log}'s first. Extended by the
    window, it gives the root of the whole history. *)

val audit_digest : t -> string
(** An order-independent digest ({!Crypto.Merkle.multiset_add} of the
    leaf hashes) of every write this server ever announced. *)

val invariants : t -> (unit, string) result
(** Check the server's bounded, self-consistent state: per item, the log
    within [log_depth], MAC-held writes within [mac_hold_depth], held
    writes within {!held_cap}, the current write newer than every log
    entry, and no holder entry naming a negative server id; orphan
    fragments within their cap and each an unverified fragment, and no
    item with an empty fragment table; staged fragment streams within
    their cap; the audit window within {!audit_window}, and full once
    older writes are folded; every held write indexed exactly once,
    under its first missing dependency; and, when an admin key is
    configured, an installed epoch that is well formed and admin-signed.
    [Error] names the first broken one. *)

val gossip_summary : t -> (Uid.t * Stamp.t) list
(** Current stamp of every stored item, O(items). The simulator's
    {!Gossip} attaches it to each push as replication evidence for log
    erasure (section 5.3): a receiver counts it only when the transport
    names the sender, which the simulator does and the live host does
    not, so live pushes send none. It is not a pull request: nothing
    fetches what a summary shows missing. *)

val holder_count : t -> Uid.t -> Stamp.t -> int
(** How many distinct servers this one believes hold [stamp] of the item
    (introspection for tests). *)

(** {1 Coded fragments}

    Dispersed writes ({!Payload.write}[.frags = Some _]) keep their bulk
    bytes here: fragments arrive as chunked {!Payload.Frag_put} streams,
    become servable only once their digest matches a stored metadata
    write's descriptor (until then they are bounded, invisible orphans),
    and are read back in ranges via {!Payload.Frag_get}. The metadata
    quorum is the sole commit point — fragments scattered without it
    never become visible. They are stored per item, so an install or a
    log erasure visits only that item's own fragments. *)

val fragment : t -> Uid.t -> stamp:Stamp.t -> index:int -> string option
(** The verified fragment bytes, if held (introspection for tests). *)

val fragment_count : t -> int
(** Verified fragments held. *)

val orphan_fragment_count : t -> int
(** Sealed fragments still awaiting their metadata write. *)

val drop_fragment : t -> Uid.t -> stamp:Stamp.t -> index:int -> unit
(** Forget a fragment — the fault injection for "holder lost its disk";
    the repair loop should restore it. *)

val drop_all_fragments : t -> int
(** Forget every fragment, staged stream and orphan (whole-disk loss —
    the explorer's fragment-loss fault); returns how many sealed
    fragments were dropped. *)

val storage_bytes : t -> int
(** Value bytes stored: every retained write body plus every fragment.
    The dispersal bench compares this across replication modes for the
    storage-amplification claim. *)

val missing_fragments : t -> Payload.write list
(** Current dispersed writes whose own-index (id+1) fragment this server
    should hold but does not — the repair worklist. *)

val repair_fragment :
  t ->
  fetch:(peer:int -> Payload.request -> Payload.response option) ->
  Payload.write ->
  bool
(** Rebuild our fragment of one dispersed write: pull whole fragments
    from peer holders through [fetch], keep those the metadata digests
    certify, decode, re-code our own index and store it verified. *)

val repair_fragments :
  t ->
  fetch:(peer:int -> Payload.request -> Payload.response option) ->
  int
(** Run {!repair_fragment} over {!missing_fragments}; returns how many
    fragments were restored (each counts toward
    [securestore_frag_repairs_total]). Gossip hosts call this on their
    anti-entropy cadence. *)

val snapshot : t -> string
(** Serialize the server's durable state — items (current, log, held
    writes, fork flags, erasure watermarks), stored contexts with their
    evidence (v5; older contexts restore as signature evidence),
    quarantined writers, pending gossip, the audit trail (v6: its count,
    frontier, digest and window), and (v3) the installed config epoch
    and drain flag — so a repository survives
    restarts, as a long-term store must. The blob ends in a SHA-256 of
    everything before it, so truncation or corruption is detected on
    load. Holder evidence is deliberately not persisted (it is rebuilt
    from gossip). *)

val restore_result :
  ?config:config -> id:int -> keyring:Keyring.t -> n:int -> b:int -> string ->
  (t, string) result
(** Rebuild a server from {!snapshot} output. A failed integrity check
    (truncated or bit-flipped blob), bad magic, version or id mismatch
    yield [Error] with a clear reason — never a decoder exception. Only
    the current snapshot version loads; older blobs are refused. So is
    a blob whose state fails {!invariants} ("inconsistent snapshot"),
    once each item's log and MAC-held writes are cut to [config]'s
    depths (a smaller [log_depth] than the saving server's is not a
    failure) and without checking the epoch against [config]'s admin
    key.
    Restored state is what an honest restarted server would have — every
    write it re-announces still carries its original client signature. *)

val restore :
  ?config:config -> id:int -> keyring:Keyring.t -> n:int -> b:int -> string ->
  t option
(** {!restore_result} with the reason dropped. *)

val write_snapshot : path:string -> string -> unit
(** Write a {!snapshot} blob to a file, atomically (write to
    [path ^ ".tmp"], then rename) — a crash mid-save never clobbers the
    previous snapshot. *)

val save_file : t -> path:string -> unit
(** {!snapshot} then {!write_snapshot}. *)

val load_result :
  ?config:config -> id:int -> keyring:Keyring.t -> n:int -> b:int ->
  path:string -> unit -> (t, string) result

val load_file :
  ?config:config -> id:int -> keyring:Keyring.t -> n:int -> b:int ->
  path:string -> unit -> t option
