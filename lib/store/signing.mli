(** Signature production and verification with cost accounting.

    Every sign/verify passes through here so the section 6 computational
    cost claims (E2/E3) can be measured rather than asserted.

    Verifications are answered from a node-wide bounded LRU cache keyed by
    a digest of (public key, message, signature): a write disseminated to
    n servers and re-read by many clients costs one RSA exponentiation per
    node, not one per arrival. The [verifies]/[server_verifies] metrics
    keep counting paper-model verifications; [sigcache_hits]/
    [sigcache_misses] record how many hit the cache vs ran the RSA math.

    Batch evidence goes through the same cache keyed by the signed root:
    verifying k writes of one batch costs one RSA exponentiation (the
    first root check; the other k-1 hit the cache) plus k Merkle paths. *)

val reset_sigcache : ?capacity:int -> unit -> unit
(** Replace the verification cache with an empty one (default capacity
    4096). Use [~capacity:1] to effectively disable caching. *)

val sigcache_stats : unit -> int * int
(** Lifetime [(hits, misses)] of the current cache instance. *)

val sigcache_families : unit -> Obs.Expo.family list
(** The live cache as exposition families: instance-lifetime hit/miss
    counters (these survive {!Metrics.reset}, unlike the snapshot
    counters) and entries/capacity gauges. *)

val sign_write :
  key:Crypto.Rsa.keypair ->
  writer:string ->
  uid:Uid.t ->
  stamp:Stamp.t ->
  ?wctx:Context.t ->
  ?frags:Payload.dispersal_meta ->
  string ->
  Payload.write
(** Per-write signature evidence — the paper's baseline write. [frags]
    marks a dispersed write: the signature then covers the coding
    descriptor (fragment digests included) via the domain-separated
    {!Payload.write_body}. *)

val sign_batch_root :
  key:Crypto.Rsa.keypair -> Payload.batch_domain -> root:string -> size:int -> string
(** Sign {!Payload.batch_body} — one signature certifying a whole
    Merkle batch of write or context bodies (used by {!Signbatch}). *)

val sign_body : key:Crypto.Rsa.keypair -> string -> string
(** One accounted RSA signature over canonical bytes the caller built
    (a {!Payload.ctx_body}, say). *)

val mac_write :
  Keyring.t ->
  writer:string ->
  uid:Uid.t ->
  stamp:Stamp.t ->
  ?wctx:Context.t ->
  ?frags:Payload.dispersal_meta ->
  servers:int list ->
  string ->
  Payload.write option
(** Build the MAC-vector evidence form: one HMAC tag per server in
    [servers] under the pairwise keys. [None] when any key is missing
    (caller should fall back to a signature). *)

val verify_write : Keyring.t -> Payload.write -> bool
(** Client-side verification (counts toward [verifies]). [Sig] and
    [Batch] evidence only; MAC evidence always fails — it is not
    third-party verifiable, and an honest server never serves it. *)

val server_verify_write : Keyring.t -> Payload.write -> bool
(** Same check, counted as a server-side verification. *)

val server_verify_mac : Keyring.t -> server:int -> Payload.write -> bool
(** The addressed server's check of a MAC-fast write: our tag from the
    vector, under our pairwise key with the claimed writer, over
    {!Payload.mac_body} (which binds our server id). *)

val check_write_quiet : Keyring.t -> Payload.write -> bool
(** Verification without cost accounting — used when classifying an
    already-failed reply for fault evidence, so diagnostics do not skew
    the section 6 counters. *)

val sign_context :
  key:Crypto.Rsa.keypair ->
  client:string ->
  group:string ->
  seq:int ->
  Context.t ->
  Payload.ctx_record
(** A one-session context record: [Sig] evidence over
    {!Payload.ctx_body}. *)

val verify_context :
  Keyring.t -> client:string -> group:string -> Payload.ctx_record -> bool
(** Client-side check (counts toward [verifies]). [Sig] evidence is a
    signature over the record's {!Payload.ctx_body} for this [client]
    and [group]; [Batch] evidence is that body as one leaf under a
    signed {!Payload.Contexts} root, checked like batch write evidence
    (root verdict shared through the cache, size-aware proof). [Mac]
    evidence always fails. *)

val server_context_verifier :
  Keyring.t -> client:string -> group:string -> Payload.ctx_record -> bool
(** [server_context_verifier keyring ~client] is the server's check of
    one request's records, as {!verify_context} but counted toward
    [server_verifies]. Each distinct batch root of the request goes
    through the signature cache once; every record then pays its body
    and Merkle path. *)

val warm_write : Keyring.t -> Payload.write -> unit
(** Run the verification now so a subsequent [server_verify_write] is a
    cache hit. Counts cache traffic (the RSA really runs here) but not a
    logical verification — used by the TCP host to verify outside the
    server-state lock. No-op for MAC evidence (HMACs are cheap enough to
    check under the lock). *)

val warm_batch : Keyring.t -> writer:string -> Payload.evidence -> unit
(** Warm the root-signature check of batch evidence — the expensive part
    of an {!Payload.Evidence_upgrade}. *)

val warm_contexts :
  Keyring.t -> client:string -> (string * Payload.ctx_record) list -> unit
(** Context analogue of {!warm_write} for one request's [(group,
    record)]s: each [Sig] record's signature check, and each distinct
    batch root's signature check once (what every record of the batch
    then hits). The Merkle paths run later, under the lock. *)
