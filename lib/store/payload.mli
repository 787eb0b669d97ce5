(** Wire messages between clients and servers.

    A {!write} is the unit of replication, and its {!evidence} is what
    makes it self-certifying. Three evidence forms exist, trading sign
    cost against verifiability scope:

    - {!Sig}: a per-write signature over {!write_body} — the paper's
      baseline (section 5.2): anyone holding the writer's public key can
      check it, so the write may travel anywhere (gossip, audit).
    - {!Batch}: one signature over the Merkle root of up to k write
      bodies, plus this write's inclusion proof — same third-party
      verifiability, amortized k-fold sign cost (the PoWerStore
      observation that per-write public-key operations are avoidable).
    - {!Mac}: a vector of per-server HMAC tags — verifiable only by the
      addressed servers, so such a write must never cross the
      gossip/anti-entropy boundary; it is held unannounced until the
      client escalates it to signed (Batch) evidence with
      {!Evidence_upgrade}.

    A read moves stamps from every polled server and one value
    ({!Read_query}); {!Value_read} fetches only on a miss. *)

type batch_evidence = {
  root : string;  (** 32-byte Merkle root over the batch's leaf bodies *)
  size : int;  (** number of leaves under [root] *)
  proof : Crypto.Merkle.proof;  (** this leaf's inclusion proof *)
  root_sig : string;  (** signer's signature over {!batch_body} *)
}

type evidence =
  | Sig of string
  | Batch of batch_evidence
  | Mac of (int * string) list
      (** [(server id, HMAC-SHA256 over {!mac_body})] per addressed server *)

type dispersal_meta = {
  k : int;  (** fragments needed to reconstruct *)
  m : int;  (** fragments minted (= n at write time) *)
  total_length : int;  (** original value length in bytes *)
  stripe : int;  (** value bytes coded per stripe; a multiple of [k] *)
  digests : string list;  (** 32-byte SHA-256 per fragment, index order *)
}
(** A dispersed write's coding descriptor. The write's [value] field
    holds the Merkle root over [digests] ({!Dispersal.meta_root}), so
    the stamp and the evidence bind every fragment byte while the
    metadata write itself stays small enough for the full n-replica
    quorum protocol. *)

type write = {
  uid : Uid.t;
  stamp : Stamp.t;
  wctx : Context.t option;  (** CC writes carry the writer's context *)
  value : string;
  writer : string;  (** client uid *)
  evidence : evidence;
  frags : dispersal_meta option;
      (** [Some] marks a dispersed write: [value] is the fragment-digest
          Merkle root and the bulk bytes live as coded fragments on the
          servers ({!Frag_put}) *)
}

val write_body : write -> string
(** The canonical bytes the writer authenticates (everything but the
    evidence): uid, stamp, context, value, writer. Identical across all
    three evidence forms, so escalating a write from MAC to batch
    evidence re-certifies exactly the same bytes. Replicated writes
    ([frags = None]) keep the historical byte format; dispersed writes
    use a domain-separated prefix that also covers the coding
    descriptor. *)

type batch_domain =
  | Writes  (** leaves are {!write_body}s *)
  | Contexts  (** leaves are {!ctx_body}s *)

val batch_body : batch_domain -> root:string -> size:int -> string
(** Canonical signed bytes for a Merkle batch root: domain-separated
    from {!write_body}, from {!ctx_body} and from the other batch
    domain, and binding the leaf count, so the proof shape a verifier
    derives from [size] is covered by the signature. *)

val mac_body : server:int -> string -> string
(** [mac_body ~server body] — the bytes a per-server MAC tag
    authenticates: the write body plus the destination server id, so a
    tag replayed at a different server fails even before key lookup. *)

type ctx_record = { seq : int; ctx : Context.t; evidence : evidence }
(** A stored context: [seq] is the client's session counter, so "latest"
    is well defined even before checking vector dominance. [evidence]
    authenticates {!ctx_body}: [Sig] (one session's close) or [Batch]
    (a {!Router} close certifying several groups' contexts under one
    signed root). [Mac] evidence is never valid for a context. *)

val ctx_body : client:string -> group:string -> seq:int -> Context.t -> string
(** Canonical signed bytes for a context write (the batch leaf too). *)

val ctx_record_digest : ctx_record -> string
(** The first 16 bytes of the SHA-256 of the record's canonical
    encoding: equal exactly when two records are byte-identical (128
    bits is ample to tell apart one client's own records). *)

type request =
  | Ctx_read of { client : string; group : string }
  | Ctx_check of { client : string; group : string; known : string }
      (** a {!Ctx_read} from a client that already holds a record (a
          {!Router} reconnecting a group it closed before): [known] is
          its {!ctx_record_digest}. A server storing exactly that record
          answers {!Ctx_same}; otherwise it answers as to [Ctx_read]. *)
  | Ctx_write of { client : string; records : (string * ctx_record) list }
      (** one client's context write-backs, [(group, record)], for the
          groups of one shard: a {!Router} close stores every dirty
          session in one round. The server judges each record on its
          own ({!Ctx_written}); only a stale epoch or a draining server
          refuses the whole request. *)
  | Read_query of { uid : Uid.t; ship : bool }
      (** the one read request ({!Read_reply}): every polled server
          lists its stamps, and the one asked to [ship] also sends its
          current write, so a read whose shipper is fresh costs one
          round — section 6's "read cost equals write cost" best case *)
  | Value_read of { uid : Uid.t; stamp : Stamp.t }
      (** Fig. 2's fetch: the write stored under exactly [stamp]
          ({!Value_reply}), for a read whose shipped write was not the
          freshest or the vouched one *)
  | Write_req of write
      (** answered {!Ack} (stored or held), [Denied "write rejected"] or
          [Denied "draining"] *)
  | Group_query of { group : string }
      (** all current writes in a group — context reconstruction *)
  | Gossip_push of {
      writes : write list;
      have : (Uid.t * Stamp.t) list;
      epoch : Config_epoch.t option;
    }
      (** [have] is the sender's current stamp per item — the replication
          evidence behind section 5.3's log erasure rule ("old values
          could be erased once a server learns that a new value is
          available at at least 2b+1 servers"). A receiver counts it, and
          records holders of [writes], only when the transport names the
          sender ([~from >= 0], the simulator); live pushes send [[]].
          Nothing is pulled on its account. [epoch] is the pusher's
          config epoch, so anti-entropy also converges membership: a
          server that missed an epoch announcement catches up from any
          gossip peer. *)
  | Evidence_upgrade of {
      uid : Uid.t;
      stamp : Stamp.t;
      writer : string;
      evidence : evidence;
    }
      (** lazy signature escalation: replace the held MAC-fast write
          [uid, stamp] with third-party-verifiable [evidence] (normally
          [Batch]), allowing it to be announced and gossiped. [writer]
          lets hosts warm the root-signature check outside their state
          lock. *)
  | Epoch_get
      (** which config epoch is this server on? ([Epoch_reply]) —
          client-side epoch discovery *)
  | Epoch_announce of Config_epoch.t
      (** administrative: install this (signed) epoch. Servers accept a
          direct successor of their current epoch, or any strictly newer
          validly-signed epoch when they have fallen behind. *)
  | Frag_put of {
      uid : Uid.t;
      stamp : Stamp.t;
      writer : string;
      index : int;  (** fragment index in [1, m] *)
      seq : int;  (** chunk number, 0-based, strictly sequential *)
      last : bool;  (** final chunk: the server seals and stores *)
      data : string;
    }
      (** one chunk of a fragment stream. Large fragments arrive as
          several sequential [Frag_put]s so no single frame approaches
          [Frame.max_frame]; a gap in [seq] aborts the staging buffer.
          The fragment becomes readable only once the matching metadata
          write arrives and its digest checks out — until then it is an
          invisible orphan. *)
  | Frag_get of { uid : Uid.t; stamp : Stamp.t; index : int; off : int; len : int }
      (** read bytes [off, off+len) of a stored fragment
          ([Frag_reply]) — the chunked read path and gossip repair both
          use this *)

type envelope = {
  token : string option;
  epoch : int;
      (** the sender's config-epoch version; [0] = static/legacy
          deployment (servers without an installed epoch ignore it) *)
  request : request;
}

type frag_chunk = { total : int; data : string }
(** One chunk of a fragment: the requested byte range plus the
    fragment's full length, so readers can size follow-up requests. *)

type ctx_verdict =
  | Stored  (** the record verified; kept unless a higher [seq] is held *)
  | Refused of string  (** unauthorized or unverifiable, with why *)

type response =
  | Ctx_reply of ctx_record option
  | Read_reply of {
      stamps : Stamp.t list;
          (** the current stamp first, then the logged ones: metadata
              only, since a multi-writer stamp already carries its
              value's digest ({!Stamp.matches_value}) *)
      writer_faulty : bool;  (** the server saw this item's writer fork *)
      write : write option;  (** the current write, when [ship] was set *)
    }
  | Value_reply of write option
  | Ack
  | Group_reply of write list
  | Denied of string
  | Epoch_reply of Config_epoch.t option
  | Stale_epoch of Config_epoch.t
      (** "your epoch is superseded" — carries the server's newer config,
          so one round both rejects the stale op and repairs the client *)
  | Frag_reply of frag_chunk option
      (** answer to [Frag_get]; [None] when the server holds no such
          fragment *)
  | Ctx_same
      (** answer to [Ctx_check]: the server stores exactly the known
          record *)
  | Ctx_written of ctx_verdict list
      (** answer to [Ctx_write]: one verdict per record, in order *)

val encode_write : Wire.Codec.Enc.t -> write -> unit
val decode_write : Wire.Codec.Dec.t -> write
(** Exposed for {!Server}'s snapshot codec; raises {!Wire.Codec.Error}
    on malformed input like every decoder here. *)

val encode_ctx_record : Wire.Codec.Enc.t -> ctx_record -> unit
val decode_ctx_record : Wire.Codec.Dec.t -> ctx_record

val encode_evidence : Wire.Codec.Enc.t -> evidence -> unit
val decode_evidence : Wire.Codec.Dec.t -> evidence

val encode_envelope : envelope -> string
val decode_envelope : string -> envelope option
val encode_response : response -> string
val decode_response : string -> response option

