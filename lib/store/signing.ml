(* Node-wide signature-verification cache. Verification is deterministic,
   so a digest over (public key, message, signature) fully determines the
   verdict; the LRU bound keeps an adversary from growing it without
   limit. Counters: [Metrics.incr_verify]/[incr_server_verify] keep the
   paper's section 6 accounting (logical verifications), while
   hit/miss counters expose how many RSA exponentiations actually ran. *)

let default_sigcache_capacity = 4096
let sigcache = ref (Sigcache.create ~capacity:default_sigcache_capacity)

(* The TCP transport verifies outside the server-state lock, so cache
   lookups race across connection threads; the LRU's intrusive list is
   not safe to mutate concurrently. The RSA math itself runs unlocked. *)
let sigcache_lock = Mutex.create ()

let with_sigcache fn =
  Mutex.lock sigcache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sigcache_lock) fn

let reset_sigcache ?(capacity = default_sigcache_capacity) () =
  with_sigcache (fun () -> sigcache := Sigcache.create ~capacity)

let sigcache_stats () =
  with_sigcache (fun () -> (Sigcache.hits !sigcache, Sigcache.misses !sigcache))

(* Live view of the cache instance itself (entries/capacity and its own
   lifetime hit/miss counters, which unlike the Metrics counters survive
   [Metrics.reset]) as exposition families for a /metrics scrape. *)
let sigcache_families () =
  let hits, misses, entries, capacity =
    with_sigcache (fun () ->
        ( Sigcache.hits !sigcache,
          Sigcache.misses !sigcache,
          Sigcache.size !sigcache,
          Sigcache.capacity !sigcache ))
  in
  [
    Obs.Expo.counter ~name:"securestore_sigcache_lifetime_hits_total"
      ~help:"Cache-instance lifetime hits (survives metric resets)."
      (float_of_int hits);
    Obs.Expo.counter ~name:"securestore_sigcache_lifetime_misses_total"
      ~help:"Cache-instance lifetime misses (survives metric resets)."
      (float_of_int misses);
    Obs.Expo.gauge ~name:"securestore_sigcache_entries"
      ~help:"Cached verification verdicts currently held."
      (float_of_int entries);
    Obs.Expo.gauge ~name:"securestore_sigcache_capacity"
      ~help:"LRU capacity of the verification cache."
      (float_of_int capacity);
  ]

let cache_key pub ~msg ~signature =
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.update ctx (Crypto.Rsa.public_to_string pub);
  Crypto.Sha256.update ctx "\x00";
  (* The signature is modulus-width for its key, so key/sig/msg splits
     are unambiguous. *)
  Crypto.Sha256.update ctx signature;
  Crypto.Sha256.update ctx "\x00";
  Crypto.Sha256.update ctx msg;
  Crypto.Sha256.finalize ctx

(* [count] distinguishes accounted verifications from quiet diagnostic
   re-checks, which must not skew any counter (including hit/miss). *)
let cached_verify ?(count = true) pub ~msg ~signature =
  let key = cache_key pub ~msg ~signature in
  match with_sigcache (fun () -> Sigcache.find !sigcache key) with
  | Some verdict ->
    if count then Metrics.incr_sigcache_hit ();
    verdict
  | None ->
    if count then Metrics.incr_sigcache_miss ();
    (* Only misses get a phase: this is where the RSA exponentiation
       actually runs, so traced ops show "verify/rsa_verify" exactly as
       often as the cache failed them. *)
    let verdict =
      Obs.Span.with_phase "rsa_verify" (fun () ->
          Crypto.Rsa.verify pub ~msg ~signature)
    in
    with_sigcache (fun () -> Sigcache.add !sigcache key verdict);
    verdict

let sign_write ~key ~writer ~uid ~stamp ?wctx ?frags value =
  let unsigned =
    { Payload.uid; stamp; wctx; value; writer; evidence = Payload.Sig ""; frags }
  in
  Metrics.incr_sign ();
  {
    unsigned with
    evidence = Payload.Sig (Crypto.Rsa.sign key (Payload.write_body unsigned));
  }

let sign_batch_root ~key domain ~root ~size =
  Metrics.incr_sign ();
  Crypto.Rsa.sign key (Payload.batch_body domain ~root ~size)

(* Build the MAC-evidence form of a write: one HMAC tag per server in
   [servers]. [None] when any pairwise key is missing — the caller falls
   back to a signature rather than sending a write some addressed server
   could never verify. *)
let mac_write keyring ~writer ~uid ~stamp ?wctx ?frags ~servers value =
  let unsigned =
    { Payload.uid; stamp; wctx; value; writer; evidence = Payload.Mac []; frags }
  in
  let body = Payload.write_body unsigned in
  let tags =
    List.filter_map
      (fun server ->
        match Keyring.mac_key keyring ~client:writer ~server with
        | None -> None
        | Some key ->
          Metrics.incr_mac ();
          Some (server, Crypto.Hmac.sha256 ~key (Payload.mac_body ~server body)))
      servers
  in
  if List.length tags = List.length servers then
    Some { unsigned with evidence = Payload.Mac tags }
  else None

(* One leaf of a signed Merkle batch: the root signature goes through
   the cache (k leaves of one batch cost one RSA verify), the inclusion
   path is checked against the signed size, and [domain] fixes which
   kind of leaf the root may certify. *)
let root_verdict ~count pub domain ({ root; size; root_sig; _ } : Payload.batch_evidence) =
  cached_verify ~count pub ~msg:(Payload.batch_body domain ~root ~size) ~signature:root_sig

let check_batch ?(root_ok = root_verdict) ~count pub domain ~leaf
    ({ root; size; proof; _ } as b : Payload.batch_evidence) =
  size > 0
  && proof.Crypto.Merkle.index >= 0
  && proof.Crypto.Merkle.index < size
  && root_ok ~count pub domain b
  && begin
       if count then Metrics.incr_digest ();
       Crypto.Merkle.verify ~root ~size ~leaf proof
     end

(* Third-party verification: signature or batch evidence only. MAC
   evidence is deliberately unverifiable here — a client or gossip peer
   holding no pairwise key must treat such a write as unauthenticated,
   which is what keeps MAC-fast writes inside their write quorum until
   escalation. *)
let check_write ?(count = true) keyring (w : Payload.write) =
  match Keyring.find keyring w.writer with
  | None -> false
  | Some pub -> (
    match w.evidence with
    | Payload.Sig signature ->
      cached_verify ~count pub ~msg:(Payload.write_body w) ~signature
      && Stamp.matches_value w.stamp w.value
    | Payload.Batch b ->
      check_batch ~count pub Payload.Writes ~leaf:(Payload.write_body w) b
      && Stamp.matches_value w.stamp w.value
    | Payload.Mac _ -> false)

let verify_write keyring w =
  Metrics.incr_verify ();
  check_write keyring w

let check_write_quiet keyring w = check_write ~count:false keyring w

let server_verify_write keyring w =
  Metrics.incr_server_verify ();
  check_write keyring w

(* The addressed server's check of a MAC-fast write: find our tag, check
   it under our pairwise key with the claimed writer. Counted as a
   server verification (it plays the same protocol role), plus a MAC
   computation instead of an RSA one — the entire point. *)
let server_verify_mac keyring ~server (w : Payload.write) =
  Metrics.incr_server_verify ();
  match w.evidence with
  | Payload.Mac tags -> (
    match List.assoc_opt server tags with
    | None -> false
    | Some tag -> (
      match Keyring.mac_key keyring ~client:w.writer ~server with
      | None -> false
      | Some key ->
        Metrics.incr_mac ();
        Crypto.Hmac.verify ~key
          ~msg:(Payload.mac_body ~server (Payload.write_body w))
          ~tag
        && Stamp.matches_value w.stamp w.value))
  | Payload.Sig _ | Payload.Batch _ -> false

(* Cache warming: run the RSA math now (counting cache traffic, so
   [Metrics.rsa_verifies] stays honest about where exponentiations ran)
   without counting a logical verification — the later in-lock check
   does that and hits the cache. *)
let warm_write keyring (w : Payload.write) =
  match w.evidence with
  | Payload.Mac _ -> () (* HMAC is cheap; checked under the lock *)
  | Payload.Sig _ | Payload.Batch _ -> ignore (check_write keyring w : bool)

(* Warm just the root-signature check of batch evidence — what an
   [Evidence_upgrade] will verify under the lock. The Merkle path hashes
   are cheap and rerun there. *)
let warm_batch keyring ~writer evidence =
  match (evidence, Keyring.find keyring writer) with
  | Payload.Batch b, Some pub -> ignore (root_verdict ~count:true pub Payload.Writes b : bool)
  | _ -> ()

let sign_body ~key body =
  Metrics.incr_sign ();
  Crypto.Rsa.sign key body

let sign_context ~key ~client ~group ~seq ctx =
  let body = Payload.ctx_body ~client ~group ~seq ctx in
  { Payload.seq; ctx; evidence = Payload.Sig (sign_body ~key body) }

(* A context is certified by its own signature or by one leaf of a
   signed batch of contexts; the group and client are inside the leaf,
   so a record of another group in the same batch does not verify here.
   MAC evidence is refused: a context must convince the session's next
   connect, which holds no pairwise key. *)
let check_context ?(count = true) ?root_ok keyring ~client ~group
    (r : Payload.ctx_record) =
  match Keyring.find keyring client with
  | None -> false
  | Some pub -> (
    let body = Payload.ctx_body ~client ~group ~seq:r.seq r.ctx in
    match r.evidence with
    | Payload.Sig signature -> cached_verify ~count pub ~msg:body ~signature
    | Payload.Batch b -> check_batch ?root_ok ~count pub Payload.Contexts ~leaf:body b
    | Payload.Mac _ -> false)

let verify_context keyring ~client ~group r =
  Metrics.incr_verify ();
  check_context keyring ~client ~group r

(* One request's records share their batch root: its verdict is taken
   from the signature cache once, and each record then pays only its
   body and Merkle path. *)
let server_context_verifier keyring ~client =
  let roots = Hashtbl.create 2 in
  let root_ok ~count pub domain (b : Payload.batch_evidence) =
    let key = (b.root, b.size, b.root_sig) in
    match Hashtbl.find_opt roots key with
    | Some verdict -> verdict
    | None ->
      let verdict = root_verdict ~count pub domain b in
      Hashtbl.replace roots key verdict;
      verdict
  in
  fun ~group r ->
    Metrics.incr_server_verify ();
    check_context ~root_ok keyring ~client ~group r

(* Warm what the records' check will need from the cache: a signed
   record's signature, a batch's root signature once. The Merkle paths
   are cheap and run under the lock. *)
let warm_contexts keyring ~client records =
  match Keyring.find keyring client with
  | None -> ()
  | Some pub ->
    let roots = Hashtbl.create 2 in
    List.iter
      (fun (group, (r : Payload.ctx_record)) ->
        match r.evidence with
        | Payload.Sig _ -> ignore (check_context keyring ~client ~group r : bool)
        | Payload.Batch b when not (Hashtbl.mem roots b.root_sig) ->
          Hashtbl.replace roots b.root_sig ();
          ignore (root_verdict ~count:true pub Payload.Contexts b : bool)
        | Payload.Batch _ | Payload.Mac _ -> ())
      records
