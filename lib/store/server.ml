type config = {
  n : int;
  b : int;
  malicious_client_guard : bool;
  log_depth : int;
  mac_hold_depth : int;
  auth : Access_control.service option;
  epoch_admin : Crypto.Rsa.public option;
      (* the cluster administrator's public key; when set, announced
         config epochs must verify against it *)
}

let default_config ~n ~b =
  {
    n;
    b;
    malicious_client_guard = false;
    log_depth = 4;
    mac_hold_depth = 32;
    auth = None;
    epoch_admin = None;
  }

type item_state = {
  mutable current : Payload.write option;
  mutable log : Payload.write list; (* newest first, excludes current *)
  mutable pending : Payload.write list; (* guard: held, unannounced *)
  mutable maced : Payload.write list;
      (* MAC-fast writes: verified with our pairwise key but carrying no
         third-party-verifiable evidence, so never announced, served, or
         gossiped until the client escalates them to signed evidence
         (Evidence_upgrade). Bounded by [mac_hold_depth], oldest dropped. *)
  mutable forked : bool;
  mutable holders : (Stamp.t * int list) list;
      (* which servers are known to hold which stamp of this item, from
         gossip whose sender the transport names; drives section 5.3's
         log erasure *)
  mutable erased_below : Stamp.t;
      (* erasure watermark: writes older than this are known to be
         superseded at 2b+1 servers and are never re-admitted *)
}

(* Bulk bytes of dispersed writes, keyed (item uid, stamp, fragment
   index) and stored per item, so an install touches only its own item's
   fragments. A fragment arrives as a chunked [Frag_put] stream into a
   staging buffer and is sealed on the last chunk; it becomes servable
   only once [fverified]: its digest matches the coding descriptor of a
   stored metadata write. Sealed-but-unverified fragments are orphans —
   invisible, bounded FIFO, promoted when the metadata arrives. That is
   the two-phase write's crash story: fragments scattered without a
   metadata quorum simply never become visible, so the metadata quorum
   remains the sole commit point. *)
type frag_entry = {
  fdata : string;
  fdigest : string;  (* SHA-256 of fdata *)
  mutable fverified : bool;
}

type frag_staging = {
  sbuf : Buffer.t;
  mutable snext : int;  (* next expected chunk seq *)
  swriter : string;
}

type frag_key = string * Stamp.t * int

type t = {
  id : int;
  config : config;
  keyring : Keyring.t;
  items : (string, item_state) Hashtbl.t; (* key: Uid.to_string *)
  frags : (string, (Stamp.t * int, frag_entry) Hashtbl.t) Hashtbl.t;
      (* item key -> its fragments by (stamp, index); an item holding no
         fragment has no table *)
  staging : (frag_key, frag_staging) Hashtbl.t;
  mutable orphans : frag_key list; (* newest first; eviction drops the tail *)
  contexts : (string * string, Payload.ctx_record) Hashtbl.t;
  faulty_writers : (string, unit) Hashtbl.t;
  waiters : (string, (string * Payload.write) list) Hashtbl.t;
      (* causal hold index: dependency item key -> the held writes
         (item key, write) waiting on it, newest first. Each held write
         sits under exactly one dependency it still lacks. *)
  mutable gossip_buffer : Payload.write list;
  (* The audit trail of announced writes: the newest [audit_window]
     themselves, and a Merkle frontier plus a multiset digest over every
     older one. *)
  audit_recent : Payload.write Queue.t; (* oldest first *)
  mutable audit_base : Crypto.Merkle.frontier; (* writes before the window *)
  mutable audit_base_sum : string; (* their leaf hashes, summed *)
  mutable epoch : Config_epoch.t option;
      (* the membership generation this server serves; None = static
         deployment, every epoch check off *)
  mutable draining : bool;
      (* departing: refuse new client writes, keep serving reads and
         evidence upgrades so held writes can still escalate and gossip
         out before handoff *)
  mutable epoch_checked : Config_epoch.t option;
      (* the epoch {!invariants} last verified, so an unchanged epoch is
         not re-verified at every check *)
}

let create ?config ~id ~keyring ~n ~b () =
  let config = match config with Some c -> c | None -> default_config ~n ~b in
  {
    id;
    config;
    keyring;
    items = Hashtbl.create 64;
    frags = Hashtbl.create 16;
    staging = Hashtbl.create 8;
    orphans = [];
    contexts = Hashtbl.create 16;
    faulty_writers = Hashtbl.create 4;
    waiters = Hashtbl.create 16;
    gossip_buffer = [];
    audit_recent = Queue.create ();
    audit_base = Crypto.Merkle.frontier_empty;
    audit_base_sum = Crypto.Merkle.multiset_zero;
    epoch = None;
    draining = false;
    epoch_checked = None;
  }

let id t = t.id
let config t = t.config
let epoch t = t.epoch
let epoch_version t = match t.epoch with Some e -> e.Config_epoch.version | None -> 0
let draining t = t.draining
let begin_drain t = t.draining <- true

let item_state t uid =
  let key = Uid.to_string uid in
  match Hashtbl.find_opt t.items key with
  | Some st -> st
  | None ->
    let st =
      {
        current = None;
        log = [];
        pending = [];
        maced = [];
        forked = false;
        holders = [];
        erased_below = Stamp.zero;
      }
    in
    Hashtbl.replace t.items key st;
    st

let same_stamp_kind a b =
  match (a, b) with
  | Stamp.Scalar _, Stamp.Scalar _ | Stamp.Multi _, Stamp.Multi _ -> true
  | Stamp.Scalar _, Stamp.Multi _ | Stamp.Multi _, Stamp.Scalar _ -> false

let is_writer_faulty t writer = Hashtbl.mem t.faulty_writers writer

(* The stamp this server can vouch for on [uid]: the announced current
   write only — held (pending) writes are invisible (section 5.3). *)
let announced_stamp st = Option.map (fun (w : Payload.write) -> w.stamp) st.current

(* Does this server already store a write satisfying the causal
   dependency (uid, stamp)? A dependency on the item being written itself
   always is. *)
let dep_satisfied t ~(self : Uid.t) (uid, stamp) =
  Uid.equal uid self
  ||
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> Stamp.equal stamp Stamp.zero
  | Some st -> (
    match announced_stamp st with
    | None -> Stamp.equal stamp Stamp.zero
    | Some have -> Stamp.compare have stamp >= 0)

(* The item key of the first dependency of [w] this server still lacks. *)
let missing_dep t (w : Payload.write) =
  match w.wctx with
  | None -> None
  | Some ctx ->
    List.find_map
      (fun ((uid, _) as dep) ->
        if dep_satisfied t ~self:w.uid dep then None else Some (Uid.to_string uid))
      (Context.bindings ctx)

let detect_fork t st (w : Payload.write) =
  let conflicts other = Stamp.is_fork w.stamp other.Payload.stamp in
  let in_log = List.exists conflicts st.log in
  let in_pending = List.exists conflicts st.pending in
  let in_maced = List.exists conflicts st.maced in
  let in_current = match st.current with Some c -> conflicts c | None -> false in
  if in_log || in_pending || in_maced || in_current then begin
    st.forked <- true;
    Hashtbl.replace t.faulty_writers w.writer ();
    true
  end
  else false

let already_stored st (w : Payload.write) =
  let same other = Stamp.equal other.Payload.stamp w.stamp in
  (match st.current with Some c -> same c | None -> false)
  || List.exists same st.log
  || List.exists same st.pending

let in_maced st (w : Payload.write) =
  List.exists
    (fun other -> Stamp.equal other.Payload.stamp w.stamp)
    st.maced

(* The copy we hold under [w.stamp] carries the same writer and body:
   [w] is a client retry after a lost ack, not a fork attempt, and must
   be acknowledged — rejecting it turns a successful write into a
   reported failure whenever the first ack is dropped by the network. *)
let duplicate_of st (w : Payload.write) =
  let matches (other : Payload.write) =
    Stamp.equal other.stamp w.stamp
    && String.equal other.writer w.writer
    && String.equal (Payload.write_body other) (Payload.write_body w)
  in
  List.exists matches
    ((match st.current with Some c -> [ c ] | None -> [])
    @ st.log @ st.pending @ st.maced)

let drop_maced st stamp =
  st.maced <-
    List.filter
      (fun (m : Payload.write) -> not (Stamp.equal m.stamp stamp))
      st.maced

let trim depth l = List.filteri (fun i _ -> i < depth) l

(* --- coded fragments ---------------------------------------------------- *)

(* Staging slots bound concurrent in-flight fragment streams; the
   orphan FIFO bounds sealed fragments waiting for their metadata; the
   size cap bounds one fragment; the reply cap keeps a single Frag_get
   answer well under the frame limit. *)
let max_staging = 64
let orphan_cap = 512

(* Held writes kept per item under the causal guard (oldest dropped
   beyond it), and announced writes the audit trail keeps whole. *)
let held_cap = 64
let audit_window = 256
let max_frag_bytes = 1 lsl 28 (* 256 MiB *)
let frag_reply_cap = 4 * 1024 * 1024

(* The coding descriptor this server stored for [stamp] of the item, if
   any — what decides whether an arriving fragment is verifiable now or
   an orphan. *)
let dispersal_meta_for t key stamp =
  match Hashtbl.find_opt t.items key with
  | None -> None
  | Some st ->
    let pick (w : Payload.write) =
      if Stamp.equal w.stamp stamp then w.frags else None
    in
    (match Option.bind st.current pick with
    | Some _ as r -> r
    | None -> List.find_map pick st.log)

let find_frag t ((key, stamp, index) : frag_key) =
  match Hashtbl.find_opt t.frags key with
  | Some tbl -> Hashtbl.find_opt tbl (stamp, index)
  | None -> None

let add_frag t ((key, stamp, index) : frag_key) e =
  let tbl =
    match Hashtbl.find_opt t.frags key with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.replace t.frags key tbl;
      tbl
  in
  Hashtbl.replace tbl (stamp, index) e

let remove_frag t ((key, stamp, index) : frag_key) =
  match Hashtbl.find_opt t.frags key with
  | Some tbl ->
    Hashtbl.remove tbl (stamp, index);
    if Hashtbl.length tbl = 0 then Hashtbl.remove t.frags key
  | None -> ()

let fold_frags f t acc =
  Hashtbl.fold
    (fun key tbl acc ->
      Hashtbl.fold (fun (stamp, index) e acc -> f (key, stamp, index) e acc) tbl acc)
    t.frags acc

let is_orphan t fkey =
  match find_frag t fkey with Some e -> not e.fverified | None -> false

let evict_orphans t =
  if List.length t.orphans > orphan_cap then begin
    let keep = List.filteri (fun i _ -> i < orphan_cap) t.orphans in
    let dead = List.filteri (fun i _ -> i >= orphan_cap) t.orphans in
    List.iter (fun fkey -> if is_orphan t fkey then remove_frag t fkey) dead;
    t.orphans <- keep
  end

(* Seal a completed fragment stream: store it verified if the metadata
   already announced a matching digest, as an orphan if the metadata has
   not arrived, and refuse it outright on a digest mismatch — a
   Byzantine writer cannot park garbage under a committed stamp. *)
let seal_fragment t ((key, stamp, index) : frag_key) data =
  let fkey = (key, stamp, index) in
  let digest = Crypto.Sha256.digest data in
  Metrics.incr_digest ();
  match dispersal_meta_for t key stamp with
  | Some meta ->
    if
      index <= List.length meta.Payload.digests
      && String.equal (List.nth meta.Payload.digests (index - 1)) digest
    then begin
      add_frag t fkey { fdata = data; fdigest = digest; fverified = true };
      Metrics.incr_frag_put ();
      Payload.Ack
    end
    else Payload.Denied "fragment digest mismatch"
  | None ->
    add_frag t fkey { fdata = data; fdigest = digest; fverified = false };
    t.orphans <- fkey :: t.orphans;
    evict_orphans t;
    Metrics.incr_frag_put ();
    Payload.Ack

(* Metadata arrived: orphaned fragments whose digests it certifies
   become servable; impostors under the same stamp are dropped. *)
let promote_frags t (w : Payload.write) =
  let key = Uid.to_string w.uid in
  match (w.frags, Hashtbl.find_opt t.frags key) with
  | Some meta, Some tbl ->
    let settled = ref false in
    List.iteri
      (fun i expected ->
        match Hashtbl.find_opt tbl (w.stamp, i + 1) with
        | Some e when not e.fverified ->
          settled := true;
          if String.equal e.fdigest expected then e.fverified <- true
          else remove_frag t (key, w.stamp, i + 1)
        | _ -> ())
      meta.Payload.digests;
    if !settled then t.orphans <- List.filter (is_orphan t) t.orphans
  | _ -> ()

(* Drop fragments whose stamp can no longer be read: below the erasure
   watermark, or superseded without surviving in the log. Orphans ahead
   of the current stamp stay — their metadata may still be coming. *)
let gc_frags t key (st : item_state) =
  match Hashtbl.find_opt t.frags key with
  | None -> ()
  | Some tbl ->
    let stale stamp =
      Stamp.compare stamp st.erased_below < 0
      || (match st.current with
          | Some (c : Payload.write) ->
            Stamp.compare stamp c.stamp < 0
            && not
                 (List.exists
                    (fun (w : Payload.write) -> Stamp.equal w.stamp stamp)
                    st.log)
          | None -> false)
    in
    let dead =
      Hashtbl.fold
        (fun ((stamp, _) as k) e acc -> if stale stamp then (k, e) :: acc else acc)
        tbl []
    in
    List.iter (fun ((stamp, index), _) -> remove_frag t (key, stamp, index)) dead;
    if List.exists (fun (_, e) -> not e.fverified) dead then
      t.orphans <- List.filter (is_orphan t) t.orphans

let note_install t (w : Payload.write) st =
  promote_frags t w;
  gc_frags t (Uid.to_string w.uid) st

(* Append an announced write to the audit trail. A write leaving the
   window is folded into the frontier and the digest, so a server that
   announced at most [audit_window] writes hashes nothing here. *)
let audit_append t (w : Payload.write) =
  Queue.push w t.audit_recent;
  if Queue.length t.audit_recent > audit_window then begin
    let h = Crypto.Merkle.leaf_hash (Payload.write_body (Queue.pop t.audit_recent)) in
    t.audit_base <- Crypto.Merkle.frontier_push t.audit_base h;
    t.audit_base_sum <- Crypto.Merkle.multiset_add t.audit_base_sum h
  end

(* Install an accepted (announced) write. Returns true if state changed. *)
let install t st (w : Payload.write) =
  (* If we held the same stamp as a MAC-fast write, the announced form
     (escalated by the client, or gossiped from a peer that saw the
     signed version) supersedes it. *)
  drop_maced st w.stamp;
  match st.current with
  | None ->
    st.current <- Some w;
    audit_append t w;
    true
  | Some c when Stamp.newer w.stamp ~than:c.stamp ->
    st.current <- Some w;
    st.log <- trim t.config.log_depth (c :: st.log);
    audit_append t w;
    true
  | Some c when Stamp.equal w.stamp c.stamp -> false
  | Some _ ->
    (* Older than current: keep it in the log so a value being
       overwritten stays available during dissemination. Only report a
       change if the write survives trimming — otherwise re-gossiping it
       would echo long-dead writes between servers forever. *)
    let log =
      trim t.config.log_depth
        (List.sort
           (fun (a : Payload.write) b -> Stamp.compare b.stamp a.stamp)
           (w :: st.log))
    in
    let survived =
      List.exists (fun (x : Payload.write) -> Stamp.equal x.stamp w.stamp) log
    in
    st.log <- log;
    if survived then audit_append t w;
    survived

(* Install [w] and queue it for gossip; false if it changed nothing. *)
let announce t st (w : Payload.write) =
  install t st w
  && begin
    t.gossip_buffer <- w :: t.gossip_buffer;
    note_install t w st;
    true
  end

(* --- the causal hold ----------------------------------------------------- *)

let index_waiter t dep key (w : Payload.write) =
  let ws = Option.value (Hashtbl.find_opt t.waiters dep) ~default:[] in
  Hashtbl.replace t.waiters dep ((key, w) :: ws)

let unindex_waiter t dep (w : Payload.write) =
  match Hashtbl.find_opt t.waiters dep with
  | None -> ()
  | Some ws -> (
    match List.filter (fun (_, x) -> x != w) ws with
    | [] -> Hashtbl.remove t.waiters dep
    | rest -> Hashtbl.replace t.waiters dep rest)

(* Hold [w], which lacks dependency [dep]. Beyond [held_cap] held writes
   the item's oldest is dropped and unindexed, the way [maced] is
   trimmed. *)
let hold t key st (w : Payload.write) dep =
  st.pending <- w :: st.pending;
  index_waiter t dep key w;
  if List.length st.pending > held_cap then begin
    let dead = List.filteri (fun i _ -> i >= held_cap) st.pending in
    st.pending <- trim held_cap st.pending;
    List.iter
      (fun old -> Option.iter (fun d -> unindex_waiter t d old) (missing_dep t old))
      dead
  end

(* Item [key]'s announced stamp may have moved: re-check only the writes
   waiting on it. A satisfied one is installed, gossiped, and wakes its
   own waiters in turn; one still lacking a dependency waits on that one
   next. Dependencies only ever become satisfied, so a held write always
   waits on its first missing one. *)
let wake t key =
  let work = Stack.create () in
  Stack.push key work;
  while not (Stack.is_empty work) do
    let key = Stack.pop work in
    match Hashtbl.find_opt t.waiters key with
    | None -> ()
    | Some ws ->
      Hashtbl.remove t.waiters key;
      List.iter
        (fun (wkey, (w : Payload.write)) ->
          match Hashtbl.find_opt t.items wkey with
          | Some st when List.memq w st.pending -> (
            match missing_dep t w with
            | Some dep -> index_waiter t dep wkey w
            | None ->
              st.pending <- List.filter (fun x -> x != w) st.pending;
              if announce t st w then Stack.push wkey work)
          | Some _ | None -> ())
        ws
  done

(* The guards every write passes, whatever its evidence; the paths
   differ only in [verify] and in what they do with an admitted write.
   [held] counts one more slot as stored (the MAC path's). A stored
   stamp whose copy matches is a client retry after a lost ack. *)
let admit t (w : Payload.write) ~held ~verify =
  let st = item_state t w.uid in
  if Stamp.compare w.stamp st.erased_below < 0 then `Rejected
  else if already_stored st w || held st w then
    if duplicate_of st w then `Duplicate else `Rejected
  else if is_writer_faulty t w.writer then `Rejected
  else if detect_fork t st w then `Rejected
  else if
    (match st.current with
    | Some c -> not (same_stamp_kind c.Payload.stamp w.stamp)
    | None -> false)
  then `Rejected
  else if
    (* A dispersed write's value must BE the digest Merkle root: the
       evidence then binds every fragment byte, and a descriptor the
       root does not certify can never be installed. *)
    match w.frags with
    | None -> false
    | Some meta ->
      not (Dispersal.meta_ok meta && String.equal w.value (Dispersal.meta_root meta))
  then `Rejected
  else if not (verify w) then `Rejected
  else `Admitted st

(* Try to accept [w]; returns `Accepted | `Held | `Duplicate |
   `Rejected. Does not release held writes (the caller does). *)
let try_accept t (w : Payload.write) =
  match
    admit t w ~held:(fun _ _ -> false) ~verify:(Signing.server_verify_write t.keyring)
  with
  | (`Rejected | `Duplicate) as r -> r
  | `Admitted st -> (
    match if t.config.malicious_client_guard then missing_dep t w else None with
    | Some dep ->
      hold t (Uid.to_string w.uid) st w dep;
      `Held
    | None -> if announce t st w then `Accepted else `Rejected)

let accept_write t (w : Payload.write) =
  let result = try_accept t w in
  (match result with
  | `Accepted -> wake t (Uid.to_string w.uid)
  | `Held | `Rejected | `Duplicate -> ());
  result

(* Accept a MAC-fast write into the held [maced] slot: verified under
   our pairwise key, but invisible to reads, gossip and fork vouching
   until the client upgrades its evidence. The guards are [try_accept]'s,
   so a Byzantine client cannot use the fast path to smuggle forks or
   resurrect erased stamps. *)
let accept_mac_write t (w : Payload.write) =
  match
    admit t w ~held:in_maced ~verify:(Signing.server_verify_mac t.keyring ~server:t.id)
  with
  | (`Rejected | `Duplicate) as r -> r
  | `Admitted st ->
    st.maced <- trim t.config.mac_hold_depth (w :: st.maced);
    `Held

(* Section 5.3 log erasure: once 2b+1 distinct servers are known to hold
   a stamp at least as new as a logged value's successor, the old value
   has served its purpose and can be dropped from the log. The threshold
   guarantees b+1 honest holders, i.e. a full vouching set. *)
let erasure_threshold t = (2 * t.config.b) + 1

let record_holder t uid ~holder ~stamp =
  let st = item_state t uid in
  let entry =
    match List.assoc_opt stamp st.holders with
    | Some holders -> holders
    | None -> []
  in
  if not (List.mem holder entry) then begin
    let updated = holder :: entry in
    st.holders <- (stamp, updated) :: List.remove_assoc stamp st.holders;
    (* Keep only stamps still relevant (at least as new as the oldest
       logged write) to bound the table. *)
    if List.length updated >= erasure_threshold t then begin
      st.log <-
        List.filter
          (fun (w : Payload.write) -> Stamp.compare w.stamp stamp >= 0)
          st.log;
      if Stamp.compare stamp st.erased_below > 0 then st.erased_below <- stamp;
      (* Holder entries below the watermark are no longer interesting. *)
      st.holders <-
        List.filter (fun (s, _) -> Stamp.compare s st.erased_below >= 0) st.holders;
      (* Fragments of erased stamps go with their metadata. *)
      gc_frags t (Uid.to_string uid) st
    end
  end

let gossip_summary t =
  Hashtbl.fold
    (fun _ st acc ->
      match st.current with
      | Some (w : Payload.write) -> (w.uid, w.stamp) :: acc
      | None -> acc)
    t.items []

let holder_count t uid stamp =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> 0
  | Some st -> (
    match List.assoc_opt stamp st.holders with
    | Some holders -> List.length holders
    | None -> 0)

let authorize t ~now ~token ?expect_client ~group ~op () =
  match t.config.auth with
  | None -> Access_control.Authorized
  | Some svc -> Access_control.check svc ~now ~token ?expect_client ~group ~op ()

let log_writes t uid =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> []
  | Some st -> (
    match st.current with
    | None -> []
    | Some c -> c :: trim t.config.log_depth st.log)

(* --- dynamic membership ------------------------------------------------- *)

let set_epoch t e = t.epoch <- Some e

(* Re-enqueue every announced write so the next gossip rounds carry this
   server's whole state to the epoch's newcomers — the join bootstrap
   rides the ordinary anti-entropy path, no separate transfer protocol.
   The bytes are accounted as bootstrap transfer. *)
let reannounce_for_bootstrap t =
  let writes =
    Hashtbl.fold
      (fun _ st acc -> match st.current with Some w -> w :: acc | None -> acc)
      t.items []
  in
  List.iter
    (fun (w : Payload.write) ->
      Metrics.add_bootstrap_bytes (String.length (Payload.write_body w)))
    writes;
  t.gossip_buffer <- writes @ t.gossip_buffer

(* Adopt [e] if it is trustworthy and strictly newer. Epochs arrive on
   unauthenticated channels (gossip pushes carry no token and the
   membership requests are epoch-exempt), so without a configured admin
   key every transition is refused — trusting an unverifiable epoch
   would let anyone who can reach the port push a config that excludes
   this server and flip it into draining, a denial of service that the
   snapshot would then persist across restarts. A configured server
   insists on direct hash-chain succession when the version is
   current + 1 — the admin applies transitions one at a time, and a
   forked chain breaks exactly here. A server that has fallen behind
   (crashed through announcements) accepts a version jump on the admin
   signature alone; the chain remains auditable by whoever saw the
   intermediate epochs. *)
let try_adopt_epoch t (e : Config_epoch.t) =
  match t.config.epoch_admin with
  | None -> Error "no admin key"
  | Some pub -> (
    match Config_epoch.validate e with
    | Error msg -> Error msg
    | Ok () ->
      if not (Config_epoch.verify e pub) then Error "epoch not signed by admin"
      else begin
        match t.epoch with
        | Some cur when e.Config_epoch.version <= cur.Config_epoch.version ->
          Error "epoch not newer"
        | Some cur
          when e.Config_epoch.version = cur.Config_epoch.version + 1
               && not (Config_epoch.follows ~prev:cur e) ->
          Error "epoch does not chain to predecessor"
        | cur ->
          t.epoch <- Some e;
          Metrics.incr_epoch_transition ();
          Metrics.set_epoch_version e.Config_epoch.version;
          let joined =
            match cur with
            | None -> []
            | Some prev ->
              List.filter
                (fun s -> not (Config_epoch.member prev s))
                e.Config_epoch.servers
          in
          if Config_epoch.member e t.id then begin
            if t.draining then begin
              (* Removed in an earlier epoch, re-added here: return to
                 service. Re-announce unconditionally — writes may have
                 been missed while draining, and the drain-era state
                 must reach the current members either way. *)
              t.draining <- false;
              reannounce_for_bootstrap t
            end
            else if joined <> [] then reannounce_for_bootstrap t
          end
          else
            (* We are not in the new membership: drain. Reads and
               evidence upgrades continue; new writes are refused. *)
            t.draining <- true;
          Ok ()
      end)

(* Server-to-server and membership traffic is never epoch-gated:
   gossip must flow between epochs (it is how joiners bootstrap and
   how laggards learn the new config), and discovery/announcement are
   the repair channel itself. *)
let epoch_exempt = function
  | Payload.Gossip_push _ | Payload.Epoch_get | Payload.Epoch_announce _ ->
    true
  | Payload.Frag_get _ ->
    (* Fragment reads are the repair/anti-entropy channel: a peer
       reconstructing its fragment must not be refused for lagging an
       epoch, exactly like gossip. *)
    true
  | Payload.Ctx_read _ | Payload.Ctx_check _ | Payload.Ctx_write _
  | Payload.Read_query _ | Payload.Value_read _ | Payload.Write_req _
  | Payload.Group_query _ | Payload.Evidence_upgrade _ | Payload.Frag_put _ ->
    false

let handle t ~now ~from (env : Payload.envelope) : Payload.response option =
  let auth ?expect_client ~group ~op k =
    match authorize t ~now ~token:env.token ?expect_client ~group ~op () with
    | Access_control.Authorized -> k ()
    | Access_control.Denied reason -> Some (Payload.Denied reason)
  in
  match t.epoch with
  | Some cur
    when env.epoch < cur.Config_epoch.version && not (epoch_exempt env.request)
    ->
    (* The client is operating under a superseded membership: reject,
       but piggyback the newer config so one round-trip both refuses
       the stale op and repairs the sender. *)
    Metrics.incr_epoch_rejection ();
    Some (Payload.Stale_epoch cur)
  | _ ->
  match env.request with
  | Payload.Ctx_read { client; group } ->
    auth ~group ~op:`Read (fun () ->
        Some (Payload.Ctx_reply (Hashtbl.find_opt t.contexts (client, group))))
  | Payload.Ctx_check { client; group; known } ->
    auth ~group ~op:`Read (fun () ->
        match Hashtbl.find_opt t.contexts (client, group) with
        | Some r when String.equal (Payload.ctx_record_digest r) known ->
          Some Payload.Ctx_same
        | stored -> Some (Payload.Ctx_reply stored))
  | Payload.Ctx_write { client; records } ->
    if t.draining then
      (* Contexts are not gossiped on the write path, so a record stored
         on a departing server would be lost at handoff; the client
         lands it on the current epoch's members instead. *)
      Some (Payload.Denied "draining")
    else
      (* Each record stands alone: one that fails authorization or
         verification is refused without sinking the others. *)
      let verify = Signing.server_context_verifier t.keyring ~client in
      Some
        (Payload.Ctx_written
           (List.map
              (fun (group, (record : Payload.ctx_record)) ->
                match
                  authorize t ~now ~token:env.token ~expect_client:client ~group
                    ~op:`Write ()
                with
                | Access_control.Denied reason -> Payload.Refused reason
                | Access_control.Authorized ->
                  if not (verify ~group record) then Payload.Refused "bad context signature"
                  else begin
                    (match Hashtbl.find_opt t.contexts (client, group) with
                    | Some existing when record.seq <= existing.seq -> ()
                    | _ -> Hashtbl.replace t.contexts (client, group) record);
                    Payload.Stored
                  end)
              records))
  | Payload.Read_query { uid; ship } ->
    auth ~group:(Uid.group uid) ~op:`Read (fun () ->
        let st = Hashtbl.find_opt t.items (Uid.to_string uid) in
        Some
          (Payload.Read_reply
             {
               stamps =
                 List.map (fun (w : Payload.write) -> w.stamp) (log_writes t uid);
               writer_faulty = (match st with Some s -> s.forked | None -> false);
               write = (if ship then Option.bind st (fun st -> st.current) else None);
             }))
  | Payload.Value_read { uid; stamp } ->
    auth ~group:(Uid.group uid) ~op:`Read (fun () ->
        let found =
          List.find_opt
            (fun (w : Payload.write) -> Stamp.equal w.stamp stamp)
            (log_writes t uid)
        in
        Some (Payload.Value_reply found))
  | Payload.Write_req write ->
    auth ~expect_client:write.writer ~group:(Uid.group write.uid) ~op:`Write
      (fun () ->
        if t.draining then
          (* Departing server: no new writes. The client treats this
             like any other refusal and lands the write on the current
             epoch's members instead. *)
          Some (Payload.Denied "draining")
        else
          let result =
            match write.evidence with
            | Payload.Mac _ -> accept_mac_write t write
            | Payload.Sig _ | Payload.Batch _ -> accept_write t write
          in
          Some
            (match result with
            | `Accepted | `Held | `Duplicate -> Payload.Ack
            | `Rejected -> Payload.Denied "write rejected"))
  | Payload.Evidence_upgrade { uid; stamp; writer; evidence } ->
    auth ~expect_client:writer ~group:(Uid.group uid) ~op:`Write (fun () ->
        let st = item_state t uid in
        match
          List.find_opt
            (fun (m : Payload.write) -> Stamp.equal m.stamp stamp)
            st.maced
        with
        | Some held ->
          if not (String.equal held.writer writer) then
            Some (Payload.Denied "writer mismatch")
          else begin
            let upgraded = { held with Payload.evidence } in
            match accept_write t upgraded with
            | `Accepted | `Held | `Duplicate ->
              drop_maced st stamp;
              Some Payload.Ack
            | `Rejected ->
              (* Bad evidence: keep the MAC-held write so a corrected
                 retry can still upgrade it. *)
              Some (Payload.Denied "upgrade rejected")
          end
        | None ->
          (* Not held. If the stamp is already announced (gossip beat
             the upgrade, or the hold was trimmed after the signed form
             arrived) the upgrade is an idempotent success; otherwise
             the client must fall back to a full write. *)
          let announced =
            (match st.current with
            | Some c -> Stamp.equal c.Payload.stamp stamp
            | None -> false)
            || List.exists
                 (fun (w : Payload.write) -> Stamp.equal w.stamp stamp)
                 st.log
          in
          if announced then Some Payload.Ack
          else Some (Payload.Denied "unknown write"))
  | Payload.Group_query { group } ->
    auth ~group ~op:`Read (fun () ->
        let writes = ref [] in
        Hashtbl.iter
          (fun _ st ->
            match st.current with
            | Some w when String.equal (Uid.group w.Payload.uid) group ->
              writes := w :: !writes
            | Some _ | None -> ())
          t.items;
        Some (Payload.Group_reply !writes))
  | Payload.Gossip_push { writes; have; epoch } ->
    (* Server-to-server: no token; the client signatures on each write
       are the authority. A forged write simply fails verification.
       A piggybacked epoch is membership anti-entropy: adopt it under
       the same rules as an announcement (signature + chain). *)
    (match epoch with
    | Some e -> ignore (try_adopt_epoch t e)
    | None -> ());
    (* Holder evidence needs a named sender: with [from < 0] (the live
       host) a holder entry could never reach the erasure threshold, so
       none is recorded. *)
    List.iter
      (fun (w : Payload.write) ->
        match accept_write t w with
        | `Accepted | `Held | `Duplicate ->
          (* We hold it now, and so does the sender. *)
          if from >= 0 then begin
            record_holder t w.uid ~holder:t.id ~stamp:w.stamp;
            record_holder t w.uid ~holder:from ~stamp:w.stamp
          end
        | `Rejected -> if from >= 0 then record_holder t w.uid ~holder:from ~stamp:w.stamp)
      writes;
    List.iter
      (fun (uid, stamp) ->
        if from >= 0 then record_holder t uid ~holder:from ~stamp)
      have;
    Some Payload.Ack
  | Payload.Frag_put { uid; stamp; writer; index; seq; last; data } ->
    auth ~expect_client:writer ~group:(Uid.group uid) ~op:`Write (fun () ->
        if t.draining then Some (Payload.Denied "draining")
        else if is_writer_faulty t writer then
          Some (Payload.Denied "writer faulty")
        else if index < 1 || index > 255 then
          Some (Payload.Denied "bad fragment index")
        else begin
          let key = Uid.to_string uid in
          let fkey = (key, stamp, index) in
          let st = item_state t uid in
          if Stamp.compare stamp st.erased_below < 0 then
            Some (Payload.Denied "stamp erased")
          else if Option.is_some (find_frag t fkey) then
            (* Already sealed under this stamp: a retry after a lost
               ack. First-seal-wins; a diverging retry is caught by the
               digest check against the (stamp-bound) metadata. *)
            Some Payload.Ack
          else begin
            (* seq 0 always starts a fresh stream: a writer retrying
               after a broken round must not trip over its own stale
               staging entry. *)
            if seq = 0 then Hashtbl.remove t.staging fkey;
            match Hashtbl.find_opt t.staging fkey with
            | Some s ->
              if seq <> s.snext || not (String.equal s.swriter writer) then begin
                Hashtbl.remove t.staging fkey;
                Some (Payload.Denied "fragment chunk sequence broken")
              end
              else if Buffer.length s.sbuf + String.length data > max_frag_bytes
              then begin
                Hashtbl.remove t.staging fkey;
                Some (Payload.Denied "fragment too large")
              end
              else begin
                Buffer.add_string s.sbuf data;
                s.snext <- seq + 1;
                if last then begin
                  let whole = Buffer.contents s.sbuf in
                  Hashtbl.remove t.staging fkey;
                  Some (seal_fragment t fkey whole)
                end
                else Some Payload.Ack
              end
            | None ->
              if seq <> 0 then
                Some (Payload.Denied "fragment chunk sequence broken")
              else if last then
                (* single-chunk fragment: no staging needed *)
                Some (seal_fragment t fkey data)
              else if String.length data > max_frag_bytes then
                Some (Payload.Denied "fragment too large")
              else if Hashtbl.length t.staging >= max_staging then
                Some (Payload.Denied "fragment staging full")
              else begin
                let s =
                  {
                    sbuf = Buffer.create (String.length data * 4);
                    snext = 1;
                    swriter = writer;
                  }
                in
                Buffer.add_string s.sbuf data;
                Hashtbl.add t.staging fkey s;
                Some Payload.Ack
              end
          end
        end)
  | Payload.Frag_get { uid; stamp; index; off; len } ->
    auth ~group:(Uid.group uid) ~op:`Read (fun () ->
        match find_frag t (Uid.to_string uid, stamp, index) with
        | Some e when e.fverified ->
          let total = String.length e.fdata in
          let off = min (max 0 off) total in
          let len = max 0 (min (min len frag_reply_cap) (total - off)) in
          Metrics.incr_frag_get ();
          Some
            (Payload.Frag_reply
               (Some { Payload.total; data = String.sub e.fdata off len }))
        | Some _ | None -> Some (Payload.Frag_reply None))
  | Payload.Epoch_get -> Some (Payload.Epoch_reply t.epoch)
  | Payload.Epoch_announce e -> (
    match try_adopt_epoch t e with
    | Ok () -> Some Payload.Ack
    | Error "epoch not newer" ->
      (* Idempotent re-announcement (or a laggard admin): not an error
         worth a retry, but tell the sender where we actually are. *)
      Some
        (match t.epoch with
        | Some cur -> Payload.Stale_epoch cur
        | None -> Payload.Denied "no epoch")
    | Error reason -> Some (Payload.Denied reason))

(* Warm the signature cache for everything [handle] will verify, so the
   expensive RSA math can run outside whatever lock serializes [handle].
   Purely advisory: [handle] re-checks every signature (through the
   cache), so a caller skipping this loses speed, never safety. *)
let preverify t (env : Payload.envelope) =
  match env.request with
  | Payload.Write_req write -> Signing.warm_write t.keyring write
  | Payload.Gossip_push { writes; _ } ->
    List.iter (Signing.warm_write t.keyring) writes
  | Payload.Ctx_write { client; records } ->
    Signing.warm_contexts t.keyring ~client records
  | Payload.Evidence_upgrade { writer; evidence; _ } ->
    Signing.warm_batch t.keyring ~writer evidence
  | Payload.Ctx_read _ | Payload.Ctx_check _ | Payload.Read_query _
  | Payload.Value_read _ | Payload.Group_query _
  | Payload.Epoch_get | Payload.Epoch_announce _
  (* fragment traffic carries no signatures: the metadata's digests are
     the authority *)
  | Payload.Frag_put _ | Payload.Frag_get _ -> ()

let handler t ~now ~from payload =
  match Payload.decode_envelope payload with
  | None -> None
  | Some env -> Option.map Payload.encode_response (handle t ~now ~from env)

let take_gossip_buffer t =
  let writes = List.rev t.gossip_buffer in
  t.gossip_buffer <- [];
  writes

let gossip_pending t = List.length t.gossip_buffer

let current_write t uid =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> None
  | Some st -> st.current

let pending_count t uid =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> 0
  | Some st -> List.length st.pending

let pending_writes t uid =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> []
  | Some st -> st.pending

let maced_count t uid =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> 0
  | Some st -> List.length st.maced

let maced_writes t uid =
  match Hashtbl.find_opt t.items (Uid.to_string uid) with
  | None -> []
  | Some st -> st.maced

let item_count t = Hashtbl.length t.items
let audit_log t = List.of_seq (Queue.to_seq t.audit_recent)
let audit_frontier t = t.audit_base

let audit_digest t =
  Queue.fold
    (fun acc w ->
      Crypto.Merkle.multiset_add acc
        (Crypto.Merkle.leaf_hash (Payload.write_body w)))
    t.audit_base_sum t.audit_recent

(* --- invariants ----------------------------------------------------------- *)

(* [~epoch:false] skips the admin-signature check of the epoch, which
   depends on the configured key rather than on the state. *)
let check_state ~epoch t =
  let exception Broken of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Broken m)) fmt in
  try
    let indexed = Hashtbl.create (Hashtbl.length t.waiters) in
    Hashtbl.iter
      (fun dep ws ->
        List.iter
          (fun (key, (w : Payload.write)) ->
            (match Hashtbl.find_opt t.items key with
            | Some st when List.memq w st.pending -> ()
            | Some _ | None -> fail "a write waiting on %s is not held by item %s" dep key);
            if missing_dep t w <> Some dep then
              fail "a held write of %s waits on %s, not its first missing dependency"
                key dep;
            let n = Option.value (Hashtbl.find_opt indexed (key, w.stamp)) ~default:0 in
            Hashtbl.replace indexed (key, w.stamp) (n + 1))
          ws)
      t.waiters;
    Hashtbl.iter
      (fun key st ->
        let bound what l cap =
          let n = List.length l in
          if n > cap then fail "item %s: %d %s > %d" key n what cap
        in
        bound "logged writes" st.log t.config.log_depth;
        bound "MAC-held writes" st.maced t.config.mac_hold_depth;
        bound "held writes" st.pending held_cap;
        List.iter
          (fun (_, holders) ->
            if List.exists (fun h -> h < 0) holders then
              fail "item %s: a holder entry names no server" key)
          st.holders;
        (match st.current with
        | Some (c : Payload.write) ->
          List.iter
            (fun (l : Payload.write) ->
              if Stamp.compare c.stamp l.stamp <= 0 then
                fail "item %s: a log entry is not older than the current write" key)
            st.log
        | None -> if st.log <> [] then fail "item %s: a log without a current write" key);
        List.iter
          (fun (w : Payload.write) ->
            let n = Option.value (Hashtbl.find_opt indexed (key, w.stamp)) ~default:0 in
            if n <> 1 then fail "item %s: a held write is indexed %d times" key n)
          st.pending)
      t.items;
    let orphans = List.length t.orphans in
    if orphans > orphan_cap then fail "%d orphans > %d" orphans orphan_cap;
    List.iter
      (fun fkey ->
        if not (is_orphan t fkey) then fail "an orphan is not an unverified fragment")
      t.orphans;
    Hashtbl.iter
      (fun key tbl -> if Hashtbl.length tbl = 0 then fail "item %s: an empty fragment table" key)
      t.frags;
    if Hashtbl.length t.staging > max_staging then
      fail "%d staged streams > %d" (Hashtbl.length t.staging) max_staging;
    let window = Queue.length t.audit_recent in
    let folded = Crypto.Merkle.frontier_size t.audit_base in
    if window > audit_window then fail "audit window %d > %d" window audit_window;
    if folded > 0 && window < audit_window then
      fail "%d audited writes folded while the window holds only %d" folded window;
    (match (t.config.epoch_admin, t.epoch) with
    | Some pub, Some e when epoch -> (
      match t.epoch_checked with
      | Some seen when seen == e -> ()
      | Some _ | None ->
        if Config_epoch.validate e <> Ok () then
          fail "epoch v%d is malformed" e.Config_epoch.version;
        if not (Config_epoch.verify e pub) then
          fail "epoch v%d is not signed by the admin" e.Config_epoch.version;
        t.epoch_checked <- Some e)
    | _ -> ());
    Ok ()
  with Broken m -> Error m

let invariants t = check_state ~epoch:true t

(* --- fragment introspection and repair ---------------------------------- *)

let fragment t uid ~stamp ~index =
  match find_frag t (Uid.to_string uid, stamp, index) with
  | Some e when e.fverified -> Some e.fdata
  | _ -> None

let fragment_count t =
  fold_frags (fun _ e acc -> if e.fverified then acc + 1 else acc) t 0

let orphan_fragment_count t =
  fold_frags (fun _ e acc -> if e.fverified then acc else acc + 1) t 0

let drop_fragment t uid ~stamp ~index =
  let fkey = (Uid.to_string uid, stamp, index) in
  remove_frag t fkey;
  t.orphans <- List.filter (fun k -> k <> fkey) t.orphans

let drop_all_fragments t =
  let dropped = fold_frags (fun _ _ n -> n + 1) t 0 in
  Hashtbl.reset t.frags;
  Hashtbl.reset t.staging;
  t.orphans <- [];
  dropped

let storage_bytes t =
  let wlen (w : Payload.write) = String.length w.Payload.value in
  let item_bytes =
    Hashtbl.fold
      (fun _ st acc ->
        acc
        + (match st.current with Some w -> wlen w | None -> 0)
        + List.fold_left (fun a w -> a + wlen w) 0 st.log
        + List.fold_left (fun a w -> a + wlen w) 0 st.pending
        + List.fold_left (fun a w -> a + wlen w) 0 st.maced)
      t.items 0
  in
  fold_frags (fun _ e acc -> acc + String.length e.fdata) t item_bytes

(* Current dispersed writes whose own-index fragment this server should
   hold but does not — what the repair loop works through. *)
let missing_fragments t =
  Hashtbl.fold
    (fun key st acc ->
      match st.current with
      | Some ({ Payload.frags = Some meta; _ } as w) when t.id + 1 <= meta.Payload.m
        -> (
        match find_frag t (key, w.stamp, t.id + 1) with
        | Some e when e.fverified -> acc
        | _ -> w :: acc)
      | _ -> acc)
    t.items []

(* Rebuild our fragment of [w] from peers: pull whole fragments (1 MiB
   ranges) from the other holders through [fetch], keep the ones whose
   digests the metadata certifies, decode, re-code our own index, store
   it verified. [fetch ~peer request] is the transport — sim tests pass
   peers' [handle] directly; the live host wires it through the pool. *)
let repair_fragment t ~fetch (w : Payload.write) =
  match w.Payload.frags with
  | None -> false
  | Some meta ->
    let my_index = t.id + 1 in
    let fl = Dispersal.frag_length meta in
    let digest_of index = List.nth meta.Payload.digests (index - 1) in
    let fetch_fragment index =
      let chunk = 1 lsl 20 in
      let buf = Buffer.create (min fl chunk) in
      let rec go off =
        match
          fetch ~peer:(index - 1)
            (Payload.Frag_get
               { uid = w.uid; stamp = w.stamp; index; off; len = chunk })
        with
        | Some (Payload.Frag_reply (Some { Payload.total; data })) ->
          if total <> fl then None
          else begin
            Buffer.add_string buf data;
            let off = off + String.length data in
            if off >= fl then Some (Buffer.contents buf)
            else if String.length data = 0 then None
            else go off
          end
        | _ -> None
      in
      match go 0 with
      | Some data
        when String.equal (Crypto.Sha256.digest data) (digest_of index) ->
        Some (index, data)
      | _ -> None
    in
    let rec collect acc = function
      | [] -> acc
      | _ when List.length acc >= meta.Payload.k -> acc
      | index :: rest -> (
        match fetch_fragment index with
        | Some piece -> collect (piece :: acc) rest
        | None -> collect acc rest)
    in
    let candidates =
      List.filter (fun i -> i <> my_index)
        (List.init meta.Payload.m (fun i -> i + 1))
    in
    (match Dispersal.decode_fragments meta (collect [] candidates) with
    | None -> false
    | Some value ->
      let mine = Dispersal.refragment meta ~index:my_index value in
      if String.equal (Crypto.Sha256.digest mine) (digest_of my_index) then begin
        add_frag t
          (Uid.to_string w.uid, w.stamp, my_index)
          { fdata = mine; fdigest = digest_of my_index; fverified = true };
        Metrics.incr_frag_repair ();
        true
      end
      else false)

let repair_fragments t ~fetch =
  List.fold_left
    (fun acc w -> if repair_fragment t ~fetch w then acc + 1 else acc)
    0 (missing_fragments t)

(* --- persistence -------------------------------------------------------- *)

(* Index a restored server's held writes under their first missing
   dependency; one whose dependencies all arrived is released. *)
let rebuild_waiters t =
  let ready = ref [] in
  Hashtbl.iter
    (fun key st ->
      List.iter
        (fun (w : Payload.write) ->
          match missing_dep t w with
          | Some dep -> index_waiter t dep key w
          | None -> ready := (key, st, w) :: !ready)
        (List.rev st.pending))
    t.items;
  List.iter
    (fun (key, st, (w : Payload.write)) ->
      st.pending <- List.filter (fun x -> x != w) st.pending;
      if announce t st w then wake t key)
    !ready

(* The one format a server writes and reads. Items persist their
   MAC-held writes, so a restart does not silently drop fast-path writes
   awaiting escalation; the config epoch rides along, so a restarted
   server rejoins the membership generation it left in, not genesis; the
   fragment store is kept, orphans included, so a crash between a
   client's fragment scatter and its metadata quorum still commits once
   the metadata arrives after restart; context records keep their
   evidence (a signature or a batch leaf); and the audit trail is stored
   as its count, frontier peaks, folded digest and window. A trailing
   SHA-256 over the body detects truncation or corruption before any
   field is decoded. Blobs of any other version are refused. *)
let snapshot_version = 6

let integrity_len = 32

let encode_write = Payload.encode_write

let snapshot_body t =
  let open Wire.Codec in
  encode
    (fun enc () ->
      Enc.string enc "securestore-snapshot";
      Enc.varint enc snapshot_version;
      Enc.varint enc t.id;
      let items = Hashtbl.fold (fun key st acc -> (key, st) :: acc) t.items [] in
      Enc.list enc
        (fun enc (key, st) ->
          Enc.string enc key;
          Enc.option enc encode_write st.current;
          Enc.list enc encode_write st.log;
          Enc.list enc encode_write st.pending;
          Enc.list enc encode_write st.maced;
          Enc.bool enc st.forked;
          Stamp.encode enc st.erased_below)
        items;
      let contexts =
        Hashtbl.fold (fun key record acc -> (key, record) :: acc) t.contexts []
      in
      Enc.list enc
        (fun enc ((client, group), r) ->
          Enc.string enc client;
          Enc.string enc group;
          Payload.encode_ctx_record enc r)
        contexts;
      Enc.list enc Enc.string
        (Hashtbl.fold (fun writer () acc -> writer :: acc) t.faulty_writers []);
      (* pending gossip (newest first in memory), then the audit trail *)
      Enc.list enc encode_write t.gossip_buffer;
      Enc.varint enc (Crypto.Merkle.frontier_size t.audit_base + Queue.length t.audit_recent);
      Enc.list enc Enc.string (Crypto.Merkle.frontier_peaks t.audit_base);
      Enc.string enc t.audit_base_sum;
      Enc.list enc encode_write (audit_log t);
      Enc.option enc Config_epoch.encode t.epoch;
      Enc.bool enc t.draining;
      (* v4: the fragment store (digests are recomputed on restore) *)
      let frags = fold_frags (fun k e acc -> (k, e) :: acc) t [] in
      Enc.list enc
        (fun enc (((key, stamp, index) : frag_key), e) ->
          Enc.string enc key;
          Stamp.encode enc stamp;
          Enc.varint enc index;
          Enc.string enc e.fdata;
          Enc.bool enc e.fverified)
        frags)
    ()

let snapshot t =
  let body = snapshot_body t in
  body ^ Crypto.Sha256.digest body

let restore_result ?config ~id ~keyring ~n ~b blob =
  let open Wire.Codec in
  (* The blob ends in a SHA-256 of everything before it; check it before
     decoding a single field, so a truncated or bit-flipped file yields
     a clear refusal, never a decoder exception. *)
  let len = String.length blob in
  let integrity_ok =
    len > integrity_len
    && String.equal
         (Crypto.Sha256.digest (String.sub blob 0 (len - integrity_len)))
         (String.sub blob (len - integrity_len) integrity_len)
  in
  let body = if integrity_ok then String.sub blob 0 (len - integrity_len) else blob in
  match
    decode
      (fun dec ->
        if not integrity_ok then
          raise
            (Wire.Codec.Error "integrity check failed (truncated or corrupt)");
        if Dec.string dec <> "securestore-snapshot" then
          raise (Wire.Codec.Error "bad magic");
        if Dec.varint dec <> snapshot_version then
          raise (Wire.Codec.Error "unsupported snapshot version");
        let decode_write = Payload.decode_write in
        let saved_id = Dec.varint dec in
        if saved_id <> id then raise (Wire.Codec.Error "server id mismatch");
        let t = create ?config ~id ~keyring ~n ~b () in
        (* Lists bounded by the config are cut to the restoring one's
           depths, as its next write would cut them. *)
        let items =
          Dec.list dec (fun dec ->
              let key = Dec.string dec in
              let current = Dec.option dec decode_write in
              let log = trim t.config.log_depth (Dec.list dec decode_write) in
              let pending = Dec.list dec decode_write in
              let maced = trim t.config.mac_hold_depth (Dec.list dec decode_write) in
              let forked = Dec.bool dec in
              let erased_below = Stamp.decode dec in
              ( key,
                {
                  current;
                  log;
                  pending;
                  maced;
                  forked;
                  holders = [];
                  erased_below;
                } ))
        in
        List.iter (fun (key, st) -> Hashtbl.replace t.items key st) items;
        let contexts =
          Dec.list dec (fun dec ->
              let client = Dec.string dec in
              let group = Dec.string dec in
              ((client, group), Payload.decode_ctx_record dec))
        in
        List.iter (fun (key, r) -> Hashtbl.replace t.contexts key r) contexts;
        List.iter
          (fun writer -> Hashtbl.replace t.faulty_writers writer ())
          (Dec.list dec Dec.string);
        t.gossip_buffer <- Dec.list dec decode_write;
        let count = Dec.varint dec in
        let peaks = Dec.list dec Dec.string in
        let sum = Dec.string dec in
        let window = Dec.list dec decode_write in
        (match
           Crypto.Merkle.frontier_of_peaks ~size:(count - List.length window) peaks
         with
        | Some base
          when String.length sum = 32
               && (Crypto.Merkle.frontier_size base = 0
                  || List.length window = audit_window) ->
          t.audit_base <- base;
          t.audit_base_sum <- sum;
          List.iter (audit_append t) window
        | Some _ | None -> raise (Wire.Codec.Error "bad audit frontier"));
        t.epoch <- Dec.option dec Config_epoch.decode;
        t.draining <- Dec.bool dec;
        (match t.epoch with
        | Some e -> Metrics.set_epoch_version e.Config_epoch.version
        | None -> ());
        List.iter
          (fun (fkey, e) ->
            add_frag t fkey e;
            if not e.fverified then t.orphans <- fkey :: t.orphans)
          (Dec.list dec (fun dec ->
               let key = Dec.string dec in
               let stamp = Stamp.decode dec in
               let index = Dec.varint dec in
               let fdata = Dec.string dec in
               let fverified = Dec.bool dec in
               ( (key, stamp, index),
                 {
                   fdata;
                   fdigest = Crypto.Sha256.digest fdata;
                   fverified;
                 } )));
        rebuild_waiters t;
        t)
      body
  with
  | t -> (
    (* A blob that decodes may still hold a state no honest server can
       reach (one torn by a save racing a request, say): refuse it. The
       epoch is not checked against this config's admin key: changing
       the key is a configuration change, not a torn state. *)
    match check_state ~epoch:false t with
    | Ok () -> Ok t
    | Error msg -> Error ("inconsistent snapshot: " ^ msg))
  | exception Wire.Codec.Error msg -> Error ("corrupt snapshot: " ^ msg)
  | exception e ->
    (* Any other decoder failure (a well-trailed blob with bad lengths)
       is still a refusal, not a crash. *)
    Error ("corrupt snapshot: " ^ Printexc.to_string e)

let restore ?config ~id ~keyring ~n ~b blob =
  match restore_result ?config ~id ~keyring ~n ~b blob with
  | Ok t -> Some t
  | Error _ -> None

let write_snapshot ~path blob =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc blob);
  Sys.rename tmp path

let save_file t ~path = write_snapshot ~path (snapshot t)

let load_result ?config ~id ~keyring ~n ~b ~path () =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let blob =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    restore_result ?config ~id ~keyring ~n ~b blob

let load_file ?config ~id ~keyring ~n ~b ~path () =
  Result.to_option (load_result ?config ~id ~keyring ~n ~b ~path ())
