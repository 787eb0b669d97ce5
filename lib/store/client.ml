type consistency = MRC | CC
type mode = Quorums.data_class = Single_writer | Multi_writer

(* How writes get their evidence. [Per_write_sig] is the paper's
   baseline: one RSA signature per write. [Mac_fast] replaces the
   signature with a per-server HMAC vector and escalates to batch
   evidence lazily — before reads, at disconnect, or every
   [escalate_every] writes. *)
type signing_mode = Per_write_sig | Mac_fast

type config = {
  n : int;
  b : int;
  servers : Sim.Runtime.node_id list;
  consistency : consistency;
  mode : mode;
  timeout : float;
  read_spread : bool;
  read_retries : int;
  retry_delay : float;
  retry_backoff_max : float;
  write_retries : int;
  op_deadline : float;
  timestamp_jitter : int;
  evidence : Fault_evidence.t option;
  token : string option;
  seed : int;
  canary_skip_freshness : bool;
  signing : signing_mode;
  escalate_every : int;
  epoch_admin : Crypto.Rsa.public option;
  dispersal_threshold : int;
  dispersal_chunk : int;
}

let default_config ~n ~b =
  (match Quorums.validate ~n ~b with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Client.default_config: " ^ msg));
  {
    n;
    b;
    servers = List.init n Fun.id;
    consistency = MRC;
    mode = Single_writer;
    timeout = Sim.Runtime.default_timeout;
    read_spread = false;
    read_retries = 2;
    retry_delay = 0.05;
    retry_backoff_max = 0.05;
    write_retries = 0;
    op_deadline = infinity;
    timestamp_jitter = 1;
    evidence = None;
    token = None;
    seed = 0;
    canary_skip_freshness = false;
    signing = Per_write_sig;
    escalate_every = 8;
    epoch_admin = None;
    dispersal_threshold = 64 * 1024;
    dispersal_chunk = 1 lsl 20;
  }

type error =
  | No_quorum of { wanted : int; got : int }
  | Not_found of Uid.t
  | Stale of { uid : Uid.t; wanted : Stamp.t }
  | Writer_faulty of Uid.t
  | Write_rejected
  | Disconnected
  | Not_enough_fragments of { uid : Uid.t; needed : int; got : int }

type opstats = {
  mutable messages : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_rounds : int;
  mutable read_failures : int;
}

(* The stored record a session holds, with how many servers were seen
   storing it byte for byte and the epoch version they were counted
   under: the record connect loaded (copies = its byte-identical
   replies), then the record a write-back stored (copies = acks). *)
type held = { record : Payload.ctx_record; copies : int; at_epoch : int }

type t = {
  uid : string;
  key : Crypto.Rsa.keypair;
  keyring : Keyring.t;
  group : string;
  cfg : config;
  rng : Sim.Srng.t;
  trace_rng : Sim.Srng.t;
      (* dedicated stream for trace-id minting, so tracing never
         perturbs the operation rng and replays keep their schedules *)
  session : int;
  mutable cur_trace : string;  (* current op's raw 16-byte trace id *)
  mutable cur_trace_hex : string;  (* same id, lowercase hex; "" = none *)
  mutable ctx : Context.t;
  mutable ctx_seq : int;
  mutable held : held option;  (* [None]: fresh or rebuilt context *)
  mutable last_time : int;
  mutable connected : bool;
  mutable unescalated : Payload.write list;
      (* Mac_fast writes acked by a quorum but not yet escalated to
         third-party-verifiable evidence; newest first *)
  mutable epoch : Config_epoch.t option;
      (* the config epoch this session operates under; [None] = static
         deployment (the cfg's n/b/servers are final) *)
  opstats : opstats;
}

let uid t = t.uid
let stats t = t.opstats
let held_context t = Option.map (fun h -> h.record) t.held
let group t = t.group
let context t = t.ctx
let config t = t.cfg
let epoch t = t.epoch

(* The membership the session currently derives its quorum math from:
   the adopted epoch when there is one, the static config otherwise.
   Re-derivation is per-call, so adopting a new epoch mid-operation
   redirects the very next round without dropping the operation. *)
let epoch_version t =
  match t.epoch with Some e -> e.Config_epoch.version | None -> 0

let active_n t = match t.epoch with Some e -> Config_epoch.n e | None -> t.cfg.n

let active_servers t =
  match t.epoch with Some e -> e.Config_epoch.servers | None -> t.cfg.servers

(* Adopt a server-offered epoch if it is strictly newer and carries the
   administrator's signature. With no pinned admin key the session is a
   static deployment and epochs are ignored entirely: adopting an
   unverifiable epoch would let a single Byzantine server replace the
   whole server set (and fault bound) mid-session with one forged
   [Stale_epoch]. Clients accept any newer signed epoch without the
   hash-chain check — a session may lag arbitrarily many transitions,
   and the signature is the authority. *)
let try_adopt_epoch t (e : Config_epoch.t) =
  match t.cfg.epoch_admin with
  | None -> ()
  | Some pub ->
    if
      e.Config_epoch.version > epoch_version t
      && Config_epoch.verify e pub
      && Result.is_ok (Config_epoch.validate e)
    then begin
      t.epoch <- Some e;
      Metrics.set_epoch_version e.Config_epoch.version;
      Metrics.incr_epoch_transition ();
      (* an epoch detour mid-operation is exactly the kind of rare hop a
         stitched trace should always retain *)
      Obs.Span.force ()
    end

let pp_error fmt = function
  | No_quorum { wanted; got } ->
    Format.fprintf fmt "no quorum: wanted %d responses, got %d" wanted got
  | Not_found uid -> Format.fprintf fmt "%a not found" Uid.pp uid
  | Stale { uid; wanted } ->
    Format.fprintf fmt "stale: no server proved %a at or beyond %a" Uid.pp uid
      Stamp.pp wanted
  | Writer_faulty uid -> Format.fprintf fmt "writer of %a deemed faulty" Uid.pp uid
  | Write_rejected -> Format.pp_print_string fmt "write rejected"
  | Disconnected -> Format.pp_print_string fmt "session disconnected"
  | Not_enough_fragments { uid; needed; got } ->
    Format.fprintf fmt
      "%a: only %d authentic fragments reachable, need %d to reconstruct"
      Uid.pp uid got needed

let error_to_string e = Format.asprintf "%a" pp_error e

(* ---------------- RPC plumbing ---------------------------------------- *)

let effective_b t =
  match t.cfg.evidence with
  | Some e -> Fault_evidence.effective_b e
  | None -> ( match t.epoch with Some e -> e.Config_epoch.b | None -> t.cfg.b)

(* Counted over the servers the session can still use: with p servers
   proven faulty, this quorum and any other client's ⌈(n+b+1)/2⌉ one
   still share b−p+1 servers, at most b−p of them faulty. *)
let context_quorum t =
  let n =
    match t.cfg.evidence with
    | Some e -> List.length (Fault_evidence.preferred_servers e)
    | None -> active_n t
  in
  Quorums.context_quorum ~n ~b:(effective_b t)

let report_proof t ~server event =
  match t.cfg.evidence with
  | Some e -> Fault_evidence.report_proof e ~server event
  | None -> ()

(* What a served-but-unverifiable write proves about the server: MAC
   evidence means it leaked a held fast-path write (an honest server
   never serves those); anything else is an ordinary bad signature. *)
let classify_bad_write (w : Payload.write) =
  match w.evidence with
  | Payload.Mac _ -> Fault_evidence.Evidence_downgrade
  | Payload.Sig _ | Payload.Batch _ -> Fault_evidence.Invalid_signature

let envelope t request =
  Payload.encode_envelope
    { Payload.token = t.cfg.token; epoch = epoch_version t; request }

(* The shared tail of every round. Count the messages both ways (paper
   section 6 counts both directions): [sent] requests of [sent_bytes]
   out, the replies back. Then decode the replies. A [Stale_epoch]
   both rejects the round and repairs the session: the piggybacked
   config is verified and adopted here, and the reply is dropped from
   the result. Quorum counting sees a non-response, so the operation's
   retry loop re-runs the round under the new epoch's quorum math
   instead of failing the in-flight op. *)
let settle t ~sent ~sent_bytes (replies : Sim.Runtime.reply list) =
  let messages = sent + List.length replies in
  Metrics.add_messages messages;
  Metrics.add_bytes
    (List.fold_left
       (fun acc (r : Sim.Runtime.reply) -> acc + String.length r.payload)
       sent_bytes replies);
  t.opstats.messages <- t.opstats.messages + messages;
  List.filter_map
    (fun (r : Sim.Runtime.reply) ->
      match Payload.decode_response r.payload with
      | Some (Payload.Stale_epoch e) ->
        try_adopt_epoch t e;
        None
      | Some resp -> Some (r.from, resp)
      | None -> None)
    replies

(* With an evidence store, who answered a round feeds suspicion. *)
let note_responders t dsts (replies : Sim.Runtime.reply list) =
  match t.cfg.evidence with
  | Some e ->
    let responded = Hashtbl.create (List.length replies) in
    List.iter
      (fun (r : Sim.Runtime.reply) -> Hashtbl.replace responded r.from ())
      replies;
    List.iter
      (fun dst ->
        if Hashtbl.mem responded dst then Fault_evidence.clear_suspicion e ~server:dst
        else Fault_evidence.report_suspicion e ~server:dst)
      dsts
  | None -> ()

(* One request to every server in [dsts], one quorum wait. *)
let rpc t ~quorum dsts request =
  let payload = envelope t request in
  let replies =
    Sim.Runtime.call_many ~timeout:t.cfg.timeout ~quorum dsts payload
  in
  note_responders t dsts replies;
  let sent = List.length dsts in
  settle t ~sent ~sent_bytes:(sent * String.length payload) replies

(* One scatter round: per-destination distinct requests (each server gets
   its own fragment chunk, or its own read request), one quorum wait. *)
let rpc_scatter t ~quorum parts =
  let parts = List.map (fun (dst, request) -> (dst, envelope t request)) parts in
  let replies = Sim.Runtime.call_scatter ~timeout:t.cfg.timeout ~quorum parts in
  note_responders t (List.map fst parts) replies;
  settle t ~sent:(List.length parts)
    ~sent_bytes:(List.fold_left (fun acc (_, p) -> acc + String.length p) 0 parts)
    replies

(* Every server in preference order, split by transport health
   ([Sim.Runtime.rank]): [(healthy, suspected)]. With an evidence
   store, proven-faulty servers are excluded and the least-suspected
   come first; otherwise the order is the configured one. *)
let ranked_universe t =
  Sim.Runtime.rank
    (match t.cfg.evidence with
    | Some e -> Fault_evidence.preferred_servers e
    | None -> active_servers t)

let server_universe t =
  let healthy, suspected = ranked_universe t in
  healthy @ suspected

(* A first round's [k] servers: healthy ones first, so a silent replica
   is contacted only when too few others are healthy. When spreading,
   a random order of the healthy ones, suspected ones still last. *)
let server_set t k =
  let healthy, suspected = ranked_universe t in
  let healthy =
    if not t.cfg.read_spread then healthy
    else begin
      let arr = Array.of_list healthy in
      Sim.Srng.shuffle t.rng arr;
      Array.to_list arr
    end
  in
  List.filteri (fun i _ -> i < k) (healthy @ suspected)

(* Constant-time membership: the chosen set is rebuilt on every retry
   round, so scanning it per-universe-element was O(n^2) on the read/write
   retry path. *)
let remaining_servers t chosen =
  let chosen_tbl = Hashtbl.create (List.length chosen) in
  List.iter (fun s -> Hashtbl.replace chosen_tbl s ()) chosen;
  List.filter (fun s -> not (Hashtbl.mem chosen_tbl s)) (server_universe t)

(* The paper's fallback: ask the servers outside [initial] for the
   [quorum] replies the first round fell short by. *)
let escalate t ~initial ~quorum request =
  Metrics.incr_escalation ();
  Obs.Span.force ();
  Obs.Span.with_phase "escalate" (fun () ->
      rpc t ~quorum (remaining_servers t initial) request)

(* A quorum round: ask the [k] servers of [server_set]; if fewer than
   [k] replies [count], escalate. Returns both rounds' replies. *)
let quorum_round t ~phase ~k ~count request =
  let initial = server_set t k in
  let replies =
    Obs.Span.with_phase phase (fun () -> rpc t ~quorum:k initial request)
  in
  let got = count replies in
  if got >= k then replies
  else replies @ escalate t ~initial ~quorum:(k - got) request

let acks replies =
  List.length (List.filter (fun (_, r) -> r = Payload.Ack) replies)

(* A logical timestamp: strictly increasing per client, loosely tracking
   the runtime clock (the paper's "current clock value"). *)
let next_time t =
  let now_us = int_of_float (Sim.Runtime.now () *. 1e6) in
  let jitter =
    if t.cfg.timestamp_jitter <= 1 then 1
    else 1 + Sim.Srng.int_below t.rng t.cfg.timestamp_jitter
  in
  let time = max (t.last_time + jitter) now_us in
  t.last_time <- time;
  time

let ensure_connected t k = if t.connected then k () else Error Disconnected

(* ---------------- History tap (consistency oracle) -------------------- *)

(* One ref read when no recorder is installed; with one, each emission
   snapshots the context so the oracle can replay what the client knew
   at every operation boundary. *)
let trace t ~op ~phase ?outcome kind =
  if Trace.enabled () then
    Trace.record ~op ~time:(Sim.Runtime.now ()) ~client:t.uid
      ~session:t.session
      ~multi_writer:(t.cfg.mode = Multi_writer)
      ~causal:(t.cfg.consistency = CC)
      ~epoch:(epoch_version t) ~trace:t.cur_trace_hex ~phase ?outcome ~kind
      ~ctx:(Context.bindings t.ctx) ()

let trace_op () = if Trace.enabled () then Trace.new_op () else 0

(* ---------------- Distributed trace context --------------------------- *)

(* Mint one 128-bit trace id per top-level operation, but only when
   someone is listening (spans on or the oracle recording) — otherwise
   the disabled path stays allocation-free. [Obs.Span.set_trace] is
   first-writer-wins, so when an enclosing span already carries a trace
   (a benchmark transaction spanning several ops, say) the op joins it
   instead of minting; [current_ctx] returns that trace and the history
   tap records the same id the wire carries. Head sampling retains
   1-in-N traces; an active oracle recording forces retention of every
   trace so a violation report always resolves in the flight recorder. *)
let begin_trace t =
  if Obs.Span.enabled () || Trace.enabled () then begin
    match Obs.Span.current_ctx () with
    | Some (c : Obs.Span.ctx) ->
      t.cur_trace <- c.trace;
      t.cur_trace_hex <- Obs.Jsonx.to_hex c.trace
    | None ->
      let b = Bytes.create Obs.Span.trace_bytes in
      Bytes.set_int64_be b 0 (Sim.Srng.int64 t.trace_rng);
      Bytes.set_int64_be b 8 (Sim.Srng.int64 t.trace_rng);
      let id = Bytes.to_string b in
      let flags =
        (if Sim.Srng.int_below t.trace_rng (Obs.Span.sample_interval_now ()) = 0
         then Obs.Span.flag_sampled
         else 0)
        lor if Trace.enabled () then Obs.Span.flag_forced else 0
      in
      t.cur_trace <- id;
      t.cur_trace_hex <- Obs.Jsonx.to_hex id;
      Obs.Span.set_trace ~flags id
  end

let outcome_of_result ok = function
  | Ok v -> ok v
  | Error e -> Trace.Failed (error_to_string e)

(* Deadline-aware backoff between try-later rounds. [attempt] counts
   completed rounds; the delay doubles from [retry_delay] up to
   [retry_backoff_max] with full jitter in [d/2, d]. Returns [false]
   when the sleep would overrun the operation deadline — the caller
   gives up immediately rather than sleeping past it. With the default
   config ([retry_backoff_max = retry_delay], infinite deadline) this is
   exactly the old fixed-delay sleep and draws nothing from the rng, so
   existing deterministic runs replay unchanged. *)
let backoff_sleep t ~start ~attempt =
  let base = t.cfg.retry_delay in
  let cap = t.cfg.retry_backoff_max in
  let d =
    if cap <= base then base
    else begin
      let d = min cap (base *. (2. ** float_of_int attempt)) in
      let u = float_of_int (Sim.Srng.int_below t.rng 1024) /. 1024. in
      (d /. 2.) +. (d /. 2. *. u)
    end
  in
  if Sim.Runtime.now () +. d > start +. t.cfg.op_deadline then false
  else begin
    Metrics.incr_retry ();
    Obs.Span.force ();
    Obs.Span.with_phase "backoff" (fun () -> Sim.Runtime.sleep d);
    true
  end

(* ---------------- Context operations (Fig. 1) ------------------------- *)

(* The freshest record that verifies, and how many replies carried it
   byte for byte. A [Ctx_same] reply vouches for [known], the record
   the caller already holds (it loaded or stored it before), so that
   candidate needs no verification. *)
let best_valid_context t ~known replies =
  let same = List.length (List.filter (fun (_, r) -> r = Payload.Ctx_same) replies) in
  let full =
    List.filter_map
      (function
        | from, Payload.Ctx_reply (Some record) -> Some (Some from, record)
        | _ -> None)
      replies
  in
  let vouched =
    match known with Some k when same > 0 -> [ (None, k) ] | _ -> []
  in
  let sorted =
    List.stable_sort
      (fun (_, (a : Payload.ctx_record)) (_, b) -> compare b.seq a.seq)
      (vouched @ full)
  in
  (* Verify in freshness order; the first valid record is the answer, so
     the best case costs exactly one verification (section 6). *)
  let best =
    Obs.Span.with_phase "verify" @@ fun () ->
    List.find_map
      (fun (from, record) ->
        match from with
        | None -> Some record
        | Some from ->
          if Signing.verify_context t.keyring ~client:t.uid ~group:t.group record
          then Some record
          else begin
            report_proof t ~server:from Fault_evidence.Forged_context;
            None
          end)
      sorted
  in
  Option.map
    (fun record ->
      let digest = Payload.ctx_record_digest record in
      let identical (_, r) = String.equal (Payload.ctx_record_digest r) digest in
      let vouched_copies = if List.exists identical vouched then same else 0 in
      (record, vouched_copies + List.length (List.filter identical full)))
    best

let ctx_read t ~known =
  Obs.Span.with_op "ctx_read" @@ fun () ->
  let at_epoch = epoch_version t in
  let q = context_quorum t in
  let request =
    match known with
    | Some k ->
      Payload.Ctx_check
        { client = t.uid; group = t.group; known = Payload.ctx_record_digest k }
    | None -> Payload.Ctx_read { client = t.uid; group = t.group }
  in
  let replies =
    quorum_round t ~phase:"ctx_poll" ~k:q ~count:List.length request
  in
  if List.length replies < q then
    Error (No_quorum { wanted = q; got = List.length replies })
  else
    Ok
      (Option.map
         (fun (record, copies) -> { record; copies; at_epoch })
         (best_valid_context t ~known replies))

(* A write-back adds nothing when a quorum already holds this session's
   context: connect loaded it from at least [context_quorum]
   byte-identical copies, nothing has changed it since, and the
   membership those copies were counted in is still current. The
   quorum-intersection argument of a write-back (at least
   [context_quorum - b] honest holders) then already holds for it. *)
let quorum_holds_context t =
  match t.held with
  | None -> false
  | Some h ->
    h.at_epoch = epoch_version t
    && h.record.seq = t.ctx_seq
    && Context.equal h.record.ctx t.ctx
    && h.copies >= context_quorum t

(* A context write-back in two halves, so a {!Router} can sign many
   sessions' bodies at once: [ctx_prepare] bumps the session counter and
   builds the body to sign; [ctx_store] stores the signed records. *)
type ctx_prepared = { pseq : int; pctx : Context.t; body : string }

let ctx_prepare t =
  t.ctx_seq <- t.ctx_seq + 1;
  {
    pseq = t.ctx_seq;
    pctx = t.ctx;
    body = Payload.ctx_body ~client:t.uid ~group:t.group ~seq:t.ctx_seq t.ctx;
  }

(* A signed record on its way to the context store, with the servers
   that stored it so far. *)
type write_back = { session : t; record : Payload.ctx_record; mutable acks : int }

(* One round for the write-backs of sessions that share a membership
   (one shard, one epoch): a single [Ctx_write] carries every record to
   [context_quorum] servers of the lead session's [server_set], acks are
   counted per record, and only the records still short of their quorum
   escalate to the remaining servers. *)
let ctx_store_round writes =
  Obs.Span.with_op "ctx_store" @@ fun () ->
  let lead = (List.hd writes).session in
  let is_short w = w.acks < context_quorum w.session in
  let request writes =
    Payload.Ctx_write
      {
        client = lead.uid;
        records = List.map (fun w -> (w.session.group, w.record)) writes;
      }
  in
  (* A reply counts for a record only when its verdict list lines up
     with the request's records. A lead that learns a newer epoch
     carries the others along, so every quorum is counted in it. *)
  let tally writes replies =
    List.iter
      (function
        | _, Payload.Ctx_written verdicts when List.compare_lengths verdicts writes = 0
          ->
          List.iter2
            (fun w v -> if v = Payload.Stored then w.acks <- w.acks + 1)
            writes verdicts
        | _ -> ())
      replies;
    Option.iter
      (fun e -> List.iter (fun w -> try_adopt_epoch w.session e) writes)
      lead.epoch
  in
  let k = List.fold_left (fun acc w -> max acc (context_quorum w.session)) 0 writes in
  let initial = server_set lead k in
  tally writes
    (Obs.Span.with_phase "ctx_write" (fun () -> rpc lead ~quorum:k initial (request writes)));
  (match List.filter is_short writes with
  | [] -> ()
  | short ->
    let missing =
      List.fold_left (fun acc w -> max acc (context_quorum w.session - w.acks)) 0 short
    in
    tally short (escalate lead ~initial ~quorum:missing (request short)));
  List.iter
    (fun w ->
      if not (is_short w) then
        w.session.held <-
          Some { record = w.record; copies = w.acks; at_epoch = epoch_version w.session })
    writes

(* Store every record, one round per membership: a {!Router} close
   sends one request per shard, not one per session. *)
let rec ctx_store = function
  | [] -> ()
  | first :: _ as writes ->
    let membership w =
      let t = w.session in
      (t.uid, t.cfg.token, epoch_version t, active_servers t)
    in
    let mine, rest =
      List.partition (fun w -> membership w = membership first) writes
    in
    ctx_store_round mine;
    ctx_store rest

(* ---------------- Dissemination and evidence escalation ---------------- *)

let write_fanout t =
  match t.cfg.mode with
  | Single_writer -> Quorums.write_set ~b:(effective_b t)
  | Multi_writer -> Quorums.mw_write_set ~b:(effective_b t)

(* Push one evidence-carrying write to a write quorum. One round =
   preferred fanout plus escalation to the remaining servers. Retrying
   re-sends the *same* write — servers treat a duplicate stamp
   idempotently, so a retry after a lost ack cannot double-apply. *)
let disseminate t (w : Payload.write) =
  let fanout = write_fanout t in
  let request = Payload.Write_req w in
  let start = Sim.Runtime.now () in
  let rec go ~retries ~tried =
    let got =
      acks (quorum_round t ~phase:"write_quorum" ~k:fanout ~count:acks request)
    in
    if got >= fanout then Ok ()
    else if retries > 0 && backoff_sleep t ~start ~attempt:tried then
      go ~retries:(retries - 1) ~tried:(tried + 1)
    else if got = 0 then Error Write_rejected
    else Error (No_quorum { wanted = fanout; got })
  in
  go ~retries:t.cfg.write_retries ~tried:0

(* Escalate every pending Mac_fast write to third-party-verifiable Batch
   evidence: sign one Merkle root over the pending bodies, then offer
   every server the evidence swap. A server that never saw the MAC write
   (missed the write quorum, or trimmed its hold slot) answers [Denied]
   and gets the full signed write instead — escalation doubles as
   anti-entropy for the fast path. Best-effort by design: the writes
   already reached a write quorum under MAC evidence, so an upgrade
   failure at some server delays gossip of that write, never safety. *)
let flush_escalations t =
  match t.unescalated with
  | [] -> ()
  | pending ->
    t.unescalated <- [];
    let writes = List.rev pending in
    Obs.Span.with_op "escalate_evidence" @@ fun () ->
    List.iter
      (fun (w : Payload.write) ->
        let request =
          Payload.Evidence_upgrade
            {
              uid = w.uid;
              stamp = w.stamp;
              writer = w.writer;
              evidence = w.evidence;
            }
        in
        let dsts = server_universe t in
        let replies =
          Obs.Span.with_phase "upgrade" (fun () ->
              rpc t ~quorum:(List.length dsts) dsts request)
        in
        List.iter
          (fun (from, resp) ->
            match resp with
            | Payload.Denied _ ->
              ignore (rpc t ~quorum:1 [ from ] (Payload.Write_req w))
            | _ -> ())
          replies)
      (Signbatch.sign_writes ~key:t.key writes)

(* ---------------- Reads ------------------------------------------------ *)

(* The one read round, for both data classes. The first server of the
   set ships its current write; every polled server lists its stamps,
   and each list makes a claim: its newest stamp at or above the floor
   (single writer, Fig. 2), or the target, the newest stamp b+1 servers
   list (multi-writer, section 5.3: a stamp carries its value's digest).
   Claims are tried freshest first, and at equal stamps the shipped
   write comes before a fetch (Fig. 2's second step). So a read whose
   shipper holds the value to return costs one round, what a write
   costs (section 6's best case). A served write that fails [accept] is
   evidence against its server: an honest server stores only writes
   that verify, and answers a fetch with exactly the stamp asked for. *)
let read_round t ~uid ~floor ~set_size =
  let dsts = server_set t set_size in
  let polled =
    List.filter_map
      (function
        | from, Payload.Read_reply { stamps; writer_faulty; write } ->
          Some (from, stamps, writer_faulty, write)
        | _ -> None)
      (Obs.Span.with_phase "meta_poll" (fun () ->
           rpc_scatter t ~quorum:set_size
             (List.mapi
                (fun i dst -> (dst, Payload.Read_query { uid; ship = i = 0 }))
                dsts)))
  in
  let newest =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some a when Stamp.compare a s >= 0 -> acc
        | _ -> if Stamp.compare s floor >= 0 then Some s else acc)
      None
  in
  let pick ~claim ~accept =
    (* the shipped write counts when its own stamp would be claimed *)
    let shipped =
      List.find_map
        (fun (from, _, _, write) ->
          match (write, dsts) with
          | Some (w : Payload.write), shipper :: _
            when from = shipper
                 && Option.equal Stamp.equal (claim [ w.stamp ]) (Some w.stamp) ->
            Some (w.stamp, from, write)
          | _ -> None)
        polled
    in
    let claims =
      List.filter_map
        (fun (from, stamps, _, _) ->
          match (claim stamps, shipped) with
          | Some s, Some (at, shipper, _) when from = shipper && Stamp.equal s at -> None
          | Some s, _ -> Some (s, from, None)
          | None, _ -> None)
        polled
    in
    let try_claim (s, from, write) =
      let served =
        match write with
        | Some _ -> write
        | None -> (
          match
            Obs.Span.with_phase "value_fetch" (fun () ->
                rpc t ~quorum:1 [ from ] (Payload.Value_read { uid; stamp = s }))
          with
          | (_, Payload.Value_reply w) :: _ -> w
          | _ -> None)
      in
      match served with
      | Some w
        when Uid.equal w.Payload.uid uid
             && Stamp.compare w.Payload.stamp s >= 0
             && accept w ->
        served
      | Some w ->
        if not (Signing.check_write_quiet t.keyring w) then
          report_proof t ~server:from (classify_bad_write w)
        else if Stamp.compare w.Payload.stamp s < 0 then
          report_proof t ~server:from Fault_evidence.Stamp_regression;
        None
      | None -> None
    in
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Stamp.compare b a)
      (Option.to_list shipped @ claims)
    |> List.find_map try_claim
    |> Option.fold ~none:`Missing ~some:(fun w -> `Found w)
  in
  match t.cfg.mode with
  | Single_writer ->
    pick ~claim:newest ~accept:(fun w ->
        Obs.Span.with_phase "verify" (fun () -> Signing.verify_write t.keyring w))
  | Multi_writer -> (
    let vouch = Quorums.mw_vouch ~b:(effective_b t) in
    let count keep = List.length (List.filter keep polled) in
    let vouched s = count (fun (_, stamps, _, _) -> List.exists (Stamp.equal s) stamps) in
    let listed = List.concat_map (fun (_, stamps, _, _) -> stamps) polled in
    if count (fun (_, _, faulty, _) -> faulty) >= vouch then `Writer_faulty
    else
      match newest (List.filter (fun s -> vouched s >= vouch) listed) with
      | None -> `Missing
      | Some target ->
        pick
          ~claim:(fun stamps ->
            if List.exists (Stamp.equal target) stamps then Some target else None)
          ~accept:(fun w ->
            Stamp.equal w.stamp target
            && begin
                 Metrics.incr_digest ();
                 Stamp.matches_value w.stamp w.value
               end))

let apply_read_to_context t (w : Payload.write) =
  (match (t.cfg.consistency, w.wctx) with
  | CC, Some wctx -> t.ctx <- Context.merge t.ctx wctx
  | CC, None | MRC, _ -> ());
  t.ctx <- Context.observe t.ctx w.uid w.stamp

(* ---------------- Dispersed reads -------------------------------------- *)

(* Pull [k] digest-authentic fragments with ranged [Frag_get]s, [k]
   streams in flight at a time. Server [i] holds fragment [i+1]. A
   holder that stalls, misreports the fragment length, or fails the
   whole-fragment digest check is struck and a fresh holder takes over
   its index; the round budget bounds the loop against a Byzantine
   trickle that feeds one authentic byte per round. *)
let gather_fragments t ~uid ~stamp (meta : Payload.dispersal_meta) =
  let fl = Dispersal.frag_length meta in
  let chunk = max 1 t.cfg.dispersal_chunk in
  let holders =
    Array.of_list
      (List.filter
         (fun id -> id >= 0 && id + 1 <= meta.Payload.m)
         (server_universe t))
  in
  let h = Array.length holders in
  let digests = Array.of_list meta.Payload.digests in
  let bufs = Array.map (fun _ -> Buffer.create 1024) holders in
  let state = Array.make h `Fresh in
  let count want =
    Array.fold_left (fun a s -> if s = want then a + 1 else a) 0 state
  in
  let budget = ref (((((fl + chunk - 1) / chunk) + 2) * (h + 1)) + 4) in
  let rec go () =
    let finished = count `Done in
    if finished >= meta.Payload.k then
      Ok
        (List.filter_map
           (fun i ->
             if state.(i) = `Done then
               Some (holders.(i) + 1, Buffer.contents bufs.(i))
             else None)
           (List.init h Fun.id))
    else begin
      let want = meta.Payload.k - finished in
      let active = ref (count `Active) in
      Array.iteri
        (fun i s ->
          if s = `Fresh && !active < want then begin
            state.(i) <- `Active;
            incr active
          end)
        state;
      if !active = 0 || !budget <= 0 then
        Error (Not_enough_fragments { uid; needed = meta.Payload.k; got = finished })
      else begin
        decr budget;
        let parts =
          List.filter_map
            (fun i ->
              if state.(i) <> `Active then None
              else
                let off = Buffer.length bufs.(i) in
                Some
                  ( holders.(i),
                    Payload.Frag_get
                      {
                        uid;
                        stamp;
                        index = holders.(i) + 1;
                        off;
                        len = min chunk (max 0 (fl - off));
                      } ))
            (List.init h Fun.id)
        in
        let replies =
          Obs.Span.with_phase "frag_gather" (fun () ->
              rpc_scatter t ~quorum:(List.length parts) parts)
        in
        Array.iteri
          (fun i s ->
            if s = `Active then begin
              let reply =
                List.find_map
                  (fun (from, resp) ->
                    if from = holders.(i) then Some resp else None)
                  replies
              in
              match reply with
              | Some (Payload.Frag_reply (Some c))
                when c.Payload.total = fl && String.length c.Payload.data > 0
                ->
                Buffer.add_string bufs.(i) c.Payload.data;
                if Buffer.length bufs.(i) > fl then state.(i) <- `Dead
                else if Buffer.length bufs.(i) = fl then begin
                  Metrics.incr_digest ();
                  if
                    String.equal
                      (Crypto.Sha256.digest (Buffer.contents bufs.(i)))
                      digests.(holders.(i))
                  then state.(i) <- `Done
                  else state.(i) <- `Dead
                end
              | _ -> state.(i) <- `Dead
            end)
          state;
        go ()
      end
    end
  in
  if fl = 0 then Ok [] else go ()

(* Turn a metadata write into the caller-visible value: replicated
   writes carry it inline; dispersed writes gather and decode. The
   metadata's signature covers the descriptor, so its digests speak with
   the writer's authority — fragments need no signatures of their own. *)
let resolve_value t (w : Payload.write) =
  match w.Payload.frags with
  | None -> Ok w.Payload.value
  | Some meta ->
    if
      not
        (Dispersal.meta_ok meta
        && String.equal (Dispersal.meta_root meta) w.Payload.value)
    then
      Error
        (Not_enough_fragments
           { uid = w.Payload.uid; needed = meta.Payload.k; got = 0 })
    else begin
      match gather_fragments t ~uid:w.Payload.uid ~stamp:w.Payload.stamp meta with
      | Error _ as e -> e
      | Ok pieces -> (
        match
          Obs.Span.with_phase "decode" (fun () ->
              Dispersal.decode_fragments meta pieces)
        with
        | Some value ->
          Metrics.incr_dispersed_read ();
          Ok value
        | None ->
          Error
            (Not_enough_fragments
               {
                 uid = w.Payload.uid;
                 needed = meta.Payload.k;
                 got = List.length pieces;
               }))
    end

let read_write_resolved t ~item =
  ensure_connected t @@ fun () ->
  (* Read-your-writes under Mac_fast: a MAC-held write is invisible to
     readers (including this one) until escalated, so flush before the
     context floor can demand a stamp no server will serve. *)
  if t.unescalated <> [] then flush_escalations t;
  Obs.Span.with_op "read" @@ fun () ->
  begin_trace t;
  t.opstats.reads <- t.opstats.reads + 1;
  let uid = Uid.make ~group:t.group ~item in
  let opid = trace_op () in
  trace t ~op:opid ~phase:Trace.Invoke (Trace.Read { uid });
  (* The canary deliberately skips the context-freshness floor — the
     broken client the consistency oracle must catch (never enable it
     outside oracle tests). *)
  let floor =
    if t.cfg.canary_skip_freshness then Stamp.zero else Context.find t.ctx uid
  in
  let base_set =
    match t.cfg.mode with
    | Single_writer -> Quorums.read_set ~b:(effective_b t)
    | Multi_writer -> Quorums.mw_read_quorum ~b:(effective_b t)
  in
  let round set_size =
    t.opstats.read_rounds <- t.opstats.read_rounds + 1;
    read_round t ~uid ~floor ~set_size
  in
  (* Fig. 2's escape hatch: contact additional servers, then try later
     (with capped backoff, while the operation deadline allows). *)
  let start = Sim.Runtime.now () in
  let rec attempt ~retries ~tried ~set_size =
    match round set_size with
    | `Found w ->
      apply_read_to_context t w;
      Ok w
    | `Writer_faulty -> Error (Writer_faulty uid)
    | `Missing ->
      if set_size < active_n t then begin
        Metrics.incr_escalation ();
        Obs.Span.force ();
        attempt ~retries ~tried ~set_size:(active_n t)
      end
      else if retries > 0 && backoff_sleep t ~start ~attempt:tried then
        attempt ~retries:(retries - 1) ~tried:(tried + 1) ~set_size:(active_n t)
      else if Stamp.equal floor Stamp.zero then Error (Not_found uid)
      else Error (Stale { uid; wanted = floor })
  in
  (* Dispersed items: the quorum handed back metadata; the value still
     has to be gathered and decoded. The trace outcome digests the
     reconstructed bytes, so the consistency oracle checks what callers
     actually saw, coded path included. *)
  let result =
    match attempt ~retries:t.cfg.read_retries ~tried:0 ~set_size:base_set with
    | Error _ as e -> e
    | Ok w -> Result.map (fun value -> (w, value)) (resolve_value t w)
  in
  if Result.is_error result then
    t.opstats.read_failures <- t.opstats.read_failures + 1;
  (* Guarded: the outcome digests the whole value, which costs more than
     the rest of a large read when nobody records the history. *)
  if Trace.enabled () then
    trace t ~op:opid ~phase:Trace.Return
      ~outcome:
        (outcome_of_result
           (fun ((w : Payload.write), value) ->
             Trace.Ok_value
               {
                 stamp = w.stamp;
                 digest = Crypto.Sha256.hex_digest value;
                 writer = w.writer;
               })
           result)
      (Trace.Read { uid });
  result

let read t ~item = Result.map snd (read_write_resolved t ~item)

(* ---------------- Writes ----------------------------------------------- *)

let make_stamp t ~value =
  match t.cfg.mode with
  | Single_writer -> Stamp.scalar (next_time t)
  | Multi_writer ->
    Metrics.incr_digest ();
    Stamp.multi ~time:(next_time t) ~writer:t.uid ~value

(* One write, whatever produced its evidence (Fig. 2). [produce uid]
   returns the write's stamp and [commit], the step that lands the
   write. [commit] gets the context to sign: under CC the session's
   context with this write's own entry bumped, under MRC none. Only a
   write that lands enters the session's context (CC sets the entry,
   MRC observes it), so a refused write leaves the context as it was.
   The history digests [value], what the caller wrote, not a coding
   artifact. *)
let write_op t ~item ~value produce =
  Obs.Span.with_op "write" @@ fun () ->
  begin_trace t;
  t.opstats.writes <- t.opstats.writes + 1;
  let uid = Uid.make ~group:t.group ~item in
  let stamp, commit = produce uid in
  let opid = trace_op () in
  let kind () =
    Trace.Write { uid; stamp; digest = Crypto.Sha256.hex_digest value }
  in
  if Trace.enabled () then trace t ~op:opid ~phase:Trace.Invoke (kind ());
  let wctx =
    match t.cfg.consistency with
    | CC -> Some (Context.set t.ctx uid stamp)
    | MRC -> None
  in
  let result = commit wctx in
  if Result.is_ok result then
    t.ctx <-
      (match t.cfg.consistency with
      | CC -> Context.set t.ctx uid stamp
      | MRC -> Context.observe t.ctx uid stamp);
  if Trace.enabled () then
    trace t ~op:opid ~phase:Trace.Return
      ~outcome:(outcome_of_result (fun () -> Trace.Ok_unit) result)
      (kind ());
  result

(* ---------------- Dispersed writes ------------------------------------- *)

(* Fragments needed to reconstruct: [b + 1], the smallest k that still
   tolerates [b] Byzantine holders. *)
let coded_k t = effective_b t + 1

(* Dispersal applies when the value clears the size threshold and the
   current membership can host it: server ids name fragment indices
   (server [i] holds fragment [i+1]), so every id must fit a descriptor,
   and write liveness needs [k + b] complete streams among the members. *)
let should_disperse t value =
  t.cfg.dispersal_threshold > 0
  && String.length value >= t.cfg.dispersal_threshold
  &&
  let servers = active_servers t in
  let k = coded_k t in
  servers <> []
  && List.for_all (fun id -> id >= 0 && id < 255) servers
  && k >= 1
  && k + effective_b t <= List.length servers

(* Scatter the fragments as chunked [Frag_put] streams — one scatter
   round per chunk offset, every surviving stream advancing in step, so
   no more than one chunk per destination is ever in flight. A server
   that misses a round is dropped (its stream is broken anyway); the
   write proceeds while at least [k + b] streams survive, which
   guarantees [k] fragments land on honest servers. *)
let scatter_fragments t ~uid ~stamp (meta : Payload.dispersal_meta) fragments =
  let fl = Dispersal.frag_length meta in
  let chunk = max 1 t.cfg.dispersal_chunk in
  let rounds = max 1 ((fl + chunk - 1) / chunk) in
  let need = meta.Payload.k + effective_b t in
  let active =
    ref
      (List.filter
         (fun id -> id >= 0 && id + 1 <= meta.Payload.m)
         (active_servers t))
  in
  let rec go r =
    if List.length !active < need then
      Error (No_quorum { wanted = need; got = List.length !active })
    else if r >= rounds then Ok ()
    else begin
      let off = r * chunk in
      let len = max 0 (min chunk (fl - off)) in
      let parts =
        List.map
          (fun id ->
            ( id,
              Payload.Frag_put
                {
                  uid;
                  stamp;
                  writer = t.uid;
                  index = id + 1;
                  seq = r;
                  last = r = rounds - 1;
                  data = String.sub fragments.(id) off len;
                } ))
          !active
      in
      let replies =
        Obs.Span.with_phase "frag_scatter" (fun () ->
            rpc_scatter t ~quorum:(List.length parts) parts)
      in
      active :=
        List.filter
          (fun id ->
            List.exists
              (fun (from, resp) -> from = id && resp = Payload.Ack)
              replies)
          !active;
      go (r + 1)
    end
  in
  go 0

(* The two-protocol bulk write: scatter the coded fragments first, then
   run the unchanged metadata quorum protocol over a small write whose
   value is the descriptor's digest root. Orphaned fragments (crash
   between the phases, or a lost metadata quorum) are invisible and
   bounded on the servers — the metadata quorum is the sole commit
   point, so atomicity under crash needs no cleanup protocol. Dispersed
   writes always carry a per-write signature: the descriptor rides
   inside the signed body, which the MAC fast path does not thread
   through. *)
let write_dispersed t ~item value =
  write_op t ~item ~value @@ fun uid ->
  let m = 1 + List.fold_left max 0 (active_servers t) in
  let meta, fragments =
    Obs.Span.with_phase "encode" (fun () ->
        Dispersal.plan ~k:(coded_k t) ~n:m value)
  in
  let root = Dispersal.meta_root meta in
  let stamp = make_stamp t ~value:root in
  let commit wctx =
    let result =
      match scatter_fragments t ~uid ~stamp meta fragments with
      | Error _ as e -> e
      | Ok () ->
        disseminate t
          (Obs.Span.with_phase "sign" (fun () ->
               Signing.sign_write ~key:t.key ~writer:t.uid ~uid ~stamp ?wctx
                 ~frags:meta root))
    in
    if Result.is_ok result then Metrics.incr_dispersed_write ();
    result
  in
  (stamp, commit)

let write_replicated t ~item value =
  write_op t ~item ~value @@ fun uid ->
  let stamp = make_stamp t ~value in
  let commit wctx =
    let mac =
      if t.cfg.signing <> Mac_fast then None
      else
        Obs.Span.with_phase "mac" (fun () ->
            Signing.mac_write t.keyring ~writer:t.uid ~uid ~stamp ?wctx
              ~servers:(active_servers t) value)
    in
    let w =
      match mac with
      | Some w -> w
      | None ->
        (* Under Mac_fast, missing pairwise keys: fall back to the
           signature rather than send a write some addressed server
           could never verify. *)
        Obs.Span.with_phase "sign" (fun () ->
            Signing.sign_write ~key:t.key ~writer:t.uid ~uid ~stamp ?wctx value)
    in
    let result = disseminate t w in
    (match (result, w.evidence) with
    | Ok (), Payload.Mac _ ->
      t.unescalated <- w :: t.unescalated;
      if List.length t.unescalated >= max 1 t.cfg.escalate_every then
        flush_escalations t
    | _ -> ());
    result
  in
  (stamp, commit)

let write t ~item value =
  ensure_connected t @@ fun () ->
  if should_disperse t value then write_dispersed t ~item value
  else write_replicated t ~item value

let flush t =
  ensure_connected t @@ fun () ->
  flush_escalations t;
  Ok ()

(* ---------------- Context reconstruction ------------------------------ *)

(* Read every item's signed current write from every server; keep, per
   item, the freshest stamp whose signature checks out. *)
let reconstruct_context t =
  Obs.Span.with_op "reconstruct" @@ fun () ->
  let request = Payload.Group_query { group = t.group } in
  let replies =
    Obs.Span.with_phase "group_query" (fun () ->
        rpc t ~quorum:(active_n t) (active_servers t) request)
  in
  let per_item : (string, Payload.write list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, resp) ->
      match resp with
      | Payload.Group_reply writes ->
        List.iter
          (fun (w : Payload.write) ->
            let key = Uid.to_string w.uid in
            match Hashtbl.find_opt per_item key with
            | Some cell -> cell := w :: !cell
            | None -> Hashtbl.add per_item key (ref [ w ]))
          writes
      | _ -> ())
    replies;
  let ctx = ref Context.empty in
  Obs.Span.with_phase "verify" (fun () ->
      Hashtbl.iter
        (fun _ cell ->
          let ordered =
            List.sort
              (fun (a : Payload.write) b -> Stamp.compare b.stamp a.stamp)
              !cell
          in
          match
            List.find_opt (fun w -> Signing.verify_write t.keyring w) ordered
          with
          | Some w -> ctx := Context.observe !ctx w.Payload.uid w.Payload.stamp
          | None -> ())
        per_item);
  t.ctx <- Context.merge t.ctx !ctx

let reconstruct t =
  ensure_connected t @@ fun () ->
  if t.unescalated <> [] then flush_escalations t;
  Obs.Span.with_op "reconstruct" @@ fun () ->
  begin_trace t;
  let opid = trace_op () in
  trace t ~op:opid ~phase:Trace.Invoke Trace.Reconstruct;
  reconstruct_context t;
  trace t ~op:opid ~phase:Trace.Return ~outcome:Trace.Ok_unit Trace.Reconstruct;
  Ok ()

(* ---------------- Session lifecycle ----------------------------------- *)

let connect ?(recover = `Fresh) ?known ~config:cfg ~uid ~key ~keyring ~group () =
  (match Quorums.validate ~n:cfg.n ~b:cfg.b with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Client.connect: " ^ msg));
  if List.length cfg.servers <> cfg.n then
    invalid_arg "Client.connect: servers list must have length n";
  let t =
    {
      uid;
      key;
      keyring;
      group;
      cfg;
      rng = Sim.Srng.create (cfg.seed + Hashtbl.hash (uid, group));
      trace_rng = Sim.Srng.create (cfg.seed + Hashtbl.hash ("trace", uid, group));
      session = Trace.new_session ();
      cur_trace = "";
      cur_trace_hex = "";
      ctx = Context.empty;
      ctx_seq = 0;
      held = None;
      last_time = 0;
      connected = true;
      unescalated = [];
      epoch = None;
      opstats =
        { messages = 0; reads = 0; writes = 0; read_rounds = 0; read_failures = 0 };
    }
  in
  Obs.Span.with_op "connect" @@ fun () ->
  begin_trace t;
  (* Epoch discovery, for dynamic-membership deployments (an admin key
     is pinned): ask the configured bootstrap servers which config epoch
     is live and adopt the newest validly signed answer. One valid reply
     suffices — the signature, not a quorum, is the authority — but
     waiting for all n would stall every connect behind a single crashed
     bootstrap server for the full timeout, so wait for n - b (always
     reachable with at most b faulty). A newer epoch missed here
     self-corrects on the first [Stale_epoch]. *)
  if cfg.epoch_admin <> None then
    Obs.Span.with_phase "epoch_discovery" (fun () ->
        let quorum = max 1 (List.length cfg.servers - cfg.b) in
        List.iter
          (fun (_, resp) ->
            match resp with
            | Payload.Epoch_reply (Some e) -> try_adopt_epoch t e
            | _ -> ())
          (rpc t ~quorum cfg.servers Payload.Epoch_get));
  let opid = trace_op () in
  trace t ~op:opid ~phase:Trace.Invoke Trace.Connect;
  let finish recovery =
    (* Timestamps must keep increasing across sessions. *)
    List.iter
      (fun (_, stamp) -> t.last_time <- max t.last_time (Stamp.time stamp))
      (Context.bindings t.ctx);
    trace t ~op:opid ~phase:Trace.Return
      ~outcome:(Trace.Connected recovery) Trace.Connect;
    Ok t
  in
  match ctx_read t ~known with
  | Error e ->
    trace t ~op:opid ~phase:Trace.Return
      ~outcome:(Trace.Failed (error_to_string e))
      Trace.Connect;
    Error e
  | Ok (Some ({ record; _ } as h)) ->
    t.ctx <- record.ctx;
    t.ctx_seq <- record.seq;
    t.held <- Some h;
    finish Trace.Stored
  | Ok None -> (
    match recover with
    | `Fresh -> finish Trace.Fresh
    | `Reconstruct ->
      reconstruct_context t;
      finish Trace.Rebuilt)

(* A session close in two halves around the signature, so a {!Router}
   can sign every session's write-back with one Merkle batch. *)
type closing = { session : t; opid : int; write_back : ctx_prepared option }

let begin_close ~skip_held t =
  begin_trace t;
  let opid = trace_op () in
  trace t ~op:opid ~phase:Trace.Invoke Trace.Disconnect;
  let write_back =
    if skip_held && quorum_holds_context t then None else Some (ctx_prepare t)
  in
  { session = t; opid; write_back }

(* Escalate before storing the context: the stored floor may name
   MAC-held stamps, and a future session must be able to read them. *)
let prepare_close t =
  ensure_connected t @@ fun () ->
  if t.unescalated <> [] then flush_escalations t;
  Ok (begin_close ~skip_held:true t)

let close_body c = Option.map (fun p -> p.body) c.write_back

let finish_close closes =
  let writes =
    List.map
      (fun (c, evidence) ->
        match (c.write_back, evidence) with
        | None, None -> None
        | Some p, Some evidence ->
          let record = { Payload.seq = p.pseq; ctx = p.pctx; evidence } in
          Some { session = c.session; record; acks = 0 }
        | None, Some _ | Some _, None ->
          invalid_arg "Client.finish_close: evidence must match close_body")
      closes
  in
  ctx_store (List.filter_map Fun.id writes);
  List.map2
    (fun (c, _) w ->
      let t = c.session in
      let result =
        match w with
        | Some w when w.acks < context_quorum t ->
          Error (No_quorum { wanted = context_quorum t; got = w.acks })
        | Some _ | None -> Ok ()
      in
      (match result with Ok () -> t.connected <- false | Error _ -> ());
      trace t ~op:c.opid ~phase:Trace.Return
        ~outcome:(outcome_of_result (fun () -> Trace.Ok_unit) result)
        Trace.Disconnect;
      result)
    closes writes

let disconnect t =
  ensure_connected t @@ fun () ->
  if t.unescalated <> [] then flush_escalations t;
  Obs.Span.with_op "disconnect" @@ fun () ->
  let c = begin_close ~skip_held:false t in
  let evidence =
    Option.map
      (fun body -> List.hd (Signbatch.sign_contexts ~key:t.key [ body ]))
      (close_body c)
  in
  List.hd (finish_close [ (c, evidence) ])
