type gossip = { peers : (string * int) list; period : float }

type shard_spec = {
  shard : int;
  server : Store.Server.t;
  behavior : Store.Faults.behavior;
  peers : (string * int) list;
}

(* One hosted shard: its server state machine, its own lock (the whole
   point of sharded hosting — S independent locks instead of one global
   store mutex), its behaviour wrapper, and its gossip peer set. *)
type shard_state = {
  sid : int;
  sserver : Store.Server.t;
  sbehavior : Store.Faults.behavior;
  slock : Mutex.t;
  speers : (string * int) list;
  (* Most recent wire trace context seen by this shard, consumed (once)
     by the next gossip round so anti-entropy work triggered by a traced
     client op records as part of that op's distributed trace. A plain
     mutable cell: the race between a request thread writing and the
     gossip thread consuming only ever mis-attributes one round. *)
  mutable slast_trace : Frame.trace_ctx option;
}

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  mutable running : bool;
  mutable accept_th : Thread.t option;
  shards : (int, shard_state) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable conns : Unix.file_descr list; (* accepted sockets, for [stop] *)
}

let with_lock st fn =
  Mutex.lock st.slock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.slock) fn

let track_conn t fd =
  Mutex.lock t.conns_lock;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.conns_lock

let untrack_conn t fd =
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun c -> c <> fd) t.conns;
  Mutex.unlock t.conns_lock

(* Request processing is split around the lock: envelope decode and
   signature verification (the expensive RSA math, via
   {!Store.Server.preverify}'s cache warming) happen outside it, so
   concurrent connections only serialize on the actual server-state
   mutation — and only against requests for the *same shard*. [Error]
   means the request could not even be decoded.

   Dispatch goes through {!Store.Faults.handle_typed}: with the default
   [Honest] behaviour that is exactly {!Store.Server.handle}, and a
   Byzantine behaviour reuses the simulator's wrappers unchanged — a
   misbehaving host diverges only in what it says on the wire, never in
   the underlying honest state machine. Behaviour is per shard, so one
   host can be Byzantine inside one shard and honest in the others.
   Server-side request spans ride the global Span switch. *)

let span_ctx = function
  | Some (c : Frame.trace_ctx) ->
    Some { Obs.Span.trace = c.trace; span = c.span; flags = c.flags }
  | None -> None

let process st ?ctx raw : (Store.Payload.response option, string) Result.t =
  let t0 = Unix.gettimeofday () in
  (match ctx with Some _ -> st.slast_trace <- ctx | None -> ());
  let result =
    Obs.Span.with_op ?ctx:(span_ctx ctx) "server_request" @@ fun () ->
    if Obs.Span.enabled () then
      Obs.Span.annotate
        (Printf.sprintf "server=%d shard=%d" (Store.Server.id st.sserver) st.sid);
    match
      Obs.Span.with_phase "decode" (fun () -> Store.Payload.decode_envelope raw)
    with
    | None -> Error "malformed envelope"
    | Some env ->
      Obs.Span.with_phase "verify" (fun () -> Store.Server.preverify st.sserver env);
      Ok
        (Obs.Span.with_phase "apply" (fun () ->
             with_lock st (fun () ->
                 Store.Faults.handle_typed st.sbehavior st.sserver
                   ~now:(Unix.gettimeofday ()) ~from:(-1) env)))
  in
  Store.Metrics.note_shard_request ~shard:st.sid
    ((Unix.gettimeofday () -. t0) *. 1e9);
  result

let handle_connection t fd =
  Addr.set_nodelay fd;
  let rec loop () =
    match Frame.read_frame_ext fd with
    | Frame.Eof -> ()
    | Frame.Oversized len ->
      (* Answer before hanging up: the stream cannot be resynchronized
         (we refuse to consume [len] bytes), but the client learns why
         the connection is going away. Nothing was allocated. *)
      (try
         Frame.write_frame fd
           (Frame.encode_conn_error
              (Printf.sprintf "frame too large (%d > %d)" len Frame.max_frame))
       with Unix.Unix_error _ | Sys_error _ -> ())
    | Frame.Frame frame ->
      (match Frame.parse_request frame with
      | Some { Frame.id; shard; trace = ctx; payload } -> (
        match (Hashtbl.find_opt t.shards shard, id) with
        | Some st, Some id -> (
          (* The correlation id already names the request, shard
             included. A Byzantine behaviour that answers nothing is
             silent on the wire, as in the simulator: the client meets
             its deadline, not a framed "no reply". *)
          match process st ?ctx payload with
          | Ok (Some r) ->
            Frame.write_frame fd
              (Frame.encode_reply ~id (Some (Store.Payload.encode_response r)))
          | Ok None when st.sbehavior <> Store.Faults.Honest -> ()
          | Ok None -> Frame.write_frame fd (Frame.encode_reply ~id None)
          | Error msg -> Frame.write_frame fd (Frame.encode_reject ~id msg))
        | Some st, None -> ignore (process st ?ctx payload : (_, _) Result.t)
        | None, Some id ->
          (* A shard we do not host is a routing error on the client's
             side (stale table, wrong endpoint) — answered, not dropped,
             so the router can tell misrouting from a dead server. *)
          Frame.write_frame fd
            (Frame.encode_reject ~id (Printf.sprintf "shard %d not hosted" shard))
        | None, None ->
          (* A one-way for a shard we do not host is dropped, like any
             one-way failure: the sender learns nothing, and a gossip
             push lost this way is not retried. *)
          ())
      | None ->
        (* A frame we cannot even parse gets a framed error rather than
           a silent drop, so clients can tell "server rejected" from
           "connection died". Frames stay self-delimiting, so the
           stream is still in sync — keep serving. *)
        Frame.write_frame fd (Frame.encode_conn_error "malformed frame"));
      loop ()
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  untrack_conn t fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Gossip pushes ride the shared connection pool: one persistent
   connection per peer instead of a dial per push per peer, addressed to
   the peer's same-shard state. *)
let push_to_peer ~shard ~host ~port payload =
  Pool.send (Pool.shared ()) ~shard (host, port) payload

(* Writes popped off the gossip buffer are the server's only copy of
   "what my peers have not seen": if a push fails they must be requeued,
   or a write accepted while a peer was down would never reach it. The
   per-peer backlog is the only thing that recovers a failed push; there
   is no pull side. It is bounded: a long-dead peer costs at most
   [max_backlog] retained writes, oldest dropped first, and a peer that
   misses more than that stays stale on the dropped items until they are
   overwritten. *)
let max_backlog = 512

(* One gossip thread per hosted shard: shard s's writes go to shard s's
   peer replicas and nowhere else — partners are per shard, exactly like
   the locks. *)
let gossip_loop t st ~period =
  let shard = st.sid in
  let backlog : (string * int, Store.Payload.write list) Hashtbl.t =
    Hashtbl.create (List.length st.speers)
  in
  while t.running do
    Thread.delay period;
    Obs.Span.with_op "gossip_round" @@ fun () ->
    (* Adopt (and consume) the trace of the most recent traced request
       against this shard: the round's drain/push/repair become children
       of the client op that produced the work, and the pool stamps the
       same context onto outgoing pushes so peer-side spans join too. *)
    (match st.slast_trace with
    | Some c when Obs.Span.enabled () ->
      st.slast_trace <- None;
      Obs.Span.set_trace ~parent:c.span ~flags:c.flags c.trace
    | _ -> ());
    (* Pushes carry no [have] summary: a receiver counts one as
       log-erasure evidence only when the transport names the sender,
       and this host dispatches every request with [~from:(-1)]. So a
       round costs the new writes, not the shard's keyspace. *)
    let fresh, epoch =
      Obs.Span.with_phase "drain" (fun () ->
          with_lock st (fun () ->
              ( Store.Server.take_gossip_buffer st.sserver,
                Store.Server.epoch st.sserver )))
    in
    (Obs.Span.with_phase "push" @@ fun () ->
     List.iter
       (fun peer ->
         let pending =
           (match Hashtbl.find_opt backlog peer with Some w -> w | None -> [])
           @ fresh
         in
         match (pending, epoch) with
         | [], None -> ()
         | writes, _ ->
           (* In an epoch-enabled cluster, pushes fire even with
              nothing to send: the epoch rides every push, so a peer
              that missed an announcement catches up from here. *)
           let payload =
             Store.Payload.encode_envelope (Store.Gossip.push_envelope ~epoch writes)
           in
           let host, port = peer in
           if push_to_peer ~shard ~host ~port payload then begin
             (* gossip rides the same wire as client RPCs: count its
                bytes into the global tally so a co-located bench can
                report total bytes-on-wire to full dissemination *)
             Store.Metrics.add_messages 1;
             Store.Metrics.add_bytes (String.length payload);
             Hashtbl.remove backlog peer
           end
           else begin
             let writes =
               let n = List.length writes in
               if n <= max_backlog then writes
               else (* drop oldest; the tail is the newest *)
                 List.filteri (fun i _ -> i >= n - max_backlog) writes
             in
             Hashtbl.replace backlog peer writes
           end)
       st.speers);
    (* Fragment anti-entropy: rebuild any verified fragment this shard
       should hold for a current dispersed write but lost (crash before
       the metadata arrived by gossip, disk loss, ...). The worklist
       check is a cheap scan and almost always empty; when it is not,
       the repair runs under the shard lock (its final store must not
       race request handling), so the peer pulls use a short timeout to
       bound the hold. We do not know which peer endpoint carries which
       server id, so the fetch probes the peer set for the wanted index
       — misses answer with a tiny [Frag_reply None]. *)
    Obs.Span.with_phase "repair" @@ fun () ->
    let missing =
      with_lock st (fun () -> Store.Server.missing_fragments st.sserver)
    in
    if missing <> [] then begin
      let fetch ~peer:_ request =
        let payload =
          Store.Payload.encode_envelope
            { Store.Payload.token = None; epoch = 0; request }
        in
        List.find_map
          (fun endpoint ->
            match
              Pool.call (Pool.shared ()) ~timeout:1.0 ~shard endpoint payload
            with
            | Pool.Reply r -> (
              match Store.Payload.decode_response r with
              | Some (Store.Payload.Frag_reply (Some _) as resp) -> Some resp
              | _ -> None)
            | Pool.Rejected _ | Pool.No_reply | Pool.Dropped -> None)
          st.speers
      in
      List.iter
        (fun w ->
          ignore
            (with_lock st (fun () ->
                 Store.Server.repair_fragment st.sserver ~fetch w)
              : bool))
        missing
    end
  done

(* A shard with no peers has nobody to tell, so each period it discards
   the writes buffered since the last: kept, the buffer would grow with
   every accepted write, snapshots included. *)
let discard_loop t st ~period =
  while t.running do
    Thread.delay period;
    ignore (with_lock st (fun () -> Store.Server.take_gossip_buffer st.sserver))
  done

let launch ~specs ~gossip_period ~port =
  (match specs with [] -> invalid_arg "Server_host: no shards to host" | _ -> ());
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listener 64;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let states =
    List.map
      (fun spec ->
        {
          sid = spec.shard;
          sserver = spec.server;
          sbehavior = spec.behavior;
          slock = Mutex.create ();
          speers = spec.peers;
          slast_trace = None;
        })
      specs
  in
  let shards = Hashtbl.create (List.length states) in
  List.iter
    (fun st ->
      if Hashtbl.mem shards st.sid then
        invalid_arg "Server_host: duplicate shard id";
      Hashtbl.replace shards st.sid st)
    states;
  let t =
    {
      listener;
      bound_port;
      running = true;
      accept_th = None;
      shards;
      conns_lock = Mutex.create ();
      conns = [];
    }
  in
  let accept_loop () =
    while t.running do
      match Unix.accept listener with
      | fd, _ ->
        track_conn t fd;
        ignore (Thread.create (handle_connection t) fd)
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    done
  in
  t.accept_th <- Some (Thread.create accept_loop ());
  List.iter
    (fun st ->
      let loop = if st.speers = [] then discard_loop else gossip_loop in
      ignore (Thread.create (fun () -> loop t st ~period:gossip_period) ()))
    states;
  t

let start ?gossip ?(behavior = Store.Faults.Honest) ~server ~port () =
  let peers, gossip_period =
    match gossip with Some (g : gossip) -> (g.peers, g.period) | None -> ([], 1.0)
  in
  launch ~specs:[ { shard = 0; server; behavior; peers } ] ~gossip_period ~port

let start_sharded ?(gossip_period = 1.0) ~shards ~port () =
  launch ~specs:shards ~gossip_period ~port

let port t = t.bound_port
let hosted_shards t = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) t.shards [])

let snapshot t ~shard =
  match Hashtbl.find_opt t.shards shard with
  | Some st -> with_lock st (fun () -> Store.Server.snapshot st.sserver)
  | None -> invalid_arg (Printf.sprintf "Server_host.snapshot: shard %d not hosted" shard)

(* Graceful departure: stop accepting new client writes on every hosted
   shard, then synchronously push the remaining gossip backlog to the
   peers, so the departing state is replicated before the caller
   snapshots and stops. Bounded passes: gossip one-ways are fire-and-
   forget, so a dead peer must not wedge the drain. *)
let drain ?(max_passes = 10) t =
  Hashtbl.iter
    (fun _ st -> with_lock st (fun () -> Store.Server.begin_drain st.sserver))
    t.shards;
  let flush_shard st =
    let passes = ref 0 in
    let more = ref true in
    while !more && !passes < max_passes do
      incr passes;
      let writes, epoch =
        with_lock st (fun () ->
            (Store.Server.take_gossip_buffer st.sserver, Store.Server.epoch st.sserver))
      in
      match writes with
      | [] -> more := false
      | writes ->
        let payload =
          Store.Payload.encode_envelope (Store.Gossip.push_envelope ~epoch writes)
        in
        List.iter
          (fun (host, port) -> ignore (push_to_peer ~shard:st.sid ~host ~port payload))
          st.speers
    done
  in
  Hashtbl.iter (fun _ st -> if st.speers <> [] then flush_shard st) t.shards

let stop t =
  t.running <- false;
  (* [shutdown] before [close]: a thread blocked in [accept] holds a
     kernel reference that keeps the port bound even after [close], and
     on Linux [close] alone does not wake it. [shutdown] does; joining
     the accept thread then guarantees the port is free on return, so a
     caller can rebind it immediately. *)
  (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.accept_th with Some th -> Thread.join th | None -> ());
  (* Shut accepted connections down too: pooled clients hold persistent
     connections, and a stopped server must look stopped to them (their
     readers see EOF and redial on the next use). The connection thread
     owns the close. *)
  Mutex.lock t.conns_lock;
  let conns = t.conns in
  Mutex.unlock t.conns_lock;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns
