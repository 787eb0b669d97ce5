(* Pooled, pipelined RPC transport.

   One persistent connection (a few, bounded) per endpoint; requests are
   framed with a correlation id ({!Frame.encode_call}) so many can be in
   flight at once and replies may come back in any order. A dedicated
   reader thread per connection completes a pending-request table;
   callers wait on a Condition, woken either by quorum completion or by
   the pool's single timekeeper thread at their deadline (a self-pipe
   read with a receive timeout — no polling). Dead connections are detected by the reader
   (EOF) or the writer (EPIPE), their pending requests fail fast, and
   the next use redials; a dial gives up at its caller's deadline. A
   failed dial is one more RPC failure, and an endpoint that keeps
   failing is suspected: its requests fail fast until a probe the
   timekeeper sends on its own gets an answer, so no user request ever
   waits on a server that has gone silent. The pool is the one owner of
   this per-endpoint health; {!families} exposes it. *)

type result = Reply of string | Rejected of string | No_reply | Dropped

(* [t0]/[histo] are the tracing hook: when spans are enabled at submit
   time, the reader feeds [reply - t0] to the endpoint's latency
   histogram on delivery. Timing rides the pending entry itself rather
   than a wrapper closure — the hook must stay cheap on the submit
   path. *)
type pending = {
  complete : result -> unit;
  t0 : float;
  histo : Obs.Histo.t option;
}

(* [conn] and [endpoint_state] are mutually recursive: the owner link
   lets completion paths that only hold a connection (timeout reaping,
   reader death) attribute the failure to the right endpoint's health. *)
type conn = {
  fd : Unix.file_descr;
  owner : endpoint_state;
  pending : (int, pending) Hashtbl.t;
  plock : Mutex.t;  (* guards [pending], [in_flight], [alive] *)
  wlock : Mutex.t;  (* serializes frame writes *)
  mutable alive : bool;
  mutable in_flight : int;
}

and endpoint_state = {
  ep : string * int;
  ep_name : string;  (* "host:port", precomputed: hooks on the submit
                        path must not pay for formatting *)
  elock : Mutex.t;
  econd : Condition.t; (* signalled when a dial resolves either way *)
  mutable conns : conn list;
  mutable dialing : int;
  mutable ever_connected : bool;
  (* The endpoint's one failure state: RPC-level consecutive failures
     (timeouts, dead connections, failed dials) make the endpoint
     suspected, and submissions fail fast even though live connections
     may exist (a blackholed server accepts connections and says
     nothing). The endpoint stays suspected until any framed reply
     arrives. When the window ([suspect_until]) expires the timekeeper
     sends one probe ([probing]); a failure re-arms a doubled window.
     [suspect_until = 0.] means not suspected. *)
  mutable rpc_fail_streak : int;
  mutable last_error : string option;
  mutable suspect_until : float;
  mutable suspect_backoff : float;
  mutable probing : bool;
  mutable probes : int;
  mutable probe_shard : int option;  (* shard of the last failed request *)
  latency : Obs.Histo.t;  (* request-to-reply, recorded while tracing *)
}

(* A quorum fan-out in progress. [outstanding] remembers every (conn,
   id) registration so completion — by quorum, exhaustion or deadline —
   can drop the abandoned entries instead of leaking them until the
   connection dies. *)
type group = {
  glock : Mutex.t;
  gcond : Condition.t;
  shard : int option;
  quorum : int;
  total : int;
  deadline : float;
  mutable replies : (int * string) list; (* newest first *)
  mutable arrived : int;
  mutable failures : int;
  mutable last_error : result option;
  mutable finished : bool;
  mutable outstanding : (conn * int) list;
}

type timer = {
  tlock : Mutex.t;
  mutable entries : (float * group) list; (* ascending by deadline *)
  mutable probes_due : (float * endpoint_state) list; (* ascending, one per endpoint *)
  pipe_rd : Unix.file_descr;
  pipe_wr : Unix.file_descr;
  mutable tstop : bool;
}

type t = {
  lock : Mutex.t; (* guards [endpoints], [id_counter] *)
  endpoints : (string * int, endpoint_state) Hashtbl.t;
  timer : timer;
  max_conns : int;
  suspect_after : int;
  suspect_base : float;
  suspect_max : float;
  mutable id_counter : int;
  inflight : int Atomic.t;
}

(* --- timekeeper -------------------------------------------------------- *)

let rec split_due now fired = function
  | (d, x) :: rest when d <= now -> split_due now (x :: fired) rest
  | rest -> (fired, rest)

let rec insert_by_time at x = function
  | [] -> [ (at, x) ]
  | (d, _) :: _ as l when at < d -> (at, x) :: l
  | e :: rest -> e :: insert_by_time at x rest

(* Sleeps until the earliest quorum deadline or due probe. Deadlines
   wake their waiters; due probes go to [probe], which must not block:
   a slow dial must never delay a quorum deadline. *)
let timer_loop timer ~probe () =
  let buf = Bytes.create 64 in
  let rec loop () =
    Mutex.lock timer.tlock;
    let stop = timer.tstop in
    let next =
      match (timer.entries, timer.probes_due) with
      | [], [] -> None
      | (d, _) :: _, [] | [], (d, _) :: _ -> Some d
      | (d, _) :: _, (p, _) :: _ -> Some (Float.min d p)
    in
    Mutex.unlock timer.tlock;
    if stop then begin
      (try Unix.close timer.pipe_rd with _ -> ());
      try Unix.close timer.pipe_wr with _ -> ()
    end
    else begin
      let now = Unix.gettimeofday () in
      let wait = match next with None -> -1.0 | Some d -> d -. now in
      (* The wait is a read bounded by SO_RCVTIMEO (0 waits without
         limit): unlike select, it works for any descriptor number. The
         kernel rounds it up to its clock tick, so a deadline may fire a
         few milliseconds late, never early. *)
      (if wait > 0.0 || next = None then
         match
           Unix.setsockopt_float timer.pipe_rd Unix.SO_RCVTIMEO
             (if next = None then 0.0 else Float.max 1e-4 wait);
           Unix.read timer.pipe_rd buf 0 64
         with
         | _ -> ()
         | exception
             Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
           -> ());
      let now = Unix.gettimeofday () in
      Mutex.lock timer.tlock;
      let fired, rest = split_due now [] timer.entries in
      timer.entries <- rest;
      let due, later = split_due now [] timer.probes_due in
      timer.probes_due <- later;
      Mutex.unlock timer.tlock;
      List.iter
        (fun g ->
          Mutex.lock g.glock;
          Condition.broadcast g.gcond;
          Mutex.unlock g.glock)
        fired;
      List.iter probe due;
      loop ()
    end
  in
  loop ()

let timer_wake timer =
  try ignore (Unix.write timer.pipe_wr (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> () (* full pipe already guarantees a wakeup *)

let timer_register timer deadline group =
  Mutex.lock timer.tlock;
  let wake =
    match timer.entries with [] -> true | (d, _) :: _ -> deadline < d
  in
  timer.entries <- insert_by_time deadline group timer.entries;
  Mutex.unlock timer.tlock;
  if wake then timer_wake timer

(* Groups that finish early (quorum before deadline) drop their entry
   now rather than retaining the group — replies included — until the
   deadline and waking the timekeeper for nobody. *)
let timer_unregister timer group =
  Mutex.lock timer.tlock;
  timer.entries <- List.filter (fun (_, g) -> g != group) timer.entries;
  Mutex.unlock timer.tlock

(* Due a probe of [st] at [at], replacing any earlier-booked one. *)
let timer_probe timer at st =
  Mutex.lock timer.tlock;
  let others = List.filter (fun (_, s) -> s != st) timer.probes_due in
  timer.probes_due <- insert_by_time at st others;
  let wake = match timer.probes_due with (_, s) :: _ -> s == st | [] -> false in
  Mutex.unlock timer.tlock;
  if wake then timer_wake timer

(* --- pool -------------------------------------------------------------- *)

let endpoint_state pool ep =
  Mutex.lock pool.lock;
  let st =
    match Hashtbl.find_opt pool.endpoints ep with
    | Some st -> st
    | None ->
      let st =
        {
          ep;
          ep_name = Printf.sprintf "%s:%d" (fst ep) (snd ep);
          elock = Mutex.create ();
          econd = Condition.create ();
          conns = [];
          dialing = 0;
          ever_connected = false;
          rpc_fail_streak = 0;
          last_error = None;
          suspect_until = 0.0;
          suspect_backoff = 0.0;
          probing = false;
          probes = 0;
          probe_shard = None;
          latency = Obs.Histo.create ();
        }
      in
      Hashtbl.replace pool.endpoints ep st;
      st
  in
  Mutex.unlock pool.lock;
  st

let next_id pool =
  Mutex.lock pool.lock;
  let id = pool.id_counter in
  pool.id_counter <- (id + 1) land Frame.max_id;
  Mutex.unlock pool.lock;
  id

let track_inflight pool d =
  let v = Atomic.fetch_and_add pool.inflight d + d in
  if d > 0 then Store.Metrics.note_inflight v

(* --- endpoint health --------------------------------------------------- *)

let note_rpc_ok st =
  Mutex.lock st.elock;
  st.rpc_fail_streak <- 0;
  st.last_error <- None;
  st.suspect_until <- 0.0;
  st.suspect_backoff <- 0.0;
  Mutex.unlock st.elock

(* [shard] is the failed request's, so the probe asks a shard the host
   serves: a host answers a shard it does not host with a framed
   reject, even when every shard it does host has gone silent. *)
let note_rpc_fail ?shard pool st error =
  Mutex.lock st.elock;
  st.rpc_fail_streak <- st.rpc_fail_streak + 1;
  st.last_error <- Some error;
  if shard <> None then st.probe_shard <- shard;
  let probe_at =
    if st.rpc_fail_streak < pool.suspect_after then None
    else begin
      let d =
        if st.suspect_backoff = 0.0 then pool.suspect_base
        else min pool.suspect_max (st.suspect_backoff *. 2.0)
      in
      st.suspect_backoff <- d;
      st.suspect_until <- Unix.gettimeofday () +. d;
      Some st.suspect_until
    end
  in
  Mutex.unlock st.elock;
  Option.iter (fun at -> timer_probe pool.timer at st) probe_at

(* Fail fast from the first suspicion until a framed reply clears it:
   an expired window only books the pool's probe, it admits nothing. *)
let is_suspected st = st.suspect_until <> 0.0

(* Tear a connection down: unlink it, fail its pending requests, and
   shut the socket so the reader (the fd's sole closer) wakes up.
   Idempotent — the writer and the reader may both get here. *)
let kill_conn pool st conn =
  Mutex.lock conn.plock;
  let was_alive = conn.alive in
  conn.alive <- false;
  let orphans =
    Hashtbl.fold (fun _ p acc -> p :: acc) conn.pending []
  in
  Hashtbl.reset conn.pending;
  conn.in_flight <- 0;
  Mutex.unlock conn.plock;
  if was_alive then begin
    Mutex.lock st.elock;
    st.conns <- List.filter (fun c -> c != conn) st.conns;
    Mutex.unlock st.elock;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ())
  end;
  if was_alive && orphans <> [] then
    note_rpc_fail pool st "connection died with requests in flight";
  track_inflight pool (-List.length orphans);
  List.iter (fun p -> p.complete Dropped) orphans

let reader pool st conn () =
  let deliver id result =
    Mutex.lock conn.plock;
    let p = Hashtbl.find_opt conn.pending id in
    (match p with
    | Some _ ->
      Hashtbl.remove conn.pending id;
      conn.in_flight <- conn.in_flight - 1
    | None -> ());
    Mutex.unlock conn.plock;
    (* Any framed response is evidence the endpoint is alive — including
       responses to requests we already abandoned. *)
    note_rpc_ok st;
    match p with
    | Some p ->
      track_inflight pool (-1);
      (match p.histo with
      | None -> p.complete result
      | Some h ->
        (* Clock first, observe last: completing may be the quorum
           signal, and the histogram update must not delay it. *)
        let t1 = Unix.gettimeofday () in
        p.complete result;
        Obs.Histo.observe h ((t1 -. p.t0) *. 1e9))
    | None -> () (* reply for an abandoned (post-quorum) request *)
  in
  let rec loop () =
    match Frame.read_frame conn.fd with
    | None -> ()
    | Some frame ->
      (match Frame.parse_response frame with
      | Some (Frame.Reply { id; payload = Some p }) -> deliver id (Reply p)
      | Some (Frame.Reply { id; payload = None }) -> deliver id No_reply
      | Some (Frame.Reject { id; message }) -> deliver id (Rejected message)
      | Some (Frame.Conn_error _) | None -> ());
      loop ()
  in
  (try loop () with _ -> ());
  kill_conn pool st conn;
  try Unix.close conn.fd with _ -> ()

let least_loaded conns =
  List.fold_left
    (fun acc c ->
      match acc with Some b when b.in_flight <= c.in_flight -> acc | _ -> Some c)
    None conns

(* Pick the least-loaded live connection; dial a new one only when every
   existing connection is busy, the per-endpoint cap allows it, and the
   endpoint has no RPC failure since its last framed reply. When the cap
   is already consumed by dials in flight (no connection to reuse yet),
   wait for a dial to resolve rather than over-dialing past the bound.

   A dial gives up at [deadline]. A failed dial is one more RPC failure
   ([note_rpc_fail], so repeated ones suspect the endpoint); a failed
   extra dial falls back to the least-loaded live connection instead of
   dropping the request. *)
let acquire ?shard pool st ~deadline =
  Mutex.lock st.elock;
  let rec pick () =
    let at_cap = List.length st.conns + st.dialing >= pool.max_conns in
    match least_loaded st.conns with
    | Some c when c.in_flight = 0 || at_cap || st.rpc_fail_streak > 0 ->
      Mutex.unlock st.elock;
      Store.Metrics.incr_tcp_reuse ();
      Some c
    | None when at_cap ->
      (* Every slot is a dial in progress; its completion (either
         way) is broadcast on [econd]. *)
      Condition.wait st.econd st.elock;
      pick ()
    | _ -> (
      st.dialing <- st.dialing + 1;
      Mutex.unlock st.elock;
      let fd = Addr.connect ~deadline st.ep in
      Mutex.lock st.elock;
      st.dialing <- st.dialing - 1;
      Condition.broadcast st.econd;
      match fd with
      | Some fd ->
        let conn =
          {
            fd;
            owner = st;
            pending = Hashtbl.create 8;
            plock = Mutex.create ();
            wlock = Mutex.create ();
            alive = true;
            in_flight = 0;
          }
        in
        st.conns <- conn :: st.conns;
        let reconnect = st.ever_connected in
        st.ever_connected <- true;
        Mutex.unlock st.elock;
        Store.Metrics.incr_tcp_connect ();
        if reconnect then Store.Metrics.incr_tcp_reconnect ();
        ignore (Thread.create (reader pool st conn) ());
        Some conn
      | None ->
        let fallback = least_loaded st.conns in
        Mutex.unlock st.elock;
        note_rpc_fail ?shard pool st "dial failed";
        if fallback <> None then Store.Metrics.incr_tcp_reuse ();
        fallback)
  in
  pick ()

let write_frame_on conn bytes =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () -> Frame.write_frame conn.fd bytes)

let group_complete group ~from result =
  Mutex.lock group.glock;
  (if not group.finished then begin
     (match result with
     | Reply payload ->
       group.replies <- (from, payload) :: group.replies;
       group.arrived <- group.arrived + 1
     | (Rejected _ | No_reply | Dropped) as err ->
       group.failures <- group.failures + 1;
       group.last_error <- Some err);
     if
       group.arrived >= group.quorum
       || group.arrived + group.failures >= group.total
     then begin
       group.finished <- true;
       Condition.broadcast group.gcond
     end
   end);
  Mutex.unlock group.glock

let write_prebuilt_on conn buf =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () -> Frame.write_prebuilt conn.fd buf)

(* Register a pending entry and write the request. A connection that
   died between acquire and write is retried once on a fresh dial; a
   write that fails after registration kills the connection, which
   completes our entry (and everyone else's) as [Dropped].

   [buf] is the broadcast's shared prebuilt frame (encoded once per
   quorum round, not once per destination); only the 4 correlation-id
   bytes are patched per send. Patching is safe because a group's
   submissions — including these retries — all run sequentially in the
   calling thread, and the bytes are fully written out before the next
   destination patches them again. *)
let rec submit ?(attempts = 2) ?(probe = false) pool group st ~from buf =
  if is_suspected st && not probe then group_complete group ~from Dropped
  else if attempts = 0 then group_complete group ~from Dropped
  else
    match acquire ?shard:group.shard pool st ~deadline:group.deadline with
    | None -> group_complete group ~from Dropped
    | Some conn -> (
      let id = next_id pool in
      (* Tracing hook, behind [Obs.Span.enabled] so the traced-off hot
         path stays identical: no clock reads, no extra allocation.
         [run_group] annotates the caller's span with the (endpoint,
         correlation id) pairs so a span can be matched to the
         per-endpoint percentiles it contributed to. *)
      let histo, t0 =
        if not (Obs.Span.enabled ()) then (None, 0.0)
        else (Some st.latency, Unix.gettimeofday ())
      in
      let complete r = group_complete group ~from r in
      Mutex.lock conn.plock;
      let registered =
        conn.alive
        &&
        (Hashtbl.replace conn.pending id { complete; t0; histo };
         conn.in_flight <- conn.in_flight + 1;
         true)
      in
      Mutex.unlock conn.plock;
      if not registered then
        submit ~attempts:(attempts - 1) ~probe pool group st ~from buf
      else begin
        track_inflight pool 1;
        Mutex.lock group.glock;
        group.outstanding <- (conn, id) :: group.outstanding;
        Mutex.unlock group.glock;
        Frame.set_prebuilt_id buf id;
        match write_prebuilt_on conn buf with
        | () -> ()
        | exception _ ->
          (* Reclaim our entry (unless the reader beat us to it) so the
             retry does not double-count this destination. *)
          Mutex.lock conn.plock;
          let mine = Hashtbl.mem conn.pending id in
          if mine then begin
            Hashtbl.remove conn.pending id;
            conn.in_flight <- conn.in_flight - 1
          end;
          Mutex.unlock conn.plock;
          kill_conn pool st conn;
          if mine then begin
            track_inflight pool (-1);
            submit ~attempts:(attempts - 1) ~probe pool group st ~from buf
          end
      end)

let make_group ?shard ~quorum ~total ~deadline () =
  {
    glock = Mutex.create ();
    gcond = Condition.create ();
    shard;
    quorum = max 1 quorum;
    total;
    deadline;
    replies = [];
    arrived = 0;
    failures = 0;
    last_error = None;
    finished = false;
    outstanding = [];
  }

let await group =
  Mutex.lock group.glock;
  let timed_out = ref false in
  let rec wait () =
    if group.finished then ()
    else if Unix.gettimeofday () >= group.deadline then begin
      group.finished <- true;
      timed_out := true
    end
    else begin
      Condition.wait group.gcond group.glock;
      wait ()
    end
  in
  wait ();
  let replies = List.rev group.replies in
  let outstanding = group.outstanding in
  group.outstanding <- [];
  Mutex.unlock group.glock;
  (outstanding, replies, !timed_out)

(* Abandon the requests a finished group no longer cares about: their
   table entries go away now, not whenever the server or the connection
   eventually gets around to it. When the group died of its deadline
   (rather than completing at quorum), each still-pending entry is a
   server that never answered in time — an endpoint-health failure. A
   quorum-complete group's leftovers are just slower-than-quorum servers
   and say nothing about health. *)
let drop_outstanding pool group ~timed_out outstanding =
  List.iter
    (fun (conn, id) ->
      Mutex.lock conn.plock;
      let mine = Hashtbl.mem conn.pending id in
      if mine then begin
        Hashtbl.remove conn.pending id;
        conn.in_flight <- conn.in_flight - 1
      end;
      Mutex.unlock conn.plock;
      if mine then begin
        track_inflight pool (-1);
        if timed_out then
          note_rpc_fail ?shard:group.shard pool conn.owner "request timed out"
      end)
    outstanding

(* Wait for a submitted group, then drop what it no longer needs. *)
let finish_group pool group =
  let outstanding, replies, timed_out = await group in
  timer_unregister pool.timer group;
  drop_outstanding pool group ~timed_out outstanding;
  replies

(* [dsts] carries a prebuilt frame per destination. A broadcast passes
   the same shared buffer in every triple (encoded once, id patched per
   send); a scatter passes a distinct frame per destination. *)
let run_group pool group dsts =
  let start = Unix.gettimeofday () in
  timer_register pool.timer group.deadline group;
  (* Destinations with a pooled connection go first: a dial may wait up
     to the deadline, and must not hold back requests that need none.
     The unlocked read of [conns] only decides the order. *)
  let warm, cold =
    List.partition
      (fun (_, st, _) -> st.conns <> [])
      (List.map (fun (from, ep, buf) -> (from, endpoint_state pool ep, buf)) dsts)
  in
  List.iter (fun (from, st, buf) -> submit pool group st ~from buf) (warm @ cold);
  (* One annotation per round, not per destination: an (ep, corr) pair
     for every request actually registered, so a slow span's attrs
     point straight at the per-endpoint histograms involved. Rendering
     is deferred to dump time (see {!Obs.Span.attr}). *)
  if Obs.Span.enabled () then begin
    Mutex.lock group.glock;
    let pairs =
      List.rev_map
        (fun (conn, id) -> (conn.owner.ep_name, id))
        group.outstanding
    in
    Mutex.unlock group.glock;
    Obs.Span.annotate_rpc pairs
  end;
  let replies = finish_group pool group in
  Store.Metrics.incr_rpc ();
  Store.Metrics.record_rpc_ns ((Unix.gettimeofday () -. start) *. 1e9);
  replies

(* The wire trace context for this thread's active span, read once per
   round. [Obs.Span.current_ctx] is gated on the enabled flag, so the
   disabled path pays one load and branch, nothing more. *)
let wire_trace () =
  match Obs.Span.current_ctx () with
  | Some (c : Obs.Span.ctx) ->
    Some { Frame.trace = c.trace; span = c.span; flags = c.flags }
  | None -> None

let call_many pool ?(timeout = 5.0) ?shard ~quorum dsts payload =
  match dsts with
  | [] -> []
  | _ ->
    let group =
      make_group ?shard ~quorum ~total:(List.length dsts)
        ~deadline:(Unix.gettimeofday () +. timeout) ()
    in
    let buf = Frame.prebuilt_call ?shard ?trace:(wire_trace ()) payload in
    run_group pool group (List.map (fun (from, ep) -> (from, ep, buf)) dsts)

let call_scatter pool ?(timeout = 5.0) ?shard ~quorum parts =
  match parts with
  | [] -> []
  | _ ->
    let group =
      make_group ?shard ~quorum ~total:(List.length parts)
        ~deadline:(Unix.gettimeofday () +. timeout) ()
    in
    let trace = wire_trace () in
    run_group pool group
      (List.map
         (fun (from, ep, payload) ->
           (from, ep, Frame.prebuilt_call ?shard ?trace payload))
         parts)

let call pool ?(timeout = 5.0) ?shard endpoint payload =
  let group =
    make_group ?shard ~quorum:1 ~total:1
      ~deadline:(Unix.gettimeofday () +. timeout) ()
  in
  match
    run_group pool group
      [ (0, endpoint, Frame.prebuilt_call ?shard ?trace:(wire_trace ()) payload) ]
  with
  | (_, payload) :: _ -> Reply payload
  | [] -> ( match group.last_error with Some err -> err | None -> Dropped)

(* A one-way has no deadline of its own; its dial gets [suspect_base],
   the time a probe has to answer. *)
let send pool ?shard endpoint payload =
  let st = endpoint_state pool endpoint in
  let frame = Frame.encode_oneway ?shard ?trace:(wire_trace ()) payload in
  let rec go attempts =
    if attempts = 0 then false
    else if is_suspected st then false
    else
      match
        acquire ?shard pool st
          ~deadline:(Unix.gettimeofday () +. pool.suspect_base)
      with
      | None -> false
      | Some conn -> (
        match write_frame_on conn frame with
        | () -> true
        | exception _ ->
          kill_conn pool st conn;
          go (attempts - 1))
  in
  go 2

(* --- probes ------------------------------------------------------------- *)

(* A well-formed store request that reads nothing: an honest host
   answers it (if only with a denial), a silent one says nothing. A
   malformed frame would not do, since even a crashed host's transport
   answers that with a framed error. *)
let probe_request =
  Store.Payload.encode_envelope
    {
      Store.Payload.token = None;
      epoch = 0;
      request =
        Store.Payload.Read_query
          {
            uid = Store.Uid.make ~group:"pool-probe" ~item:"pool-probe";
            ship = false;
          };
    }

(* One probe of a suspected endpoint, on a thread of its own. A framed
   reply clears the suspicion (the reader's [note_rpc_ok]); a timeout or
   a failed dial re-arms a doubled window and books the next probe
   ([note_rpc_fail]). Nothing gates the probe's dial. *)
let run_probe pool st () =
  let shard = st.probe_shard in
  let group =
    make_group ?shard ~quorum:1 ~total:1
      ~deadline:(Unix.gettimeofday () +. pool.suspect_base) ()
  in
  timer_register pool.timer group.deadline group;
  submit ~probe:true pool group st ~from:0
    (Frame.prebuilt_call ?shard probe_request);
  ignore (finish_group pool group : (int * string) list);
  Mutex.lock st.elock;
  st.probing <- false;
  let again = st.suspect_until in
  Mutex.unlock st.elock;
  (* Still suspected: keep one probe booked, never sooner than a base
     window from now, whatever ended this one. *)
  if again <> 0.0 then
    timer_probe pool.timer
      (Float.max again (Unix.gettimeofday () +. pool.suspect_base))
      st

(* Called by the timekeeper when [st]'s window expires: at most one probe
   per endpoint in flight, none for an endpoint already cleared or
   evicted. *)
let start_probe pool st =
  let live =
    Mutex.lock pool.lock;
    let cur = Hashtbl.find_opt pool.endpoints st.ep in
    Mutex.unlock pool.lock;
    match cur with Some cur -> cur == st | None -> false
  in
  Mutex.lock st.elock;
  let go = live && is_suspected st && not st.probing in
  if go then begin
    st.probing <- true;
    st.probes <- st.probes + 1
  end;
  Mutex.unlock st.elock;
  if go then ignore (Thread.create (run_probe pool st) ())

let create ?(max_connections_per_endpoint = 2) ?(suspect_after = 5)
    ?(suspect_base = 0.25) ?(suspect_max = 5.0) () =
  let pipe_rd, pipe_wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock pipe_wr;
  let timer =
    {
      tlock = Mutex.create ();
      entries = [];
      probes_due = [];
      pipe_rd;
      pipe_wr;
      tstop = false;
    }
  in
  let pool =
    {
      lock = Mutex.create ();
      endpoints = Hashtbl.create 16;
      timer;
      max_conns = max 1 max_connections_per_endpoint;
      suspect_after = max 1 suspect_after;
      suspect_base;
      suspect_max;
      id_counter = 0;
      inflight = Atomic.make 0;
    }
  in
  ignore (Thread.create (timer_loop timer ~probe:(start_probe pool)) ());
  pool

let shared_pool = lazy (create ())
let shared () = Lazy.force shared_pool

(* --- introspection / teardown ------------------------------------------ *)

let connection_count pool ep =
  match
    Mutex.lock pool.lock;
    let st = Hashtbl.find_opt pool.endpoints ep in
    Mutex.unlock pool.lock;
    st
  with
  | None -> 0
  | Some st ->
    Mutex.lock st.elock;
    let n = List.length st.conns in
    Mutex.unlock st.elock;
    n

let in_flight pool = Atomic.get pool.inflight

let suspected pool ep =
  Mutex.lock pool.lock;
  let st = Hashtbl.find_opt pool.endpoints ep in
  Mutex.unlock pool.lock;
  match st with Some st -> is_suspected st | None -> false

type state = Healthy | Suspected | Probing

type health = {
  endpoint : string * int;
  connections : int;
  consecutive_failures : int;
  last_error : string option;
  down_until : float;
  state : state;
  probes : int;
}

(* Every endpoint the pool knows, sorted. *)
let endpoint_states pool =
  Mutex.lock pool.lock;
  let ss = Hashtbl.fold (fun _ st acc -> st :: acc) pool.endpoints [] in
  Mutex.unlock pool.lock;
  List.sort (fun a b -> compare a.ep b.ep) ss

let snap st =
  Mutex.lock st.elock;
  let h =
    {
      endpoint = st.ep;
      connections = List.length st.conns;
      consecutive_failures = st.rpc_fail_streak;
      last_error = st.last_error;
      down_until = st.suspect_until;
      state =
        (if st.suspect_until = 0.0 then Healthy
         else if st.probing then Probing
         else Suspected);
      probes = st.probes;
    }
  in
  Mutex.unlock st.elock;
  h

let health pool = List.map snap (endpoint_states pool)

let pp_health ~now fmt h =
  Format.fprintf fmt "%s:%d: %s, %d conn, %d consecutive failures, %d probes%s"
    (fst h.endpoint) (snd h.endpoint)
    (match h.state with
    | Healthy -> "healthy"
    | Probing -> "suspected, probing"
    | Suspected when h.down_until > now ->
      Printf.sprintf "suspected, probe in %.2fs" (h.down_until -. now)
    | Suspected -> "suspected, probe due")
    h.connections h.consecutive_failures h.probes
    (match h.last_error with Some e -> ", last error: " ^ e | None -> "")

let families pool =
  let states = endpoint_states pool in
  let rows = List.map (fun st -> (st.ep_name, snap st)) states in
  let gauge name help value =
    Obs.Expo.family ~name:("securestore_" ^ name) ~help
      (Obs.Expo.Gauge
         (List.map (fun (ep, h) -> ([ ("endpoint", ep) ], value h)) rows))
  in
  [
    gauge "endpoint_health"
      "1 when the endpoint is healthy, 0 while it is suspected: its \
       requests fail fast until a pool probe gets an answer."
      (fun h -> if h.state = Healthy then 1.0 else 0.0);
    gauge "endpoint_connections" "Live pooled connections." (fun h ->
        float_of_int h.connections);
    gauge "endpoint_consecutive_failures"
      "RPC failures since the endpoint's last success." (fun h ->
        float_of_int h.consecutive_failures);
    Obs.Expo.family ~name:"securestore_endpoint_rpc_duration_seconds"
      ~help:
        "Per-endpoint request-to-reply latency (recorded while tracing \
         is enabled)."
      (Obs.Expo.Histogram
         (List.map (fun st -> ([ ("endpoint", st.ep_name) ], st.latency)) states));
  ]

(* Retire an endpoint for good (membership churn): drop its state —
   connections, suspicion, latency histogram. A later submission to the
   same address starts from a clean slate, like a first sighting;
   without eviction, state for servers no longer in any active config
   accumulates forever. *)
let evict pool ep =
  let st =
    Mutex.lock pool.lock;
    let st = Hashtbl.find_opt pool.endpoints ep in
    Hashtbl.remove pool.endpoints ep;
    Mutex.unlock pool.lock;
    st
  in
  match st with
  | None -> ()
  | Some st ->
    Mutex.lock st.elock;
    let conns = st.conns in
    Mutex.unlock st.elock;
    List.iter (fun conn -> kill_conn pool st conn) conns

let shutdown pool =
  Mutex.lock pool.timer.tlock;
  pool.timer.tstop <- true;
  Mutex.unlock pool.timer.tlock;
  timer_wake pool.timer;
  let states =
    Mutex.lock pool.lock;
    let ss = Hashtbl.fold (fun _ st acc -> st :: acc) pool.endpoints [] in
    Hashtbl.reset pool.endpoints;
    Mutex.unlock pool.lock;
    ss
  in
  List.iter
    (fun st ->
      Mutex.lock st.elock;
      let conns = st.conns in
      Mutex.unlock st.elock;
      List.iter (fun conn -> kill_conn pool st conn) conns)
    states
