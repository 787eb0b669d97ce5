(* Pooled, pipelined RPC transport.

   One persistent connection (a few, bounded) per endpoint; requests are
   framed with a correlation id ({!Frame.encode_call}) so many can be in
   flight at once and replies may come back in any order. A dedicated
   reader thread per connection completes a pending-request table;
   callers wait on a Condition, woken either by quorum completion or by
   the pool's single timekeeper thread at their deadline (self-pipe +
   select — no polling). Dead connections are detected by the reader
   (EOF) or the writer (EPIPE), their pending requests fail fast, and
   the next use redials, behind a capped exponential backoff. An
   endpoint that keeps failing is suspected: its requests fail fast
   until a probe the timekeeper sends on its own gets an answer, so no
   user request ever waits on a server that has gone silent. *)

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
  mutable fail_streak : int;
  mutable down_until : float;
  mutable last_backoff : float;
  mutable ever_connected : bool;
  (* Health beyond dial backoff: RPC-level consecutive failures
     (timeouts, dead connections, failed dials) make the endpoint
     suspected, and submissions fail fast even though live connections
     may exist (a blackholed server accepts connections and says
     nothing). The endpoint stays suspected until any framed reply
     arrives. When the window ([suspect_until]) expires the timekeeper
     sends one probe ([probing]); a timeout re-arms a doubled window.
     [suspect_until = 0.] means not suspected. *)
  mutable rpc_fail_streak : int;
  mutable last_error : string option;
  mutable suspect_until : float;
  mutable suspect_backoff : float;
  mutable probing : bool;
  mutable probes : int;
  mutable probe_shard : int option;  (* shard of the last failed request *)
  (* Resolved lazily on the first traced submit and kept: the reply
     path records into it before waking the quorum waiter, so it must
     not pay a registry lookup per reply. (A Metrics.reset_gauges
     while tracing is live detaches this cache from the registry;
     gauge resets are a test-only pristine-slate affair.) *)
  mutable ep_histo : Obs.Histo.t option;
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
  backoff_base : float;
  backoff_max : float;
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
      (if wait > 0.0 || next = None then
         match Unix.select [ timer.pipe_rd ] [] [] wait with
         | [ fd ], _, _ -> ignore (Unix.read fd buf 0 64)
         | _ -> ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
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

(* Forward declaration dance avoided: defined below, used here only
   after the state exists. *)
let publish_health_ref = ref (fun (_ : endpoint_state) -> ())

let endpoint_state pool ep =
  Mutex.lock pool.lock;
  let st, created =
    match Hashtbl.find_opt pool.endpoints ep with
    | Some st -> (st, false)
    | None ->
      let st =
        {
          ep;
          ep_name = Printf.sprintf "%s:%d" (fst ep) (snd ep);
          elock = Mutex.create ();
          econd = Condition.create ();
          conns = [];
          dialing = 0;
          fail_streak = 0;
          down_until = 0.0;
          last_backoff = 0.0;
          ever_connected = false;
          rpc_fail_streak = 0;
          last_error = None;
          suspect_until = 0.0;
          suspect_backoff = 0.0;
          probing = false;
          probes = 0;
          probe_shard = None;
          ep_histo = None;
        }
      in
      Hashtbl.replace pool.endpoints ep st;
      (st, true)
  in
  Mutex.unlock pool.lock;
  (* First sighting: publish a healthy row so introspection shows every
     endpoint the pool knows, not only the ones that have failed. *)
  if created then !publish_health_ref st;
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

(* Call with [st.elock] held. *)
let health_state st : Store.Metrics.health_state =
  if st.suspect_until = 0.0 then Healthy
  else if st.probing then Probing
  else Suspected

let publish_health st =
  Mutex.lock st.elock;
  let h =
    {
      Store.Metrics.endpoint = st.ep_name;
      connections = List.length st.conns;
      consecutive_failures = st.rpc_fail_streak;
      last_error = st.last_error;
      down_until = max st.down_until st.suspect_until;
      state = health_state st;
      probes = st.probes;
    }
  in
  Mutex.unlock st.elock;
  Store.Metrics.note_endpoint_health h

let () = publish_health_ref := publish_health

let note_rpc_ok st =
  Mutex.lock st.elock;
  let changed =
    st.rpc_fail_streak <> 0 || st.suspect_until <> 0.0 || st.last_error <> None
  in
  st.rpc_fail_streak <- 0;
  st.last_error <- None;
  st.suspect_until <- 0.0;
  st.suspect_backoff <- 0.0;
  Mutex.unlock st.elock;
  if changed then publish_health st

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
  Option.iter (fun at -> timer_probe pool.timer at st) probe_at;
  publish_health st

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
    note_rpc_fail pool st "connection died with requests in flight"
  else if was_alive then publish_health st;
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

let backoff_delay pool streak =
  min pool.backoff_max (pool.backoff_base *. (2.0 ** float_of_int (streak - 1)))

(* Pick the least-loaded live connection; dial a new one only when every
   existing connection is busy and the per-endpoint cap allows it. When
   the cap is already consumed by dials in flight (no connection to
   reuse yet), wait for a dial to resolve rather than over-dialing past
   the bound. *)
let acquire pool st =
  Mutex.lock st.elock;
  let rec pick () =
    (* Backoff only gates dialing: a failed extra dial must not take
       usable live connections out of service, so with live connections
       we fall through and reuse the least-loaded one instead. *)
    let in_backoff = Unix.gettimeofday () < st.down_until in
    if st.conns = [] && in_backoff then begin
      Mutex.unlock st.elock;
      None
    end
    else begin
      let best =
        List.fold_left
          (fun acc c ->
            match acc with
            | Some b when b.in_flight <= c.in_flight -> acc
            | _ -> Some c)
          None st.conns
      in
      let at_cap = List.length st.conns + st.dialing >= pool.max_conns in
      match best with
      | Some c when c.in_flight = 0 || at_cap || in_backoff ->
        Mutex.unlock st.elock;
        Store.Metrics.incr_tcp_reuse ();
        Some c
      | None when at_cap ->
        (* Every slot is a dial in progress; its completion (either
           way) is broadcast on [econd]. *)
        Condition.wait st.econd st.elock;
        pick ()
      | _ ->
        st.dialing <- st.dialing + 1;
        Mutex.unlock st.elock;
        let fd = Addr.connect st.ep in
        Mutex.lock st.elock;
        st.dialing <- st.dialing - 1;
        (match fd with
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
          st.fail_streak <- 0;
          st.down_until <- 0.0;
          st.last_backoff <- 0.0;
          let reconnect = st.ever_connected in
          st.ever_connected <- true;
          Condition.broadcast st.econd;
          Mutex.unlock st.elock;
          Store.Metrics.incr_tcp_connect ();
          if reconnect then Store.Metrics.incr_tcp_reconnect ();
          publish_health st;
          ignore (Thread.create (reader pool st conn) ());
          Some conn
        | None ->
          st.fail_streak <- st.fail_streak + 1;
          let delay = backoff_delay pool st.fail_streak in
          st.last_backoff <- delay;
          st.down_until <- Unix.gettimeofday () +. delay;
          Condition.broadcast st.econd;
          Mutex.unlock st.elock;
          None)
    end
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
    match acquire pool st with
    | None ->
      note_rpc_fail ?shard:group.shard pool st
        "dial failed or endpoint in backoff";
      group_complete group ~from Dropped
    | Some conn -> (
      let id = next_id pool in
      (* Tracing hook, behind [Obs.Span.enabled] so the traced-off hot
         path stays identical: no clock reads, no extra allocation.
         [run_group] annotates the caller's span with the (endpoint,
         correlation id) pairs so a span can be matched to the
         per-endpoint percentiles it contributed to. *)
      let histo, t0 =
        if not (Obs.Span.enabled ()) then (None, 0.0)
        else begin
          let h =
            match st.ep_histo with
            | Some h -> h
            | None ->
              let h = Store.Metrics.endpoint_rpc_histo st.ep_name in
              st.ep_histo <- Some h;
              h
          in
          (Some h, Unix.gettimeofday ())
        end
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
  List.iter
    (fun (from, ep, buf) -> submit pool group (endpoint_state pool ep) ~from buf)
    dsts;
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

let send pool ?shard endpoint payload =
  let st = endpoint_state pool endpoint in
  let frame = Frame.encode_oneway ?shard ?trace:(wire_trace ()) payload in
  let rec go attempts =
    if attempts = 0 then false
    else if is_suspected st then false
    else
      match acquire pool st with
      | None ->
        note_rpc_fail ?shard pool st "dial failed or endpoint in backoff";
        false
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
   ([note_rpc_fail]). *)
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
      st;
  publish_health st

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
  if go then begin
    publish_health st;
    ignore (Thread.create (run_probe pool st) ())
  end

let create ?(max_connections_per_endpoint = 2) ?(backoff_base = 0.05)
    ?(backoff_max = 2.0) ?(suspect_after = 5) ?(suspect_base = 0.25)
    ?(suspect_max = 5.0) () =
  let pipe_rd, pipe_wr = Unix.pipe () in
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
      backoff_base;
      backoff_max;
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

let current_backoff pool ep =
  match
    Mutex.lock pool.lock;
    let st = Hashtbl.find_opt pool.endpoints ep in
    Mutex.unlock pool.lock;
    st
  with
  | None -> 0.0
  | Some st ->
    Mutex.lock st.elock;
    let b = st.last_backoff in
    Mutex.unlock st.elock;
    b

let in_flight pool = Atomic.get pool.inflight

let suspected pool ep =
  Mutex.lock pool.lock;
  let st = Hashtbl.find_opt pool.endpoints ep in
  Mutex.unlock pool.lock;
  match st with Some st -> is_suspected st | None -> false

type state = Store.Metrics.health_state = Healthy | Suspected | Probing

type health = {
  endpoint : string * int;
  connections : int;
  consecutive_failures : int;
  last_error : string option;
  down_until : float;
  state : state;
  probes : int;
}

let health pool =
  let states =
    Mutex.lock pool.lock;
    let ss = Hashtbl.fold (fun _ st acc -> st :: acc) pool.endpoints [] in
    Mutex.unlock pool.lock;
    ss
  in
  let snap st =
    Mutex.lock st.elock;
    let h =
      {
        endpoint = st.ep;
        connections = List.length st.conns;
        consecutive_failures = st.rpc_fail_streak;
        last_error = st.last_error;
        down_until = max st.down_until st.suspect_until;
        state = health_state st;
        probes = st.probes;
      }
    in
    Mutex.unlock st.elock;
    h
  in
  List.sort compare (List.map snap states)

(* Retire an endpoint for good (membership churn): drop its state —
   connections, backoff, suspicion counters — and its health row. A
   later submission to the same address starts from a clean slate, like
   a first sighting; without eviction, suspicion state for servers no
   longer in any active config accumulates forever. *)
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
    List.iter (fun conn -> kill_conn pool st conn) conns;
    Store.Metrics.forget_endpoint_health st.ep_name

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
