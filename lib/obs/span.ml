type phase = { pname : string; pstart_ns : float; pdur_ns : float }

(* Rpc pairs are kept structured and only rendered when a span is
   dumped: annotating a quorum round then costs a cons, not a string
   build, on the transport hot path. *)
type attr = Text of string | Rpc of (string * int) list

let attr_text = function
  | Text s -> s
  | Rpc pairs ->
    let b = Buffer.create 48 in
    Buffer.add_string b "rpc";
    List.iter
      (fun (ep, id) ->
        Buffer.add_char b ' ';
        Buffer.add_string b ep;
        Buffer.add_char b '#';
        Buffer.add_string b (string_of_int id))
      pairs;
    Buffer.contents b

(* --- trace context ------------------------------------------------------- *)

(* The wire-carried correlation triple: which distributed trace a span
   belongs to (16 raw bytes), which remote span caused it, and the
   sampling decision made at the head. *)
type ctx = { trace : string; span : int; flags : int }

let flag_sampled = 0x01
let flag_forced = 0x02
let trace_bytes = 16

let sample_interval = ref 8
let set_sample_interval n = sample_interval := max 1 n
let sample_interval_now () = !sample_interval

type closed = {
  id : int;
  op : string;
  thread : int;
  start : float;
  dur_ns : float;
  phases : phase list;
  attrs : attr list;
  trace : string;  (* "" when the span is not part of a distributed trace *)
  parent : int;  (* 0 when this span is a trace root (or untraced) *)
  flags : int;
}

(* A span being built on some thread. Phases and attrs accumulate
   reversed; [path] is the stack of open phase names. *)
type live = {
  lid : int;
  lop : string;
  lthread : int;
  lstart : float;
  mutable lphases : phase list;
  mutable lattrs : attr list;
  mutable path : string list;
  mutable ltrace : string;
  mutable lparent : int;
  mutable lflags : int;
}

let on = ref false
let set_enabled v = on := v
let enabled () = !on

(* Per-process node label stamped on every dumped span, so stitched
   traces assembled from several processes keep attribution. *)
let node_name = ref ""
let set_node n = node_name := n
let node () = !node_name

(* Per-OS-thread active span. The table is only touched when tracing is
   enabled, and each thread only ever writes its own binding; the lock
   covers the table structure itself. *)
let tls : (int, live) Hashtbl.t = Hashtbl.create 16
let tls_lock = Mutex.create ()

(* Guarded by [tls_lock]: span ids are only minted while installing the
   thread's binding, so the counter rides the same critical section.
   The pid salt keeps ids from colliding across processes whose spans
   are later stitched into one trace. *)
let id_counter = ref 0
let id_salt = (Unix.getpid () land 0xfffff) lsl 40

let self_id () = Thread.id (Thread.self ())

let current () =
  let tid = self_id () in
  Mutex.lock tls_lock;
  let l = Hashtbl.find_opt tls tid in
  Mutex.unlock tls_lock;
  l

let current_id () =
  if not !on then None
  else match current () with Some l -> Some l.lid | None -> None

let add_attr a =
  match current () with
  | Some l -> l.lattrs <- a :: l.lattrs
  | None -> ()

let annotate s = if !on then add_attr (Text s)
let annotate_rpc pairs = if !on then add_attr (Rpc pairs)

let set_trace ?(parent = 0) ?(flags = 0) trace =
  if !on then
    match current () with
    | Some l when l.ltrace = "" && String.length trace = trace_bytes ->
      l.ltrace <- trace;
      l.lparent <- parent;
      l.lflags <- flags
    | _ -> ()

let force () =
  if !on then
    match current () with
    | Some l when l.ltrace <> "" -> l.lflags <- l.lflags lor flag_forced
    | _ -> ()

let current_ctx () =
  if not !on then None
  else
    match current () with
    | Some l when l.ltrace <> "" ->
      Some { trace = l.ltrace; span = l.lid; flags = l.lflags }
    | _ -> None

(* --- phase-duration registry ------------------------------------------- *)

let registry : (string * string, Histo.t) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let histo_locked key =
  match Hashtbl.find_opt registry key with
  | Some h -> h
  | None ->
    let h = Histo.create () in
    Hashtbl.add registry key h;
    h

let phase_stats () =
  Mutex.lock registry_lock;
  let all =
    Hashtbl.fold (fun (op, phase) h acc -> (op, phase, h) :: acc) registry []
  in
  Mutex.unlock registry_lock;
  List.sort
    (fun (o1, p1, _) (o2, p2, _) ->
      match String.compare o1 o2 with 0 -> String.compare p1 p2 | c -> c)
    all

let phase_histo ~op ~phase =
  Mutex.lock registry_lock;
  let h = Hashtbl.find_opt registry (op, phase) in
  Mutex.unlock registry_lock;
  h

let phase_family ?(name = "securestore_phase_duration_seconds") () =
  Expo.family ~name
    ~help:"Per-operation phase durations from tracing spans."
    (Expo.Histogram
       (List.map
          (fun (op, ph, h) -> ([ ("op", op); ("phase", ph) ], h))
          (phase_stats ())))

let reset_stats () =
  Mutex.lock registry_lock;
  Hashtbl.reset registry;
  Mutex.unlock registry_lock

(* --- journal ------------------------------------------------------------ *)

(* Ring buffer of completed spans: slot [total mod capacity] is written
   next, so the buffer always holds the newest [capacity] spans. *)
let journal_lock = Mutex.create ()
let journal = ref (Array.make 256 None)
let journal_total = ref 0

let set_journal_capacity cap =
  let cap = max 1 cap in
  Mutex.lock journal_lock;
  journal := Array.make cap None;
  journal_total := 0;
  Mutex.unlock journal_lock

let reset_journal () =
  Mutex.lock journal_lock;
  Array.fill !journal 0 (Array.length !journal) None;
  journal_total := 0;
  Mutex.unlock journal_lock

let journal_add c =
  Mutex.lock journal_lock;
  let arr = !journal in
  arr.(!journal_total mod Array.length arr) <- Some c;
  incr journal_total;
  Mutex.unlock journal_lock

let recent ?limit () =
  Mutex.lock journal_lock;
  let arr = Array.copy !journal in
  let total = !journal_total in
  Mutex.unlock journal_lock;
  let cap = Array.length arr in
  let stored = min total cap in
  let wanted = match limit with Some l -> min l stored | None -> stored in
  (* Newest first: walk backwards from the last written slot. *)
  List.filter_map
    (fun i -> arr.((total - 1 - i + (cap * 2)) mod cap))
    (List.init wanted Fun.id)

(* --- flight recorder ----------------------------------------------------- *)

(* Completed trace-tagged spans accumulate per trace id in a bounded
   pending table (FIFO eviction); when a trace's local root closes the
   whole trace is promoted — sampled traces into a ring that keeps the
   newest, forced traces into a pinned list that survives sampling
   pressure. Everything is size-bounded so the recorder can stay on in
   production. *)

let flight_lock = Mutex.create ()
let flight_pending : (string, closed list ref) Hashtbl.t = Hashtbl.create 64
let flight_order : string Queue.t = Queue.create ()
let flight_pending_cap = ref 128
let flight_ring = ref (Array.make 32 None)
let flight_ring_total = ref 0
let flight_pinned : (string * closed list) list ref = ref []
let flight_pinned_cap = ref 16
let sampled_promotions = ref 0
let forced_promotions = ref 0

let set_flight_capacity ?pending ?ring ?pinned () =
  Mutex.lock flight_lock;
  (match pending with Some p -> flight_pending_cap := max 1 p | None -> ());
  (match ring with
  | Some r ->
    flight_ring := Array.make (max 1 r) None;
    flight_ring_total := 0
  | None -> ());
  (match pinned with Some p -> flight_pinned_cap := max 1 p | None -> ());
  Mutex.unlock flight_lock

let reset_flight () =
  Mutex.lock flight_lock;
  Hashtbl.reset flight_pending;
  Queue.clear flight_order;
  Array.fill !flight_ring 0 (Array.length !flight_ring) None;
  flight_ring_total := 0;
  flight_pinned := [];
  sampled_promotions := 0;
  forced_promotions := 0;
  Mutex.unlock flight_lock

let take_n n l = List.filteri (fun i _ -> i < n) l

let promote_locked ?(force = false) trace =
  match Hashtbl.find_opt flight_pending trace with
  | None -> ()
  | Some r ->
    Hashtbl.remove flight_pending trace;
    let spans = List.rev !r in
    let forced =
      force || List.exists (fun c -> c.flags land flag_forced <> 0) spans
    in
    if forced then begin
      incr forced_promotions;
      flight_pinned :=
        take_n !flight_pinned_cap ((trace, spans) :: !flight_pinned)
    end
    else begin
      incr sampled_promotions;
      let arr = !flight_ring in
      arr.(!flight_ring_total mod Array.length arr) <- Some (trace, spans);
      incr flight_ring_total
    end

let flight_add c =
  Mutex.lock flight_lock;
  (match Hashtbl.find_opt flight_pending c.trace with
  | Some r -> r := c :: !r
  | None ->
    (* FIFO eviction: pop queue entries (some may already be promoted)
       until the table is under its cap, promoting the evictee so a
       long-lived trace is not silently lost. *)
    while
      Hashtbl.length flight_pending >= !flight_pending_cap
      && not (Queue.is_empty flight_order)
    do
      promote_locked (Queue.pop flight_order)
    done;
    Hashtbl.replace flight_pending c.trace (ref [ c ]);
    Queue.push c.trace flight_order);
  if c.parent = 0 then promote_locked c.trace;
  Mutex.unlock flight_lock

let flight_lookup ~trace =
  Mutex.lock flight_lock;
  let pending =
    match Hashtbl.find_opt flight_pending trace with
    | Some r -> List.rev !r
    | None -> []
  in
  let ring =
    Array.fold_left
      (fun acc slot ->
        match slot with
        | Some (t, spans) when t = trace -> acc @ spans
        | _ -> acc)
      [] !flight_ring
  in
  let pinned =
    List.concat_map
      (fun (t, spans) -> if t = trace then spans else [])
      !flight_pinned
  in
  Mutex.unlock flight_lock;
  pending @ ring @ pinned

let pin ~trace =
  Mutex.lock flight_lock;
  let found =
    if Hashtbl.mem flight_pending trace then begin
      promote_locked ~force:true trace;
      true
    end
    else if List.mem_assoc trace !flight_pinned then true
    else begin
      let arr = !flight_ring in
      let hit = ref false in
      Array.iteri
        (fun i slot ->
          match slot with
          | Some (t, spans) when t = trace && not !hit ->
            hit := true;
            arr.(i) <- None;
            incr forced_promotions;
            flight_pinned :=
              take_n !flight_pinned_cap ((trace, spans) :: !flight_pinned)
          | _ -> ())
        arr;
      !hit
    end
  in
  Mutex.unlock flight_lock;
  found

let flight_stats () =
  Mutex.lock flight_lock;
  let occupancy =
    Hashtbl.length flight_pending
    + Array.fold_left
        (fun acc s -> match s with Some _ -> acc + 1 | None -> acc)
        0 !flight_ring
    + List.length !flight_pinned
  in
  let r = (!sampled_promotions, !forced_promotions, occupancy) in
  Mutex.unlock flight_lock;
  r

let trace_families () =
  let sampled, forced, occupancy = flight_stats () in
  [
    Expo.counter ~name:"securestore_traces_sampled_total"
      ~help:"Distributed traces promoted into the sampled flight ring."
      (float_of_int sampled);
    Expo.counter ~name:"securestore_traces_forced_total"
      ~help:
        "Distributed traces force-retained (retry, escalation, or \
         checker-flagged)."
      (float_of_int forced);
    Expo.gauge ~name:"securestore_flight_recorder_occupancy"
      ~help:"Traces currently held by the flight recorder (pending + ring + pinned)."
      (float_of_int occupancy);
  ]

(* --- JSON dump ---------------------------------------------------------- *)

let span_json buf c =
  Printf.bprintf buf
    "{\"id\":%d,\"op\":\"%s\",\"thread\":%d,\"start\":%.6f,\"dur_ns\":%.0f,"
    c.id (Jsonx.escape c.op) c.thread c.start c.dur_ns;
  if c.trace <> "" then
    Printf.bprintf buf "\"trace\":\"%s\",\"parent\":%d,\"flags\":%d,"
      (Jsonx.to_hex c.trace) c.parent c.flags;
  if !node_name <> "" then
    Printf.bprintf buf "\"node\":\"%s\"," (Jsonx.escape !node_name);
  Buffer.add_string buf "\"attrs\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\"" (Jsonx.escape (attr_text a)))
    c.attrs;
  Buffer.add_string buf "],\"phases\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":\"%s\",\"start_ns\":%.0f,\"dur_ns\":%.0f}"
        (Jsonx.escape p.pname) p.pstart_ns p.pdur_ns)
    c.phases;
  Buffer.add_string buf "]}"

let spans_json ?limit () =
  let spans = recent ?limit () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"spans\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      span_json buf c)
    spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* --- cross-node trace assembly ------------------------------------------ *)

let trace_spans ~trace =
  (* Flight recorder first, then whatever the journal still holds;
     dedup by span id, oldest first so a renderer can stream the tree. *)
  let flight = flight_lookup ~trace in
  let journaled = List.filter (fun c -> c.trace = trace) (recent ()) in
  let seen = Hashtbl.create 32 in
  let all =
    List.filter
      (fun c ->
        if Hashtbl.mem seen c.id then false
        else begin
          Hashtbl.add seen c.id ();
          true
        end)
      (flight @ journaled)
  in
  List.sort (fun a b -> compare a.start b.start) all

let trace_json ~id () =
  let buf = Buffer.create 2048 in
  (match Jsonx.of_hex id with
  | Some trace when String.length trace = trace_bytes ->
    let spans = trace_spans ~trace in
    Printf.bprintf buf "{\"trace\":\"%s\",\"node\":\"%s\",\"spans\":["
      (Jsonx.to_hex trace) (Jsonx.escape !node_name);
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        span_json buf c)
      spans;
    Buffer.add_string buf "]}"
  | _ -> Printf.bprintf buf "{\"error\":\"bad trace id\",\"id\":\"%s\"}"
           (Jsonx.escape id));
  Buffer.contents buf

(* --- span construction -------------------------------------------------- *)

let now () = Unix.gettimeofday ()

let close_span l =
  let stop = now () in
  let dur_ns = (stop -. l.lstart) *. 1e9 in
  let phases = List.rev l.lphases in
  let c =
    {
      id = l.lid;
      op = l.lop;
      thread = l.lthread;
      start = l.lstart;
      dur_ns;
      phases;
      attrs = List.rev l.lattrs;
      trace = l.ltrace;
      parent = l.lparent;
      flags = l.lflags;
    }
  in
  (* One registry lock for the whole span (total + every phase) rather
     than a lock round-trip per phase. *)
  Mutex.lock registry_lock;
  let total_h = histo_locked (l.lop, "total") in
  let phase_hs =
    List.map (fun p -> (histo_locked (l.lop, p.pname), p.pdur_ns)) phases
  in
  Mutex.unlock registry_lock;
  Histo.observe total_h dur_ns;
  List.iter (fun (h, d) -> Histo.observe h d) phase_hs;
  journal_add c;
  if c.trace <> "" && c.flags land (flag_sampled lor flag_forced) <> 0 then
    flight_add c

let run_phase l name f =
  let path = name :: l.path in
  (* Unnested phases (the overwhelmingly common case) keep their name
     as-is — no list reversal, no concatenation. *)
  let pname =
    match path with [ only ] -> only | _ -> String.concat "/" (List.rev path)
  in
  l.path <- path;
  let t0 = now () in
  (* Hand-rolled protect: this runs per phase on the hot path, and
     [Fun.protect]'s closure is measurable there. *)
  let finish () =
    let t1 = now () in
    l.lphases <-
      {
        pname;
        pstart_ns = (t0 -. l.lstart) *. 1e9;
        pdur_ns = (t1 -. t0) *. 1e9;
      }
      :: l.lphases;
    l.path <- (match l.path with _ :: rest -> rest | [] -> [])
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let with_phase name f =
  if not !on then f ()
  else match current () with None -> f () | Some l -> run_phase l name f

let with_op ?ctx op f =
  if not !on then f ()
  else
    match current () with
    | Some l ->
      (* An op inside an op: the inner operation is a phase of the
         outer one (a connect's context read, say). *)
      run_phase l op f
    | None ->
      let tid = self_id () in
      let start = now () in
      Mutex.lock tls_lock;
      incr id_counter;
      let trace, parent, flags =
        match ctx with
        | Some (c : ctx) when String.length c.trace = trace_bytes ->
          (c.trace, c.span, c.flags)
        | _ -> ("", 0, 0)
      in
      let l =
        {
          lid = id_salt lor !id_counter;
          lop = op;
          lthread = tid;
          lstart = start;
          lphases = [];
          lattrs = [];
          path = [];
          ltrace = trace;
          lparent = parent;
          lflags = flags;
        }
      in
      Hashtbl.replace tls tid l;
      Mutex.unlock tls_lock;
      let finish () =
        Mutex.lock tls_lock;
        Hashtbl.remove tls tid;
        Mutex.unlock tls_lock;
        close_span l
      in
      (match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e)
