open Effect.Deep

type counters = {
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_dropped : int;
}

type event = { time : float; seq : int; thunk : unit -> unit }

type t = {
  mutable clock : float;
  mutable seq : int;
  events : event Heap.t;
  handlers : (Runtime.node_id, now:float -> from:Runtime.node_id -> string -> string option) Hashtbl.t;
  down : (Runtime.node_id, unit) Hashtbl.t;
  mutable reachable : Runtime.node_id -> Runtime.node_id -> bool;
  latency : Latency.t;
  root_rng : Srng.t;
  net_rng : Srng.t;
  counters : counters;
  mutable running : bool;
}

type periodic = { mutable active : bool }

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 1) ?(latency = Latency.lan) () =
  let root_rng = Srng.create seed in
  {
    clock = 0.0;
    seq = 0;
    events = Heap.create ~compare:compare_event;
    handlers = Hashtbl.create 16;
    down = Hashtbl.create 4;
    reachable = (fun _ _ -> true);
    latency;
    net_rng = Srng.split root_rng;
    root_rng;
    counters = { messages_sent = 0; bytes_sent = 0; messages_dropped = 0 };
    running = false;
  }

let now t = t.clock
let counters t = t.counters
let rng t = t.root_rng

let reset_counters t =
  t.counters.messages_sent <- 0;
  t.counters.bytes_sent <- 0;
  t.counters.messages_dropped <- 0

let add_server t id handler = Hashtbl.replace t.handlers id handler

let set_down t id down =
  if down then Hashtbl.replace t.down id () else Hashtbl.remove t.down id

let set_reachable t pred = t.reachable <- pred

let schedule t at thunk =
  let at = max at t.clock in
  t.seq <- t.seq + 1;
  Heap.push t.events { time = at; seq = t.seq; thunk }

let is_up t id = not (Hashtbl.mem t.down id)

(* Deliver [payload] from [src] to [dst] after a sampled delay, invoking
   [on_delivery] at arrival (or counting a drop). *)
let transmit t ~src ~dst ~payload ~on_delivery =
  t.counters.messages_sent <- t.counters.messages_sent + 1;
  t.counters.bytes_sent <- t.counters.bytes_sent + String.length payload;
  if not (t.reachable src dst) then
    t.counters.messages_dropped <- t.counters.messages_dropped + 1
  else
    match Latency.sample t.latency t.net_rng with
    | None -> t.counters.messages_dropped <- t.counters.messages_dropped + 1
    | Some delay -> schedule t (t.clock +. delay) on_delivery

type pending_call = {
  mutable replies : Runtime.reply list;
  mutable reply_count : int;
  mutable resumed : bool;
  needed : int;
}

let send_oneway t ~src ~dst ~payload =
  if is_up t src || src < 0 then
    transmit t ~src ~dst ~payload ~on_delivery:(fun () ->
        if is_up t dst then
          match Hashtbl.find_opt t.handlers dst with
          | None -> ()
          | Some handler ->
            (* One-way messages may still produce a response payload (a
               gossip ack, say); it is intentionally discarded. *)
            ignore (handler ~now:t.clock ~from:src payload))

let post t ~src ~dst payload = send_oneway t ~src ~dst ~payload

(* Shared engine for Call_many (one request broadcast) and Call_scatter
   (a distinct request per destination): transmit every part, count
   replies, resume the continuation at quorum or timeout. *)
let start_scatter t ~client ~parts ~quorum ~timeout
    (k : (Runtime.reply list, unit) continuation) =
  let needed = max 0 (min quorum (List.length parts)) in
  let pending = { replies = []; reply_count = 0; resumed = false; needed } in
  let finish () =
    if not pending.resumed then begin
      pending.resumed <- true;
      continue k (List.rev pending.replies)
    end
  in
  (* Timeout fires with whatever has arrived. *)
  schedule t (t.clock +. timeout) finish;
  if needed = 0 then finish ()
  else
    List.iter
      (fun (dst, request) ->
        transmit t ~src:client ~dst ~payload:request
          ~on_delivery:(fun () ->
            if is_up t dst then
              match Hashtbl.find_opt t.handlers dst with
              | None -> ()
              | Some handler -> (
                match handler ~now:t.clock ~from:client request with
                | None -> ()
                | Some response ->
                  transmit t ~src:dst ~dst:client ~payload:response
                    ~on_delivery:(fun () ->
                      if not pending.resumed then begin
                        pending.replies <-
                          { Runtime.from = dst; payload = response }
                          :: pending.replies;
                        pending.reply_count <- pending.reply_count + 1;
                        if pending.reply_count >= pending.needed then finish ()
                      end))))
      parts

let start_call t ~client (spec : Runtime.call_spec)
    (k : (Runtime.reply list, unit) continuation) =
  start_scatter t ~client
    ~parts:(List.map (fun dst -> (dst, spec.request)) spec.dsts)
    ~quorum:spec.quorum ~timeout:spec.timeout k

let rec exec_fiber t ~client fn =
  match_with fn ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Runtime.Now ->
            Some (fun (k : (a, unit) continuation) -> continue k t.clock)
          | Runtime.Sleep d ->
            Some
              (fun (k : (a, unit) continuation) ->
                schedule t (t.clock +. d) (fun () -> continue k ()))
          | Runtime.Fork fn ->
            Some
              (fun (k : (a, unit) continuation) ->
                schedule t t.clock (fun () -> exec_fiber t ~client fn);
                continue k ())
          | Runtime.Rank dsts ->
            Some (fun (k : (a, unit) continuation) -> continue k (dsts, []))
          | Runtime.Send_oneway (dst, payload) ->
            Some
              (fun (k : (a, unit) continuation) ->
                send_oneway t ~src:client ~dst ~payload;
                continue k ())
          | Runtime.Call_many spec ->
            Some (fun (k : (a, unit) continuation) -> start_call t ~client spec k)
          | Runtime.Call_scatter spec ->
            Some
              (fun (k : (a, unit) continuation) ->
                start_scatter t ~client ~parts:spec.parts ~quorum:spec.quorum
                  ~timeout:spec.timeout k)
          | _ -> None);
    }

let spawn t ?(at = 0.0) ?(client = -1) fn =
  schedule t at (fun () -> exec_fiber t ~client fn)

let every t ?(start = 0.0) ~period ?(client = -1) fn =
  let token = { active = true } in
  let rec tick at =
    schedule t at (fun () ->
        if token.active then begin
          exec_fiber t ~client fn;
          tick (t.clock +. period)
        end)
  in
  tick start;
  token

let cancel token = token.active <- false

let run ?until ?(after_step = ignore) t =
  if t.running then invalid_arg "Engine.run: re-entrant call";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let continue_loop = ref true in
      while !continue_loop do
        match Heap.pop t.events with
        | None -> continue_loop := false
        | Some ev -> (
          match until with
          | Some limit when ev.time > limit ->
            (* Push back so a later run can resume from here. *)
            Heap.push t.events ev;
            t.clock <- limit;
            continue_loop := false
          | _ ->
            t.clock <- ev.time;
            ev.thunk ();
            after_step ())
      done)
