type plan = {
  seed : int;
  drop : float;
  delay : float;
  jitter : float;
  corrupt : float;
  reset : float;
  drip_bytes : int;
  drip_delay : float;
  blackhole : (float * float) list;
}

let plan ?(drop = 0.) ?(delay = 0.) ?(jitter = 0.) ?(corrupt = 0.)
    ?(reset = 0.) ?(drip_bytes = 0) ?(drip_delay = 0.) ?(blackhole = []) ~seed
    () =
  { seed; drop; delay; jitter; corrupt; reset; drip_bytes; drip_delay; blackhole }

(* Every fault decision is a pure function of
   (seed, connection index, direction, frame index, decision field):
   the first 30 bits of a SHA-256 digest, mapped to [0,1). No mutable
   RNG state means the schedule cannot depend on thread interleaving or
   wall-clock timing — re-running with the same seed replays the same
   drops, corruptions and resets at the same frame positions, which is
   what makes chaos failures reproducible (and lets tests assert it via
   {!decision_digest}). *)
let rand plan ~conn ~dir ~frame field =
  let d =
    Crypto.Sha256.digest
      (Printf.sprintf "%d/%d/%d/%d/%s" plan.seed conn dir frame field)
  in
  let b i = Char.code d.[i] in
  let bits = (b 0 lsl 22) lor (b 1 lsl 14) lor (b 2 lsl 6) lor (b 3 lsr 2) in
  float_of_int bits /. 1073741824.0

let decision_digest plan ~frames =
  let ctx = Crypto.Sha256.init () in
  for conn = 0 to 1 do
    for dir = 0 to 1 do
      for frame = 0 to frames - 1 do
        List.iter
          (fun field ->
            Crypto.Sha256.update ctx
              (Printf.sprintf "%.9f;" (rand plan ~conn ~dir ~frame field)))
          [ "drop"; "corrupt"; "reset"; "jitter" ]
      done
    done
  done;
  Crypto.Hexs.encode (Crypto.Sha256.finalize ctx)

type stats = {
  mutable conns : int;
  mutable forwarded : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable resets : int;
  mutable refused : int;
  mutable killed : int;
}

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  target : string * int;
  plan : plan;
  started_at : float;
  mutable running : bool;
  mutable healed : bool;
  lock : Mutex.t; (* guards conns, next_conn and stats *)
  mutable conns : Unix.file_descr list;
  mutable next_conn : int;
  stats : stats;
  mutable accept_th : Thread.t option;
  mutable monitor_th : Thread.t option;
}

let with_lock t fn =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) fn

let note t fn = with_lock t (fun () -> fn t.stats)

let track t fd = with_lock t (fun () -> t.conns <- fd :: t.conns)
let untrack t fd =
  with_lock t (fun () -> t.conns <- List.filter (fun c -> c <> fd) t.conns)

(* Blackhole windows are wall-clock intervals relative to proxy start.
   Inside one, the endpoint behaves like a partitioned host: existing
   connections are killed and new ones are torn down on arrival — the
   failure is *visible* (EOF / RST), so a client's pool marks the
   endpoint down and a server's gossip push returns false and requeues,
   rather than frames silently vanishing into an apparently healthy
   stream. *)
let blackholed t now =
  (not t.healed)
  && List.exists
       (fun (a, b) ->
         let rel = now -. t.started_at in
         rel >= a && rel < b)
       t.plan.blackhole

let header_of len =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.to_string b

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      go (off + n)
  in
  go 0

let drip_write fd s ~chunk ~pause =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n = min chunk (len - off) in
      write_all fd (String.sub s off n);
      if off + n < len then Thread.delay pause;
      go (off + n)
    end
  in
  go 0

(* One pump per direction. Frames (not bytes) are the fault unit: the
   pump reassembles each length-prefixed frame before deciding, so a
   corruption flips payload bytes under a valid header and a drop
   removes a whole message — the stream stays parseable, exercising the
   endpoints' protocol handling rather than just their resync (reset
   covers torn streams separately, by dying after header + half the
   payload). *)
let pump t ~conn_id ~dir ~src ~dst ~finish =
  let frame_idx = ref 0 in
  let p = t.plan in
  let rec loop () =
    if t.running then
      match Frame.read_frame src with
      | None -> ()
      | Some payload ->
        let i = !frame_idx in
        incr frame_idx;
        if blackholed t (Unix.gettimeofday ()) then ()
        else begin
          let healed = t.healed in
          let r field = rand p ~conn:conn_id ~dir ~frame:i field in
          if (not healed) && p.reset > 0. && r "reset" < p.reset then begin
            note t (fun s -> s.resets <- s.resets + 1);
            let keep = String.length payload / 2 in
            try
              write_all dst
                (header_of (String.length payload) ^ String.sub payload 0 keep)
            with Unix.Unix_error _ | Sys_error _ -> ()
            (* fall through: [finish] tears both sides down mid-frame *)
          end
          else if (not healed) && p.drop > 0. && r "drop" < p.drop then begin
            note t (fun s -> s.dropped <- s.dropped + 1);
            loop ()
          end
          else begin
            let d =
              if healed then 0.
              else
                p.delay
                +. (if p.jitter > 0. then p.jitter *. r "jitter" else 0.)
            in
            if d > 0. then Thread.delay d;
            let payload =
              if
                (not healed) && p.corrupt > 0.
                && String.length payload > 0
                && r "corrupt" < p.corrupt
              then begin
                note t (fun s -> s.corrupted <- s.corrupted + 1);
                let b = Bytes.of_string payload in
                let at =
                  min
                    (int_of_float (r "corrupt-at" *. float_of_int (Bytes.length b)))
                    (Bytes.length b - 1)
                in
                let flip = 1 + int_of_float (r "corrupt-bits" *. 254.) in
                Bytes.set b at
                  (Char.chr (Char.code (Bytes.get b at) lxor flip land 0xff));
                Bytes.to_string b
              end
              else payload
            in
            let buf = header_of (String.length payload) ^ payload in
            if (not healed) && p.drip_bytes > 0 then
              drip_write dst buf ~chunk:p.drip_bytes ~pause:p.drip_delay
            else write_all dst buf;
            note t (fun s -> s.forwarded <- s.forwarded + 1);
            loop ()
          end
        end
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  finish ()

let shutdown_fd fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let splice t client_fd server_fd =
  let conn_id = with_lock t (fun () ->
      let id = t.next_conn in
      t.next_conn <- id + 1;
      t.stats.conns <- t.stats.conns + 1;
      id)
  in
  Addr.set_nodelay client_fd;
  Addr.set_nodelay server_fd;
  track t client_fd;
  track t server_fd;
  (* Either pump dying tears down both directions; the second to finish
     closes the fds (shutdown wakes the peer pump out of its read). *)
  let remaining = ref 2 in
  let fin_lock = Mutex.create () in
  let finish () =
    shutdown_fd client_fd;
    shutdown_fd server_fd;
    Mutex.lock fin_lock;
    decr remaining;
    let last = !remaining = 0 in
    Mutex.unlock fin_lock;
    if last then begin
      untrack t client_fd;
      untrack t server_fd;
      (try Unix.close client_fd with Unix.Unix_error _ -> ());
      try Unix.close server_fd with Unix.Unix_error _ -> ()
    end
  in
  ignore
    (Thread.create
       (fun () -> pump t ~conn_id ~dir:0 ~src:client_fd ~dst:server_fd ~finish)
       ());
  ignore
    (Thread.create
       (fun () -> pump t ~conn_id ~dir:1 ~src:server_fd ~dst:client_fd ~finish)
       ())

let accept_loop t () =
  while t.running do
    match Unix.accept t.listener with
    | fd, _ ->
      if blackholed t (Unix.gettimeofday ()) then begin
        note t (fun s -> s.refused <- s.refused + 1);
        shutdown_fd fd;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else (
        match Addr.connect ~deadline:(Unix.gettimeofday () +. 5.0) t.target with
        | Some server_fd -> splice t fd server_fd
        | None ->
          (try Unix.close fd with Unix.Unix_error _ -> ()))
    | exception Unix.Unix_error _ -> ()
  done

(* Kills idle connections when a blackhole window opens: the pumps only
   re-check the window per forwarded frame, so a quiet connection would
   otherwise ride out the partition untouched. *)
let monitor t () =
  while t.running do
    Thread.delay 0.02;
    if blackholed t (Unix.gettimeofday ()) then begin
      let conns = with_lock t (fun () -> t.conns) in
      if conns <> [] then begin
        note t (fun s -> s.killed <- s.killed + List.length conns);
        List.iter shutdown_fd conns
      end
    end
  done

let start ?(port = 0) ~plan ~target () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listener 64;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let t =
    {
      listener;
      bound_port;
      target;
      plan;
      started_at = Unix.gettimeofday ();
      running = true;
      healed = false;
      lock = Mutex.create ();
      conns = [];
      next_conn = 0;
      stats =
        {
          conns = 0;
          forwarded = 0;
          dropped = 0;
          corrupted = 0;
          resets = 0;
          refused = 0;
          killed = 0;
        };
      accept_th = None;
      monitor_th = None;
    }
  in
  t.accept_th <- Some (Thread.create (accept_loop t) ());
  if t.plan.blackhole <> [] then t.monitor_th <- Some (Thread.create (monitor t) ());
  t

let port t = t.bound_port

let heal t = t.healed <- true

let stats t =
  with_lock t (fun () ->
      {
        conns = t.stats.conns;
        forwarded = t.stats.forwarded;
        dropped = t.stats.dropped;
        corrupted = t.stats.corrupted;
        resets = t.stats.resets;
        refused = t.stats.refused;
        killed = t.stats.killed;
      })

let stop t =
  t.running <- false;
  (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.accept_th with Some th -> Thread.join th | None -> ());
  (* Monitor wakes within its 20 ms tick and sees [running = false]. *)
  (match t.monitor_th with Some th -> Thread.join th | None -> ());
  let conns = with_lock t (fun () -> t.conns) in
  List.iter shutdown_fd conns
