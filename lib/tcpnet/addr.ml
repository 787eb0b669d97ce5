(* Endpoint addressing shared by every transport socket. [inet_addr_of_string]
   re-parses the dotted quad on each call, which showed up in profiles once
   connections stopped dominating; the cache makes repeated dials to the same
   endpoint a hashtable hit. *)

(* The pooled transport treats writing to a dead peer as a normal code
   path (the writer's EPIPE feeds kill_conn/retry), but the default
   SIGPIPE disposition would kill the process before the error-handling
   code ever sees Unix_error EPIPE. Ignore it once, at transport load. *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> () (* no SIGPIPE on this platform *)

let cache : (string, Unix.inet_addr) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()

let inet_addr host =
  Mutex.lock cache_lock;
  match Hashtbl.find_opt cache host with
  | Some addr ->
    Mutex.unlock cache_lock;
    addr
  | None ->
    Mutex.unlock cache_lock;
    (* Parse outside the lock: a bad host raises without poisoning it. *)
    let addr = Unix.inet_addr_of_string host in
    Mutex.lock cache_lock;
    Hashtbl.replace cache host addr;
    Mutex.unlock cache_lock;
    addr

let sockaddr (host, port) = Unix.ADDR_INET (inet_addr host, port)

(* Small framed RPCs are exactly the traffic Nagle's algorithm delays;
   every transport socket disables it. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* A blocking connect to a host that drops SYNs (a full accept queue)
   waits for the kernel's retries, minutes. Linux bounds connect by
   SO_SNDTIMEO (a timed-out one fails with EINPROGRESS), so the dial
   sets it to the time left before [deadline] and clears it afterwards,
   leaving later writes unbounded. Unlike a non-blocking connect waited
   on with select, this works for any descriptor number. *)
let connect ?read_timeout ~deadline endpoint =
  match sockaddr endpoint with
  | exception _ -> None
  | addr -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      set_nodelay fd;
      (match read_timeout with
      | Some t -> (
        try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t
        with Unix.Unix_error _ -> ())
      | None -> ());
      (* 0 would mean no limit: a past deadline still gets 1 ms. *)
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO
        (Float.max 1e-3 (deadline -. Unix.gettimeofday ()));
      Unix.connect fd addr;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.0
    with
    | () -> Some fd
    | exception _ ->
      (try Unix.close fd with _ -> ());
      None)
