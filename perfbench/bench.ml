(* The store's benchmark: one workload on a four-process cluster.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The cluster is n=4, b=1 with 2 shards on loopback TCP: four server.exe
   processes, process r hosting replica r of both shards, gossiping at the
   daemon's default period. Load comes from this process, one
   Store.Router per client thread over Tcpnet.Live and the shared Pool.
   The seed drives every generated op; the store sees only those ops.

   --trace 0 measures the end-to-end metrics with span tracing off in
   every process. --trace 1 runs an untraced window and then a traced one
   (spans on everywhere, every trace sampled, the oracle recording), and
   reports per-layer metrics: it joins this process's op spans, the
   effect-level transport log and the servers' span journals.

   Every read is checked from outside: it must parse, name its key, and
   carry a version no older than the last one this thread wrote or read
   for that key. The traced window also runs Check.Oracle over the
   recorded history. A run that fails a check prints its seed and exits 2.

   Human-readable lines go first; the last stdout line is one JSON object
   with correct/attempted/failed/metrics. *)

open Cluster

let groups = 64

(* One client timeout for every workload, sized for loopback: a silent
   replica costs a suspicion round, not a multi-second stall. *)
let timeout = 0.3

type workload = {
  name : string;
  keys : int;  (** preloaded keys (zipfian ranks); 0 = no preload *)
  value_bytes : int;
  theta : float;
  write_ratio : float;
  rate : float;  (** offered ops/s over all threads; 0 = closed loop *)
  threads : int;
  signing : Store.Client.signing_mode;
  escalate_every : int;
  session_ops : int;  (** ops per router session before a disconnect *)
  limit_ms : float;  (** latency limit behind in_limit_ratio *)
  crash_replica0 : bool;
  read_back : bool;
      (** a read fetches the key of the thread's previous write rather
          than a zipfian draw *)
}

let read_heavy =
  {
    name = "read-heavy";
    keys = 6144;
    value_bytes = 512;
    theta = 0.99;
    write_ratio = 0.05;
    rate = 240.0;
    threads = 2;
    signing = Store.Client.Per_write_sig;
    escalate_every = 8;
    session_ops = 50;
    limit_ms = 100.0;
    crash_replica0 = false;
    read_back = false;
  }

let workloads =
  [
    read_heavy;
    {
      read_heavy with
      name = "write-heavy";
      keys = 1024;
      write_ratio = 0.9;
      rate = 100.0;
      signing = Store.Client.Mac_fast;
      escalate_every = 8;
      limit_ms = 250.0;
      (* Reading back its own latest write makes every read pay the
         pending-escalation flush; reads drawn over all groups would pay
         it half the time, and a p50 over that 50/50 mix is unsteady. *)
      read_back = true;
    };
    {
      read_heavy with
      name = "bulk-coded";
      keys = 0;
      value_bytes = 1 lsl 20;
      rate = 0.0;
      threads = 1;
      session_ops = 4;
      limit_ms = 1000.0;
    };
    { read_heavy with name = "degraded"; rate = 200.0; limit_ms = 400.0; crash_replica0 = true };
  ]

(* ---------------------------------------------------------------- stats *)

(* Exact nearest-rank percentile over raw samples. *)
let pct p a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
    s.(min n rank - 1)
  end

let beyond v a = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a
let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)
let ratio x y = if y = 0.0 then 0.0 else x /. y
let fi = float_of_int
let now = Unix.gettimeofday

(* ------------------------------------------------------ server processes *)

let reserve_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close fd;
  p

type proc = { pid : int; out_file : string }

let live_pids : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_pids := List.filter (( <> ) pid) !live_pids

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live_pids

let server_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "server.exe"

(* Spawn the four replicas and wait until each is listening. *)
let spawn_cluster ~dir ~crash0 =
  let ports = Array.init n (fun _ -> reserve_port ()) in
  let ep r = Printf.sprintf "127.0.0.1:%d" ports.(r) in
  let procs =
    Array.init n (fun r ->
        let peers =
          String.concat "," (List.filter_map (fun p -> if p = r then None else Some (ep p)) (List.init n Fun.id))
        in
        let out_file = Filename.concat dir (Printf.sprintf "r%d.stats" r) in
        let args =
          [ server_exe; "--replica"; string_of_int r; "--port"; string_of_int ports.(r);
            "--peers"; peers; "--state"; dir; "--out"; out_file ]
          @ if crash0 && r = 0 then [ "--crash" ] else []
        in
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process server_exe (Array.of_list args) Unix.stdin wr Unix.stderr
        in
        live_pids := pid :: !live_pids;
        Unix.close wr;
        (pid, out_file, Unix.in_channel_of_descr rd))
  in
  Array.map
    (fun (pid, out_file, ic) ->
      (match input_line ic with
      | "ready" -> ()
      | l -> failwith ("server said: " ^ l)
      | exception End_of_file -> failwith "server exited during start-up");
      close_in ic;
      { pid; out_file })
    procs,
  ports

(* Ports are reserved by bind-and-close, so another socket can take one
   before its server binds it; a cluster that fails to start is retried. *)
let rec start_cluster ?(attempt = 1) ~dir ~crash0 () =
  try spawn_cluster ~dir ~crash0
  with Failure msg when attempt < 5 ->
    Printf.eprintf "bench: cluster start failed (%s), retrying\n%!" msg;
    kill_all ();
    start_cluster ~attempt:(attempt + 1) ~dir ~crash0 ()

let signal_all procs s = Array.iter (fun p -> Unix.kill p.pid s) procs

(* SIGTERM, wait, and read back each server's stats file. *)
let stop_cluster procs =
  signal_all procs Sys.sigterm;
  Array.iter (fun p -> reap p.pid) procs;
  Array.map
    (fun p ->
      let ic = open_in_bin p.out_file in
      let rec go acc =
        match input_line ic with
        | l -> go (String.split_on_char '\t' l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = go [] in
      close_in ic;
      lines)
    procs

(* ------------------------------------------------------------ the store *)

let table = Store.Shardmap.make ~seed:"perfbench" ~shards ()

let config_of w shard =
  {
    (Store.Client.default_config ~n ~b) with
    Store.Client.servers = Store.Router.shard_servers ~n shard;
    timeout;
    (* A write re-send and backed-off read retries, so a host stall
       longer than the timeout does not fail the op. *)
    write_retries = 1;
    read_retries = 4;
    retry_backoff_max = 0.2;
    signing = w.signing;
    escalate_every = w.escalate_every;
  }

let group_id uid =
  let g = Store.Uid.group uid in
  int_of_string (String.sub g 1 (String.length g - 1))

let owner w uid = group_id uid mod w.threads

(* A value names its key and version; the rest is padding. *)
let make_value ~pad uid version size =
  let h = Printf.sprintf "%s %d " (Store.Uid.to_string uid) version in
  if String.length h >= size then h
  else h ^ String.sub pad 0 (size - String.length h)

let parse_value v =
  match String.index_opt v ' ' with
  | None -> None
  | Some i -> (
    match String.index_from_opt v (i + 1) ' ' with
    | None -> None
    | Some j ->
      Option.map
        (fun ver -> (String.sub v 0 i, ver))
        (int_of_string_opt (String.sub v (i + 1) (j - i - 1))))

(* The preload: every key written once at version 0 by its owner through
   the real client protocol, interpreted in-process (Sim.Direct) against
   all eight shard replicas, gossip exchanged to quiescence, and each
   replica's state saved as the snapshot its server process restores.
   Pushes carry no [have] summary: it only feeds log erasure, and a
   summary of every item on every exchange makes the preload quadratic. *)
let preload w ~dir ~keys ~pad =
  let keyring = keyring () in
  let config = Store.Server.default_config ~n ~b in
  let servers =
    Array.init (shards * n) (fun id -> Store.Server.create ~config ~id ~keyring ~n ~b ())
  in
  let handlers dst ~from req =
    if dst >= 0 && dst < Array.length servers then
      Store.Server.handler servers.(dst) ~now:(now ()) ~from req
    else None
  in
  let rec gossip pass =
    let moved = ref false in
    Array.iteri
      (fun id srv ->
        match Store.Server.take_gossip_buffer srv with
        | [] -> ()
        | writes ->
          moved := true;
          let env =
            {
              Store.Payload.token = None;
              epoch = 0;
              request =
                Store.Payload.Gossip_push { writes; have = []; epoch = None };
            }
          in
          let shard = id / n in
          for r = 0 to n - 1 do
            let peer = (shard * n) + r in
            if peer <> id then
              ignore (Store.Server.handle servers.(peer) ~now:(now ()) ~from:id env)
          done)
      servers;
    if !moved && pass < 4 then gossip (pass + 1)
  in
  let preload_config shard =
    { (config_of w shard) with Store.Client.signing = Store.Client.Per_write_sig }
  in
  Sim.Direct.run ~handlers (fun () ->
      let routers =
        Array.init w.threads (fun tid ->
            let uid = Printf.sprintf "t%d" tid in
            Store.Router.create ~table ~uid ~key:keys.(tid) ~keyring
              ~config_of:preload_config ())
      in
      for k = 0 to w.keys - 1 do
        let uid = Workload.Openloop.uid_of_key ~groups k in
        (match
           Store.Router.write routers.(owner w uid) ~uid
             (make_value ~pad uid 0 w.value_bytes)
         with
        | Ok () -> ()
        | Error e -> failwith ("preload: " ^ Store.Client.error_to_string e));
        if k mod 256 = 255 then gossip 0
      done);
  gossip 0;
  Array.iteri
    (fun id srv ->
      Store.Server.save_file srv
        ~path:(snapshot_path ~dir ~replica:(id mod n) ~shard:(id / n)))
    servers

(* ------------------------------------------------ the effect interposer *)

(* What one op asked of the network: each quorum round's duration, the
   one-way sends, the sleeps, and the bytes and messages involved. *)
type io = {
  mutable rounds : int;
  mutable short : int;  (** rounds that returned fewer replies than their quorum *)
  mutable round_ns : float list;
  mutable net_ns : float;  (** rounds plus one-way sends *)
  mutable sleep_ns : float;
  mutable msgs : int;
  mutable bytes : int;
}

let new_io () =
  { rounds = 0; short = 0; round_ns = []; net_ns = 0.0; sleep_ns = 0.0; msgs = 0; bytes = 0 }

let reply_bytes = List.fold_left (fun a (r : Sim.Runtime.reply) -> a + String.length r.payload) 0

(* Sits between the Router and Live: times every Call_many, Call_scatter,
   Send_oneway and Sleep the thunk performs, then re-performs the effect
   for the transport underneath. *)
let interpose io f =
  let open Effect.Deep in
  let timed k eff account =
    let t0 = now () in
    let r = Effect.perform eff in
    let ns = (now () -. t0) *. 1e9 in
    account ns r;
    continue k r
  in
  let round ns ~quorum ~sent replies =
    io.rounds <- io.rounds + 1;
    if List.length replies < quorum then io.short <- io.short + 1;
    io.round_ns <- ns :: io.round_ns;
    io.net_ns <- io.net_ns +. ns;
    io.bytes <- io.bytes + sent + reply_bytes replies
  in
  match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sim.Runtime.Call_many spec ->
            Some
              (fun (k : (a, _) continuation) ->
                timed k eff (fun ns (replies : Sim.Runtime.reply list) ->
                    let d = List.length spec.dsts in
                    io.msgs <- io.msgs + d + List.length replies;
                    round ns ~quorum:(min spec.quorum d)
                      ~sent:(d * String.length spec.request) replies))
          | Sim.Runtime.Call_scatter spec ->
            Some
              (fun (k : (a, _) continuation) ->
                timed k eff (fun ns (replies : Sim.Runtime.reply list) ->
                    let d = List.length spec.parts in
                    io.msgs <- io.msgs + d + List.length replies;
                    round ns ~quorum:(min spec.quorum d)
                      ~sent:(List.fold_left (fun a (_, p) -> a + String.length p) 0 spec.parts)
                      replies))
          | Sim.Runtime.Send_oneway (_, payload) ->
            Some
              (fun (k : (a, _) continuation) ->
                timed k eff (fun ns () ->
                    io.msgs <- io.msgs + 1;
                    io.bytes <- io.bytes + String.length payload;
                    io.net_ns <- io.net_ns +. ns))
          | Sim.Runtime.Sleep _ ->
            Some
              (fun (k : (a, _) continuation) ->
                timed k eff (fun ns () -> io.sleep_ns <- io.sleep_ns +. ns))
          | _ -> None);
    }

(* ------------------------------------------------------------- windows *)

type kind = Read | Write | Connect | Disconnect

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Connect -> "connect"
  | Disconnect -> "disconnect"

type sample = {
  kind : kind;
  due : float;  (** when the op was scheduled (open loop) or issued *)
  lat : float;  (** seconds from [due] to completion *)
  service : float;  (** seconds inside the store call *)
  ok : bool;
  user_bytes : int;
  span : int;  (** bench span id when traced, else 0 *)
  sio : io option;
}

(* Per-thread state that outlives windows: the router, its open groups,
   and the versions this thread last wrote or read per key. *)
type client = {
  tid : int;
  router : Store.Router.t;
  opened : (string, unit) Hashtbl.t;
  seen : (string, int) Hashtbl.t;
  written : (string, unit) Hashtbl.t;  (** uids written since set-up *)
  prior : (string, unit) Hashtbl.t;
      (** digests of values written before the oracle's history began *)
  mutable in_session : int;
  mutable check_failures : int;
  mutable bulk_next : int;  (** next fresh key of the closed loop *)
  mutable errors : int;
}

type window = {
  samples : sample list;
  gen_lag : float list;  (** seconds a due op was issued late by an idle generator *)
  t_start : float;
  t_end : float;
}

(* Traced runs keep the digest of every value written before the
   oracle's history starts, so a read of one is not taken for a forgery. *)
let log_prior = ref false

let check_read c uid v =
  let key = Store.Uid.to_string uid in
  let ok =
    match parse_value v with
    | Some (name, ver) when name = key ->
      let last = Option.value ~default:(-1) (Hashtbl.find_opt c.seen key) in
      if ver >= last then begin
        Hashtbl.replace c.seen key ver;
        true
      end
      else false
    | _ -> false
  in
  if not ok then c.check_failures <- c.check_failures + 1

(* The first few failed ops of a thread are named on stderr. *)
let note_error c what uid = function
  | Ok _ -> ()
  | Error e ->
    c.errors <- c.errors + 1;
    if c.errors <= 5 then
      Printf.eprintf "bench: t%d %s %s failed: %s\n%!" c.tid what (Store.Uid.to_string uid)
        (Store.Client.error_to_string e)

(* Run [f] as one measured call: traced windows wrap it in a bench span
   and the interposer. *)
let call ~traced kind f =
  if traced then begin
    let io = new_io () and span = ref 0 in
    let r =
      Obs.Span.with_op ("bench_" ^ kind_name kind) (fun () ->
          span := Option.value ~default:0 (Obs.Span.current_id ());
          interpose io f)
    in
    (r, !span, Some io)
  end
  else (f (), 0, None)

let disconnect ~traced c acc =
  if Hashtbl.length c.opened > 0 then begin
    let t0 = now () in
    let r, span, sio = call ~traced Disconnect (fun () -> Store.Router.disconnect c.router) in
    let d = now () -. t0 in
    acc :=
      { kind = Disconnect; due = t0; lat = d; service = d; ok = Result.is_ok r; user_bytes = 0;
        span; sio }
      :: !acc
  end;
  Hashtbl.reset c.opened;
  c.in_session <- 0

let connect ~traced c acc uid =
  let group = Store.Uid.group uid in
  if Hashtbl.mem c.opened group then true
  else begin
    let t0 = now () in
    let r, span, sio =
      call ~traced Connect (fun () -> Result.map ignore (Store.Router.session c.router ~group))
    in
    let d = now () -. t0 in
    let ok = Result.is_ok r in
    acc := { kind = Connect; due = t0; lat = d; service = d; ok; user_bytes = 0; span; sio } :: !acc;
    if ok then Hashtbl.replace c.opened group ();
    ok
  end

(* One read or write, session bookkeeping included; [due] is when the op
   was scheduled (open loop) or issued (closed loop). *)
let do_op w ~traced ~pad ~expect c acc ~due (kind : Workload.Openloop.kind) uid =
  if c.in_session >= w.session_ops then disconnect ~traced c acc;
  c.in_session <- c.in_session + 1;
  let connected = connect ~traced c acc uid in
  let key = Store.Uid.to_string uid in
  let t0 = now () in
  let kind, ok, bytes, span, sio =
    match kind with
    | Workload.Openloop.Write ->
      let ver = 1 + Option.value ~default:0 (Hashtbl.find_opt c.seen key) in
      let v = make_value ~pad uid ver w.value_bytes in
      let r, span, sio =
        if connected then call ~traced Write (fun () -> Store.Router.write c.router ~uid v)
        else (Error Store.Client.Disconnected, 0, None)
      in
      let ok = Result.is_ok r in
      note_error c "write" uid r;
      if !log_prior then Hashtbl.replace c.prior (Crypto.Sha256.hex_digest v) ();
      if ok then begin
        Hashtbl.replace c.seen key ver;
        Hashtbl.replace c.written key ();
        Hashtbl.replace expect key v
      end;
      (Write, ok, String.length v, span, sio)
    | Workload.Openloop.Read ->
      let r, span, sio =
        if connected then call ~traced Read (fun () -> Store.Router.read c.router ~uid)
        else (Error Store.Client.Disconnected, 0, None)
      in
      note_error c "read" uid r;
      (match r with
      | Ok v ->
        check_read c uid v;
        (match Hashtbl.find_opt expect key with
        | Some e when e <> v -> c.check_failures <- c.check_failures + 1
        | _ -> ())
      | Error _ -> ());
      let bytes = match r with Ok v -> String.length v | Error _ -> 0 in
      (Read, Result.is_ok r, bytes, span, sio)
  in
  let t1 = now () in
  acc :=
    { kind; due; lat = t1 -. due; service = t1 -. t0; ok; user_bytes = bytes; span; sio } :: !acc

let live ~ports f =
  let endpoints id =
    if id >= 0 && id < shards * n then Some ("127.0.0.1", ports.(id mod n)) else None
  in
  Tcpnet.Live.run ~endpoints ~shard_of:(fun node -> Some (node / n)) f

(* A client thread that dies counts as a failed check, not a lost one. *)
let guard c f =
  try f ()
  with e ->
    Printf.eprintf "client thread %d: %s\n%!" c.tid (Printexc.to_string e);
    c.check_failures <- c.check_failures + 1

(* Open loop: each thread follows its own fixed schedule (rate split
   evenly), writing only the groups it owns. Openloop.plan spaces a
   thread's ops evenly, so identical threads would send at the same
   instants and end their sessions together, each disconnect competing
   with the other's for the CPU. Two independent clients are not locked
   in step: thread i's schedule is shifted by i/rate, so the threads'
   ops interleave into one evenly spaced stream, and its first session is
   cut short by i/threads of a session, so their disconnects alternate. *)
let open_loop w ~ports ~clients ~seed ~tag ~duration ~traced ~pad =
  let per_thread = w.rate /. fi w.threads in
  let plans =
    Array.map
      (fun c ->
        Workload.Openloop.plan
          ~seed:(Printf.sprintf "%d!%s!t%d" seed tag c.tid)
          ~keys:(max 1 w.keys) ~theta:w.theta ~groups ~rate:per_thread ~duration
          ~write_ratio:w.write_ratio
          ~owned_groups:(List.filter (fun g -> g mod w.threads = c.tid) (List.init groups Fun.id)))
      clients
  in
  let read_back plan =
    let last = ref None in
    Array.map
      (fun (op : Workload.Openloop.op) ->
        match (op.kind, !last) with
        | Workload.Openloop.Write, _ ->
          last := Some op.uid;
          op
        | Workload.Openloop.Read, Some uid -> { op with uid }
        | Workload.Openloop.Read, None -> op)
      plan
  in
  let plans = if w.read_back then Array.map read_back plans else plans in
  let t_start = now () +. 0.05 in
  let results = Array.make (Array.length clients) ([], [], t_start) in
  let run c =
    let acc = ref [] and lags = ref [] and expect = Hashtbl.create 1 in
    let shift = fi c.tid /. w.rate in
    c.in_session <- c.tid * w.session_ops / w.threads;
    guard c @@ fun () ->
    live ~ports (fun () ->
        Array.iter
          (fun (op : Workload.Openloop.op) ->
            let due = t_start +. shift +. op.at in
            let t = now () in
            if due > t then begin
              Thread.delay (due -. t);
              lags := (now () -. due) :: !lags
            end;
            do_op w ~traced ~pad ~expect c acc ~due op.kind op.uid)
          plans.(c.tid));
    results.(c.tid) <- (!acc, !lags, now ())
  in
  let ths = Array.map (fun c -> Thread.create run c) clients in
  Array.iter Thread.join ths;
  let samples = Array.fold_left (fun a (s, _, _) -> s @ a) [] results in
  let gen_lag = Array.fold_left (fun a (_, l, _) -> l @ a) [] results in
  let t_end = Array.fold_left (fun a (_, _, e) -> Float.max a e) t_start results in
  (* End every session so the next window starts from stored contexts. *)
  Array.iter (fun c -> live ~ports (fun () -> disconnect ~traced:false c (ref []))) clients;
  { samples; gen_lag; t_start; t_end }

(* Closed loop, one thread: write a fresh key, read it back, next key.
   Keys are not overwritten within a run, so stored bytes per user byte
   measures coding, not how many old versions a run left behind. All keys
   share one group, so every session after the first resumes a stored
   context. With [pairs] the loop runs that many pairs instead of until
   [duration] has passed. *)
let closed_loop w ~ports ~clients ~duration ?pairs ~traced ~pad () =
  let c = clients.(0) in
  let acc = ref [] and expect = Hashtbl.create 1 in
  let t_start = now () and done_pairs = ref 0 in
  let more () =
    match pairs with Some p -> !done_pairs < p | None -> now () -. t_start < duration
  in
  live ~ports (fun () ->
      while more () do
        incr done_pairs;
        let k = c.bulk_next in
        c.bulk_next <- k + 1;
        let uid =
          Store.Uid.make ~group:"g0" ~item:(Printf.sprintf "bulk%d" k)
        in
        do_op w ~traced ~pad ~expect c acc ~due:(now ()) Workload.Openloop.Write uid;
        do_op w ~traced ~pad ~expect c acc ~due:(now ()) Workload.Openloop.Read uid;
        (* Checked; holding every written MiB would grow this process's
           heap, and its collection time, with the run's op count. *)
        Hashtbl.reset expect
      done;
      disconnect ~traced:false c (ref []));
  { samples = !acc; gen_lag = []; t_start; t_end = now () }

let run_window w ~ports ~clients ~seed ~tag ~duration ?pairs ~traced ~pad () =
  if w.rate > 0.0 then open_loop w ~ports ~clients ~seed ~tag ~duration ~traced ~pad
  else closed_loop w ~ports ~clients ~duration ?pairs ~traced ~pad ()

(* ------------------------------------------------------------ reporting *)

let metrics_out : (string * float * string) list ref = ref []

let report name value unit =
  metrics_out := (name, value, unit) :: !metrics_out;
  Printf.printf "  %-34s %14.4f %s\n" name value unit

let lats kind samples =
  Array.of_list (List.filter_map (fun s -> if s.kind = kind then Some s.lat else None) samples)

(* A timing metric is the exact nearest-rank percentile over every sample
   of its kind; the line below gives the sample count and how many lie
   beyond it. *)
let pct_ms name p kind samples =
  let all = lats kind samples in
  let v = pct p all in
  report name (v *. 1e3) "ms";
  Printf.printf "  %-34s %14d samples, %d beyond\n" "" (Array.length all) (beyond v all)

let is_op s = s.kind = Read || s.kind = Write

let stat_field lines key =
  List.fold_left
    (fun acc l -> match l with [ k; v ] when k = key -> acc +. float_of_string v | _ -> acc)
    0.0 lines

(* (honest, snapshot ms, snapshot bytes, storage bytes, audit length) per
   hosted shard replica. *)
let shard_rows stats =
  List.concat_map
    (fun lines ->
      List.filter_map
        (function
          | [ "shard"; _; honest; ms; snap; stored; audit ] ->
            Some
              ( honest = "1", float_of_string ms, float_of_string snap,
                float_of_string stored, float_of_string audit )
          | _ -> None)
        lines)
    (Array.to_list stats)

(* End-to-end metrics of one measured window. *)
let end_to_end w ~setup_s ~win ~client_bytes ~stats ~live_bytes =
  let s = win.samples in
  let ops = List.filter is_op s in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun x -> not x.ok) ops) in
  let elapsed = win.t_end -. win.t_start in
  let limit = w.limit_ms /. 1e3 in
  report "setup_s" setup_s "s";
  pct_ms "connect_p50_ms" 50.0 Connect s;
  pct_ms "disconnect_p50_ms" 50.0 Disconnect s;
  pct_ms "read_p50_ms" 50.0 Read s;
  pct_ms "read_p99_ms" 99.0 Read s;
  pct_ms "write_p50_ms" 50.0 Write s;
  pct_ms "write_p99_ms" 99.0 Write s;
  report "throughput_ops_s" (fi (List.length (List.filter (fun x -> x.ok) ops)) /. elapsed) "1/s";
  report "in_limit_ratio"
    (ratio (fi (List.length (List.filter (fun x -> x.ok && x.lat <= limit) ops))) (fi attempted))
    "ratio";
  Printf.printf "  %-34s %14.4f ratio (%d of %d; untracked, 0 when healthy)\n" "failed_ratio"
    (ratio (fi failed) (fi attempted)) failed attempted;
  (* The median op's user bytes per second inside the store call. *)
  let mib_s kind =
    pct 50.0
      (Array.of_list
         (List.filter_map
            (fun x ->
              if x.kind = kind && x.ok then Some (fi x.user_bytes /. 1048576.0 /. x.service)
              else None)
            ops))
  in
  report "bulk_write_mib_s" (mib_s Write) "MiB/s";
  report "bulk_read_mib_s" (mib_s Read) "MiB/s";
  let user = fi (List.fold_left (fun a x -> a + x.user_bytes) 0 ops) in
  let gossip = Array.fold_left (fun a l -> a +. stat_field l "gossip_bytes") 0.0 stats in
  report "wire_bytes_per_user_byte" (ratio (client_bytes +. gossip) user) "ratio";
  let stored = List.fold_left (fun a (_, _, _, st, _) -> a +. st) 0.0 (shard_rows stats) in
  report "stored_bytes_per_user_byte" (ratio stored live_bytes) "ratio";
  report "server_heap_mb"
    (Array.fold_left (fun a l -> a +. stat_field l "top_heap_words") 0.0 stats
    *. fi (Sys.word_size / 8) /. 1048576.0)
    "MB";
  if win.gen_lag <> [] then begin
    let lag = Array.of_list win.gen_lag in
    let p99 = pct 99.0 lag in
    Printf.printf "  %-34s %14.4f ms (generator lateness)\n" "bench.gen_lag_p99_ms" (p99 *. 1e3);
    List.iter
      (fun (k, name) ->
        Printf.printf "  %-34s %14d samples beyond gen_lag_p99\n" name
          (beyond p99 (lats k s)))
      [ (Read, "read latency"); (Write, "write latency") ]
  end;
  (attempted, failed)

(* ------------------------------------------------------- traced layers *)

let last_component name =
  match String.rindex_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let phase_ns (c : Obs.Span.closed) names =
  List.fold_left
    (fun a (p : Obs.Span.phase) ->
      if List.mem (last_component p.pname) names then a +. p.pdur_ns else a)
    0.0 c.phases

let phase_count (c : Obs.Span.closed) name =
  List.length (List.filter (fun (p : Obs.Span.phase) -> last_component p.pname = name) c.phases)

let median_of f n =
  let a = Array.init n (fun _ -> f ()) in
  pct 50.0 a

let time_us f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  (now () -. t0) *. 1e6

(* Unit costs of the primitives, called directly at this workload's sizes. *)
let unit_costs w key =
  let msg = String.make (min w.value_bytes 1024) 'v' in
  let sig_ = Crypto.Rsa.sign key msg in
  let sign_us = median_of (fun () -> time_us (fun () -> Crypto.Rsa.sign key msg)) 40 in
  let verify_us =
    median_of
      (fun () -> time_us (fun () -> Crypto.Rsa.verify key.Crypto.Rsa.public ~msg ~signature:sig_))
      200
  in
  let hkey = String.make 32 'k' and hmsg = String.make w.value_bytes 'v' in
  let hmac_us =
    median_of (fun () -> time_us (fun () -> Crypto.Hmac.sha256 ~key:hkey (String.sub hmsg 0 (min 4096 w.value_bytes)))) 300
  in
  let mib = String.make 1048576 'd' in
  let sha_us = median_of (fun () -> time_us (fun () -> Crypto.Sha256.digest mib)) 7 in
  (sign_us, verify_us, hmac_us, 1e6 /. sha_us)

(* The cheapest quorum round: a context read for a group nobody uses. *)
let null_round_us ~ports =
  let request =
    Store.Payload.encode_envelope
      { Store.Payload.token = None; epoch = 0;
        request = Store.Payload.Ctx_read { client = "t0"; group = "none" } }
  in
  live ~ports (fun () ->
      median_of
        (fun () ->
          time_us (fun () ->
              Sim.Runtime.call_many ~timeout ~quorum:(n - b)
                (Store.Router.shard_servers ~n 0) request))
        200)

type server_span = { sop : string; sparent : int; sdur : float; sphases : (string * float) list }

let server_spans stats =
  List.concat_map
    (fun lines ->
      List.filter_map
        (function
          | [ "span"; op; _; _; parent; dur; phases ] ->
            Some
              {
                sop = op;
                sparent = int_of_string parent;
                sdur = float_of_string dur;
                sphases =
                  List.filter_map
                    (fun kv ->
                      match String.index_opt kv '=' with
                      | Some i ->
                        Some
                          ( String.sub kv 0 i,
                            float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
                      | None -> None)
                    (String.split_on_char ';' phases);
              }
          | _ -> None)
        lines)
    (Array.to_list stats)

let per_layer ~untraced ~traced ~delta ~gc ~units ~null_us ~stats ~violations =
  let sign_us, verify_us, hmac_us, sha_mib_s = units in
  let spans = Hashtbl.create 4096 in
  List.iter (fun (c : Obs.Span.closed) -> Hashtbl.replace spans c.id c) (Obs.Span.recent ());
  let s = traced.samples in
  let with_span kind =
    List.filter_map
      (fun x ->
        if x.kind = kind then
          Option.map (fun c -> (x, c, Option.get x.sio)) (Hashtbl.find_opt spans x.span)
        else None)
      s
  in
  let reads = with_span Read and writes = with_span Write in
  let ops = reads @ writes in
  let nops = fi (max 1 (List.length ops)) in
  let nwrites = fi (max 1 (List.length writes)) in
  let us = Array.map (fun v -> v /. 1e3) in
  let p50 f l = pct 50.0 (us (Array.of_list (List.map f l))) in
  let self (_, (c : Obs.Span.closed), io) = c.dur_ns -. io.net_ns -. io.sleep_ns in
  let compute = [ "sign"; "batch_sign"; "mac"; "verify"; "encode"; "decode" ] in
  (* Self time is the span less rounds and sleeps, so the three add up to
     the span by construction; what can fail is the split itself, an op
     whose timed rounds and sleeps overrun its span (0.1 ms slack). *)
  Printf.printf "  layers: self + rounds + sleeps = op span, split consistent on %d of %d ops\n"
    (List.length (List.filter (fun o -> self o >= -1e5) ops))
    (List.length ops);
  (* client *)
  report "client.read.self_us" (p50 self reads) "us";
  report "client.write.self_us" (p50 self writes) "us";
  report "client.write.sign_us" (p50 (fun (_, c, _) -> phase_ns c [ "sign"; "batch_sign" ]) writes) "us";
  let discs = with_span Disconnect in
  report "client.disconnect.sign_us" (p50 (fun (_, c, _) -> phase_ns c [ "sign" ]) discs) "us";
  report "client.write.mac_us" (p50 (fun (_, c, _) -> phase_ns c [ "mac" ]) writes) "us";
  let escalations =
    List.concat_map
      (fun (_, (c : Obs.Span.closed), _) ->
        List.filter_map
          (fun (p : Obs.Span.phase) ->
            if last_component p.pname = "escalate_evidence" then Some (p.pdur_ns /. 1e3) else None)
          c.phases)
      (ops @ discs)
  in
  report "client.escalate_us" (pct 50.0 (Array.of_list escalations)) "us";
  report "client.backoff_us" (mean (Array.of_list (List.map (fun (_, _, io) -> io.sleep_ns /. 1e3) ops))) "us";
  let d (f : Store.Metrics.snapshot -> int) = fi (f delta) in
  report "client.retries_per_op" (d (fun m -> m.retries) /. nops) "count";
  report "client.escalations_per_op" (d (fun m -> m.escalations) /. nops) "count";
  (* crypto *)
  report "crypto.signs_per_op" (d (fun m -> m.signs) /. nops) "count";
  report "crypto.verifies_per_op" (d (fun m -> m.verifies) /. nops) "count";
  report "crypto.rsa_verifies_per_op" (fi (Store.Metrics.rsa_verifies delta) /. nops) "count";
  report "crypto.macs_per_op" (d (fun m -> m.macs) /. nops) "count";
  report "crypto.digests_per_op" (d (fun m -> m.digests) /. nops) "count";
  report "crypto.sigcache_hit_ratio"
    (ratio (d (fun m -> m.sigcache_hits)) (d (fun m -> m.sigcache_hits + m.sigcache_misses)))
    "ratio";
  report "crypto.rsa_sign_us" sign_us "us";
  report "crypto.rsa_verify_us" verify_us "us";
  report "crypto.hmac_us" hmac_us "us";
  report "crypto.sha256_mib_s" sha_mib_s "MiB/s";
  (* transport *)
  let ios = List.map (fun (_, _, io) -> io) ops in
  let per_op f = fi (List.fold_left (fun a io -> a + f io) 0 ios) /. nops in
  report "transport.rounds_per_op" (per_op (fun io -> io.rounds)) "count";
  let rounds = us (Array.of_list (List.concat_map (fun io -> io.round_ns) ios)) in
  report "transport.round_p50_us" (pct 50.0 rounds) "us";
  report "transport.round_p99_us" (pct 99.0 rounds) "us";
  report "transport.messages_per_op" (per_op (fun io -> io.msgs)) "count";
  report "transport.bytes_per_op" (per_op (fun io -> io.bytes)) "bytes";
  report "transport.short_rounds_per_op" (per_op (fun io -> io.short)) "count";
  report "transport.connects" (d (fun m -> m.tcp_connects)) "count";
  report "transport.inflight_high_water" (fi (Store.Metrics.inflight_high_water ())) "count";
  report "transport.null_round_us" null_us "us";
  (* server *)
  let op_spans = Hashtbl.create 4096 in
  List.iter (fun (x, _, _) -> Hashtbl.replace op_spans x.span ()) ops;
  let sspans = server_spans stats in
  let requests = List.filter (fun x -> x.sop = "server_request") sspans in
  let sphase name =
    us (Array.of_list (List.filter_map (fun x -> List.assoc_opt name x.sphases) requests))
  in
  report "server.decode_us" (pct 50.0 (sphase "decode")) "us";
  report "server.verify_us" (pct 50.0 (sphase "verify")) "us";
  report "server.apply_us" (pct 50.0 (sphase "apply")) "us";
  report "server.requests_per_op"
    (fi (List.length (List.filter (fun x -> Hashtbl.mem op_spans x.sparent) requests)) /. nops)
    "count";
  let sfield k = Array.fold_left (fun a l -> a +. stat_field l k) 0.0 stats in
  report "server.rsa_verifies_per_write" (sfield "rsa_verifies" /. nwrites) "count";
  let rows = List.filter (fun (h, _, _, _, _) -> h) (shard_rows stats) in
  (* The largest honest shard replica: a workload may load one shard only. *)
  let largest f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 rows in
  report "server.audit_len" (largest (fun (_, _, _, _, a) -> a)) "count";
  (* gossip *)
  let gossip = Array.of_list (List.filter_map (fun x -> if x.sop = "gossip_round" then Some (x.sdur /. 1e6) else None) sspans) in
  report "gossip.round_p50_ms" (pct 50.0 gossip) "ms";
  report "gossip.pushes_per_write" (sfield "gossip_pushes" /. nwrites) "count";
  report "gossip.pending_max"
    (Array.fold_left (fun a l -> Float.max a (stat_field l "pending_max")) 0.0 stats)
    "count";
  (* dispersal *)
  let phase_ms l name =
    pct 50.0
      (Array.of_list
         (List.filter_map
            (fun (_, c, _) -> if phase_count c name > 0 then Some (phase_ns c [ name ] /. 1e6) else None)
            l))
  in
  report "dispersal.encode_ms" (phase_ms writes "encode") "ms";
  report "dispersal.decode_ms" (phase_ms reads "decode") "ms";
  report "dispersal.frag_scatter_ms" (phase_ms writes "frag_scatter") "ms";
  report "dispersal.frag_gather_ms" (phase_ms reads "frag_gather") "ms";
  report "dispersal.frag_puts_per_op" (sfield "frag_puts" /. nops) "count";
  report "dispersal.frag_gets_per_op" (sfield "frag_gets" /. nops) "count";
  (* persist *)
  report "persist.snapshot_ms" (largest (fun (_, ms, _, _, _) -> ms)) "ms";
  report "persist.snapshot_bytes" (largest (fun (_, _, by, _, _) -> by)) "bytes";
  (* gc, over the untraced window *)
  let minor, majors = gc in
  let un_ops = fi (max 1 (List.length (List.filter is_op untraced.samples))) in
  report "gc.client_minor_words_per_op" (minor /. un_ops) "words";
  report "gc.client_major_collections" majors "count";
  (* obs / layers *)
  let service win = pct 50.0 (Array.of_list (List.filter_map (fun x -> if is_op x then Some x.service else None) win.samples)) in
  report "obs.trace_overhead_pct" ((ratio (service traced) (service untraced) -. 1.0) *. 100.0) "%";
  let unaccounted l =
    let span = List.fold_left (fun a (_, (c : Obs.Span.closed), _) -> a +. c.dur_ns) 0.0 l in
    let covered =
      List.fold_left (fun a (_, c, io) -> a +. io.net_ns +. io.sleep_ns +. phase_ns c compute) 0.0 l
    in
    100.0 *. ratio (span -. covered) span
  in
  report "layers.read.unaccounted_pct" (unaccounted reads) "%";
  report "layers.write.unaccounted_pct" (unaccounted writes) "%";
  (* The section 6 ledger: each op kind's counts priced at this run's
     unit costs, against the measured op time. *)
  let model name l =
    let k = fi (max 1 (List.length l)) in
    let per f = List.fold_left (fun a o -> a +. f o) 0.0 l /. k in
    let predicted =
      per (fun (_, c, io) ->
          (fi io.rounds *. null_us)
          +. (fi (phase_count c "sign" + phase_count c "batch_sign") *. sign_us)
          +. (fi (phase_count c "rsa_verify") *. verify_us)
          +. (fi (phase_count c "mac" * n) *. hmac_us))
    in
    let measured = per (fun (_, (c : Obs.Span.closed), _) -> c.dur_ns /. 1e3) in
    report (Printf.sprintf "model.%s_predicted_us" name) predicted "us";
    report (Printf.sprintf "model.%s_residual_us" name) (measured -. predicted) "us"
  in
  model "read" reads;
  model "write" writes;
  report "bench.gen_lag_p99_ms" (pct 99.0 (Array.of_list traced.gen_lag) *. 1e3) "ms";
  report "check.oracle_violations" (fi violations) "count"

(* ------------------------------------------------------------ the oracle *)

(* Check.Oracle keys context continuity by client, but a router client
   holds one session per group and contexts are per group (section 4), so
   each event's client, and each read's writer, is renamed to
   client@group before checking. Read-linkage cannot see writes made
   before the history began: a read whose stamp has no write in the
   history, and whose value is one of those (known by its digest and
   writer), is not a violation. Every other read-linkage finding counts. *)
let oracle clients events =
  let module T = Store.Trace in
  let at group name = name ^ "@" ^ group in
  let session_group = Hashtbl.create 256 in
  List.iter
    (fun (e : T.event) ->
      let uid =
        match (e.kind, e.ctx) with
        | (T.Write { uid; _ } | T.Read { uid }), _ | _, (uid, _) :: _ -> Some uid
        | _ -> None
      in
      match uid with
      | Some uid -> Hashtbl.replace session_group (e.client, e.session) (Store.Uid.group uid)
      | None -> ())
    events;
  let renamed =
    List.map
      (fun (e : T.event) ->
        match Hashtbl.find_opt session_group (e.client, e.session) with
        | None -> e
        | Some g ->
          let outcome =
            match e.outcome with
            | Some (T.Ok_value v) -> Some (T.Ok_value { v with writer = at g v.writer })
            | o -> o
          in
          { e with client = at g e.client; outcome })
      events
  in
  let prior_write (v : Check.Oracle.violation) =
    match v.first.outcome with
    | Some (T.Ok_value { digest; writer; _ })
      when v.property = "read-linkage" && Option.is_none v.second ->
      let name = List.hd (String.split_on_char '@' writer) in
      Array.exists
        (fun c -> Printf.sprintf "t%d" c.tid = name && Hashtbl.mem c.prior digest)
        clients
    | _ -> false
  in
  List.filter (fun v -> not (prior_write v)) (Check.Oracle.check renamed)

(* ---------------------------------------------------------------- main *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload read-heavy|write-heavy|bulk-coded|degraded \
     --seed N --seconds S --trace 0|1";
  exit 2

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let wname = ref "" and seed = ref None and seconds = ref 0.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> wname := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value ~default:0.0 (float_of_string_opt v); parse rest
    | "--trace" :: v :: rest ->
      trace := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match List.find_opt (fun w -> w.name = !wname) workloads with Some w -> w | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced_run = !trace = 1 and duration = !seconds in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.concat ".perfbench_run" (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      kill_all ();
      rm_rf dir;
      try Unix.rmdir ".perfbench_run" with Unix.Unix_error _ -> ());
  (* A stuck run must still end, and take its servers with it. *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 160.0;
         prerr_endline "bench: watchdog fired, giving up";
         exit 3)
       ());
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n%!" w.name seed duration !trace;
  (* ---- set-up: derive keys, preload, bring the cluster up, warm up *)
  let t0 = now () in
  let keys = Array.of_list (List.map Demokeys.keypair client_names) in
  let pad =
    let rng = Crypto.Prng.create ~seed:(Printf.sprintf "perfbench-pad:%d" seed) in
    String.init w.value_bytes (fun _ -> Char.chr (97 + Crypto.Prng.int_below rng 26))
  in
  if w.keys > 0 then preload w ~dir ~keys ~pad;
  Gc.compact ();
  let t_pre = now () -. t0 in
  let t_up = now () in
  let procs, ports = start_cluster ~dir ~crash0:w.crash_replica0 () in
  let t_up = now () -. t_up in
  (* Created here: two threads forcing the shared pool's lazy at once
     would race. *)
  ignore (Tcpnet.Pool.shared ());
  let keyring = keyring () in
  let clients =
    Array.init w.threads (fun tid ->
        {
          tid;
          router =
            Store.Router.create ~table ~uid:(Printf.sprintf "t%d" tid) ~key:keys.(tid)
              ~keyring ~config_of:(config_of w) ();
          opened = Hashtbl.create 64;
          seen = Hashtbl.create 4096;
          written = Hashtbl.create 1024;
          prior = Hashtbl.create 1024;
          in_session = 0;
          check_failures = 0;
          bulk_next = 0;
          errors = 0;
        })
  in
  if traced_run then begin
    log_prior := true;
    for k = 0 to w.keys - 1 do
      let uid = Workload.Openloop.uid_of_key ~groups k in
      Hashtbl.replace clients.(owner w uid).prior
        (Crypto.Sha256.hex_digest (make_value ~pad uid 0 w.value_bytes)) ()
    done
  end;
  (* Warm-up: a one-second schedule in the open loop, two write/read pairs
     in the closed loop (a fixed count, so set-up does not depend on where
     a pair ends relative to a deadline). *)
  let t_warm = now () in
  ignore
    (run_window w ~ports ~clients ~seed ~tag:"warm" ~duration:1.0 ~pairs:2 ~traced:false ~pad ());
  let t_warm = now () -. t_warm in
  let setup_s = t_pre +. t_up +. t_warm in
  Printf.printf "setup: keys and preload %.3fs, bring-up %.3fs, warm-up %.3fs\n%!" t_pre t_up
    t_warm;
  (* ---- measured window(s) *)
  let window ~tag ~traced =
    let m0 = Store.Metrics.read () in
    let g0 = Gc.quick_stat () in
    let win = run_window w ~ports ~clients ~seed ~tag ~duration ~traced ~pad () in
    let g1 = Gc.quick_stat () in
    ( win,
      Store.Metrics.diff (Store.Metrics.read ()) m0,
      (g1.Gc.minor_words -. g0.Gc.minor_words, fi (g1.Gc.major_collections - g0.Gc.major_collections)) )
  in
  let quiet () = Thread.delay 0.05 in
  let live_bytes () =
    let written = Hashtbl.create 1024 in
    Array.iter (fun c -> Hashtbl.iter (fun k () -> Hashtbl.replace written k ()) c.written) clients;
    let preloaded = ref 0 in
    for k = 0 to w.keys - 1 do
      if not (Hashtbl.mem written (Store.Uid.to_string (Workload.Openloop.uid_of_key ~groups k)))
      then incr preloaded
    done;
    fi ((Hashtbl.length written + !preloaded) * w.value_bytes)
  in
  let attempted, failed, violations =
    if not traced_run then begin
      signal_all procs Sys.sigusr1;
      quiet ();
      let win, delta, _ = window ~tag:"timed" ~traced:false in
      let stats = stop_cluster procs in
      Printf.printf "end-to-end (%s, seed %d):\n" w.name seed;
      let a, f =
        end_to_end w ~setup_s ~win ~client_bytes:(fi delta.Store.Metrics.bytes) ~stats
          ~live_bytes:(live_bytes ())
      in
      (a, f, 0)
    end
    else begin
      let units = unit_costs w keys.(0) in
      let null_us = null_round_us ~ports in
      signal_all procs Sys.sigusr1;
      quiet ();
      let untraced, _, gc = window ~tag:"untraced" ~traced:false in
      signal_all procs Sys.sigusr2;
      Obs.Span.set_sample_interval 1;
      Obs.Span.set_journal_capacity (1 lsl 17);
      Obs.Span.set_enabled true;
      quiet ();
      log_prior := false;
      let history = Check.History.create () in
      let traced, delta, _ =
        Check.History.recording history (fun () -> window ~tag:"traced" ~traced:true)
      in
      Obs.Span.set_enabled false;
      let violations = oracle clients (Check.History.events history) in
      List.iteri
        (fun i v ->
          if i < 10 then Printf.printf "  oracle: %s\n" (Check.Oracle.violation_to_string v))
        violations;
      let stats = stop_cluster procs in
      Printf.printf "per-layer (%s, seed %d, traced window):\n" w.name seed;
      per_layer ~untraced ~traced ~delta ~gc ~units ~null_us ~stats
        ~violations:(List.length violations);
      let ops = List.filter is_op traced.samples in
      ( List.length ops,
        List.length (List.filter (fun x -> not x.ok) ops),
        List.length violations )
    end
  in
  let check_failures = Array.fold_left (fun a c -> a + c.check_failures) 0 clients in
  let correct = check_failures = 0 && violations = 0 in
  if not correct then begin
    Printf.eprintf "FAILED: workload %s seed %d: %d read-check failures, %d oracle violations\n%!"
      w.name seed check_failures violations;
    exit 2
  end;
  let metrics =
    String.concat ", "
      (List.rev_map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}" name
             (if Float.is_finite v then v else 0.0)
             unit)
         !metrics_out)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (max 1 attempted) failed metrics
