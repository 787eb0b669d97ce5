(* Benchmark server process: replica [--replica] of every shard behind one
   listener, through Tcpnet.Server_host.start_sharded, with the daemon's
   default gossip period. The benchmark driver (bench.ml) spawns four of
   these.

     server.exe --replica R --port P --peers H:P,... --state DIR --out FILE
                [--crash]

   State is restored from DIR/r<R>s<S>.snap when present (the preload).
   The process prints "ready" once listening, then follows signals:

   - SIGUSR1: a measured window starts — clear the counters;
   - SIGUSR2: a traced window starts — clear the counters and turn span
     tracing on with every trace sampled;
   - SIGTERM: stop serving, wait out the last gossip round, read the GC
     figures, then time Server.snapshot, read storage and audit figures
     (and, when tracing, the span journal) and write them to FILE as
     tab-separated lines. The snapshot runs only after the listener, every connection
     and the gossip threads have stopped, so it never races a request. *)

let () =
  let replica = ref 0 and port = ref 0 and peers = ref "" in
  let state = ref "" and out = ref "" and crash = ref false in
  Arg.parse
    [
      ("--replica", Arg.Set_int replica, "replica index r in 0..n-1");
      ("--port", Arg.Set_int port, "listen port");
      ("--peers", Arg.Set_string peers, "other replicas' host:port list");
      ("--state", Arg.Set_string state, "directory of preload snapshots");
      ("--out", Arg.Set_string out, "stats file written on SIGTERM");
      ("--crash", Arg.Set crash, "host every shard as Faults.Crash");
    ]
    (fun a -> raise (Arg.Bad a))
    "server.exe [options]";
  let open Cluster in
  let replica = !replica in
  if !out = "" then failwith "--out is required";
  let keyring = keyring () in
  let config = Store.Server.default_config ~n ~b in
  let hosted =
    List.init shards (fun s ->
        let id = (s * n) + replica in
        let path = snapshot_path ~dir:!state ~replica ~shard:s in
        let server =
          if !state <> "" && Sys.file_exists path then
            match Store.Server.load_result ~config ~id ~keyring ~n ~b ~path () with
            | Ok s -> s
            | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
          else Store.Server.create ~config ~id ~keyring ~n ~b ()
        in
        (s, server))
  in
  let peer_list =
    match Demokeys.parse_endpoints !peers with
    | Some l -> l
    | None -> failwith "bad --peers"
  in
  let behavior = if !crash then Store.Faults.Crash else Store.Faults.Honest in
  let host =
    Tcpnet.Server_host.start_sharded
      ~shards:
        (List.map
           (fun (shard, server) ->
             { Tcpnet.Server_host.shard; server; behavior; peers = peer_list })
           hosted)
      ~port:!port ()
  in
  Obs.Span.set_node (Printf.sprintf "r%d" replica);
  let usr1 = Atomic.make false and usr2 = Atomic.make false in
  let term = Atomic.make false in
  let on flag = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  Sys.set_signal Sys.sigusr1 (on usr1);
  Sys.set_signal Sys.sigusr2 (on usr2);
  Sys.set_signal Sys.sigterm (on term);
  print_endline "ready";
  (* Dispersal tallies survive Metrics.reset, so windows take deltas. *)
  let frag_base = ref (0, 0) and pending_max = ref 0 in
  let window_start () =
    Store.Metrics.reset ();
    frag_base := (Store.Metrics.frag_puts (), Store.Metrics.frag_gets ());
    pending_max := 0
  in
  while not (Atomic.get term) do
    if Atomic.exchange usr1 false then window_start ();
    if Atomic.exchange usr2 false then begin
      Obs.Span.set_sample_interval 1;
      Obs.Span.set_journal_capacity (1 lsl 17);
      Obs.Span.set_enabled true;
      window_start ()
    end;
    List.iter
      (fun (_, s) ->
        pending_max := max !pending_max (Store.Server.gossip_pending s))
      hosted;
    Thread.delay 0.01
  done;
  Tcpnet.Server_host.stop host;
  (* Stop ends the gossip loop only after its current sleep, so one more
     round can still run: outwait it before touching server state. *)
  Thread.delay 1.3;
  (* The heap the run left, read before the snapshots below allocate. *)
  let g = Gc.quick_stat () in
  let tracing = Obs.Span.enabled () in
  Obs.Span.set_enabled false;
  let buf = Buffer.create 4096 in
  let line k v = Printf.bprintf buf "%s\t%s\n" k v in
  List.iter
    (fun (s, server) ->
      let t0 = Unix.gettimeofday () in
      let snap = Store.Server.snapshot server in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let honest = if !crash then 0 else 1 in
      line "shard"
        (Printf.sprintf "%d\t%d\t%.4f\t%d\t%d\t%d" s honest ms
           (String.length snap)
           (Store.Server.storage_bytes server)
           (List.length (Store.Server.audit_log server))))
    hosted;
  let m = Store.Metrics.read () in
  let puts0, gets0 = !frag_base in
  line "top_heap_words" (string_of_int g.Gc.top_heap_words);
  line "gossip_pushes" (string_of_int m.Store.Metrics.messages);
  line "gossip_bytes" (string_of_int m.Store.Metrics.bytes);
  line "rsa_verifies" (string_of_int (Store.Metrics.rsa_verifies m));
  line "frag_puts" (string_of_int (Store.Metrics.frag_puts () - puts0));
  line "frag_gets" (string_of_int (Store.Metrics.frag_gets () - gets0));
  line "pending_max" (string_of_int !pending_max);
  if tracing then
    List.iter
      (fun (c : Obs.Span.closed) ->
        if c.op = "server_request" || c.op = "gossip_round" then
          line "span"
            (Printf.sprintf "%s\t%d\t%s\t%d\t%.0f\t%s" c.op c.id
               (Obs.Jsonx.to_hex c.trace) c.parent c.dur_ns
               (String.concat ";"
                  (List.map
                     (fun (p : Obs.Span.phase) ->
                       Printf.sprintf "%s=%.0f" p.pname p.pdur_ns)
                     c.phases))))
      (Obs.Span.recent ());
  let tmp = !out ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp !out;
  exit 0
