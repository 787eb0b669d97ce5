(* A secure store server daemon.

     dune exec bin/store_server.exe -- --id 0 --port 7000 --n 4 --b 1 \
       --peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003

   Peers are the *other* servers' endpoints, used for gossip pushes.
   Without --shards the daemon hosts shard 0 only.

   With --shards the process hosts one replica of *several* shard
   groups behind the same port (every request frame names its shard;
   see Tcpnet.Server_host.start_sharded):

     dune exec bin/store_server.exe -- --id 2 --shards 0,4 \
       --shards-total 8 --port 7002 --peers ...

   hosts replica 2 of shards 0 and 4. Node ids are global — shard s's
   replica r is node s*n + r — so every signature and MAC names exactly
   one replica of one shard; --shards-total sizes the MAC universe. *)

open Cmdliner

let run id port n b clients guard log_depth peers gossip_period snapshot
    snapshot_period stats_period metrics_port shards shards_total drain
    epoch_admin =
  let shard_ids =
    match shards with
    | "" -> [ 0 ]
    | s -> (
      match List.map int_of_string_opt (Keys.split_commas s) with
      | exception _ -> failwith "bad --shards"
      | ids ->
        List.map
          (function Some i when i >= 0 -> i | _ -> failwith "bad --shards")
          ids)
  in
  let total_shards =
    List.fold_left (fun acc s -> max acc (s + 1)) (max 1 shards_total) shard_ids
  in
  (* Every replica of every shard shares one flat MAC universe so a
     Mac_fast client can authenticate to any of the total*n global ids. *)
  let keyring =
    Keys.keyring ~mac_servers:(total_shards * n) (Keys.split_commas clients)
  in
  let config =
    {
      (Store.Server.default_config ~n ~b) with
      Store.Server.malicious_client_guard = guard;
      log_depth;
      (* Without this key the server refuses every announced epoch
         transition — membership changes need an administrator. *)
      epoch_admin =
        Option.map
          (fun name -> (Keys.keypair name).Crypto.Rsa.public)
          epoch_admin;
    }
  in
  (* A long-term store survives restarts: reload the last snapshot if one
     exists, and persist periodically. *)
  let make_server ~gid ~snapshot =
    match snapshot with
    | Some path when Sys.file_exists path -> (
      match
        Store.Server.load_result ~config ~id:gid ~keyring ~n ~b ~path ()
      with
      | Ok server ->
        let epoch =
          match Store.Server.epoch_version server with
          | 0 -> ""
          | v -> Printf.sprintf ", epoch v%d" v
        in
        Printf.printf "restored state from %s (%d items%s)\n%!" path
          (Store.Server.item_count server)
          epoch;
        server
      | Error msg when String.starts_with ~prefix:"inconsistent" msg ->
        (* The file passed its integrity check, so it holds real data:
           starting fresh would overwrite it at the next save. *)
        Printf.eprintf
          "error: snapshot %s: %s; refusing to start (move the file aside \
           to start fresh)\n%!"
          path msg;
        exit 1
      | Error msg ->
        (* Truncated or tampered snapshots are detected (v3 carries an
           integrity trailer) and refused loudly, not half-loaded. *)
        Printf.eprintf "warning: snapshot %s: %s; starting fresh\n%!" path msg;
        Store.Server.create ~config ~id:gid ~keyring ~n ~b ())
    | Some _ | None -> Store.Server.create ~config ~id:gid ~keyring ~n ~b ()
  in
  (* (shard, server, snapshot path) per hosted shard. *)
  let hosted =
    List.map
      (fun s ->
        (* Without --shards the one snapshot file keeps its plain name. *)
        let snap =
          match snapshot with
          | Some path when shards <> "" -> Some (Printf.sprintf "%s.s%d" path s)
          | snapshot -> snapshot
        in
        (s, make_server ~gid:((s * n) + id) ~snapshot:snap, snap))
      shard_ids
  in
  let peer_list =
    match peers with
    | "" -> []
    | peers -> (
      match Keys.parse_endpoints peers with
      | Some peers -> peers
      | None -> failwith "bad --peers (expected host:port,host:port,...)")
  in
  let host =
    let specs =
      List.map
        (fun (shard, server, _) ->
          {
            Tcpnet.Server_host.shard;
            server;
            behavior = Store.Faults.Honest;
            peers = peer_list;
          })
        hosted
    in
    Tcpnet.Server_host.start_sharded ~gossip_period ~shards:specs ~port ()
  in
  (* Each shard's blob is taken under its lock, so it is one consistent
     state, and written outside it. [save_lock] keeps the periodic save
     and the shutdown save from writing the same file at once. Returns
     the longest time a shard's lock was held. *)
  let save_lock = Mutex.create () in
  let save_all () =
    Mutex.protect save_lock @@ fun () ->
    List.fold_left
      (fun held (shard, _, snap) ->
        match snap with
        | Some path -> (
          let t0 = Unix.gettimeofday () in
          let blob = Tcpnet.Server_host.snapshot host ~shard in
          let held = Float.max held (Unix.gettimeofday () -. t0) in
          try
            Store.Server.write_snapshot ~path blob;
            held
          with Sys_error msg ->
            Printf.eprintf "snapshot failed: %s\n%!" msg;
            held)
        | None -> held)
      0.0 hosted
  in
  (* A shard's requests wait while its state is serialized; waiting
     nine times the last hold before the next save keeps that stall
     under a tenth of the time however large the state grows. *)
  if snapshot <> None then
    ignore
      (Thread.create
         (fun () ->
           let held = ref 0.0 in
           while true do
             Thread.delay (Float.max snapshot_period (9.0 *. !held));
             held := save_all ()
           done)
         ());
  Printf.printf
    "secure store server replica %d of shards [%s] (n=%d, b=%d, guard=%b) \
     listening on 127.0.0.1:%d\n%!"
    id
    (String.concat "," (List.map string_of_int shard_ids))
    n b guard
    (Tcpnet.Server_host.port host);
  (* Exposition endpoint: /metrics (Prometheus text format), /spans
     (the recent-span journal as JSON) and /trace?id=<hex> (one stitched
     trace from the flight recorder). Serving it turns tracing on — the
     span phases are the point of scraping. *)
  (match metrics_port with
  | None -> ()
  | Some mport ->
    Obs.Span.set_enabled true;
    Obs.Span.set_node (Printf.sprintf "server-%d:%d" id port);
    let trace_id_of_query q =
      (* accept "id=<hex>" anywhere in the query string *)
      List.find_map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i when String.sub kv 0 i = "id" ->
            Some (String.sub kv (i + 1) (String.length kv - i - 1))
          | _ -> None)
        (String.split_on_char '&' q)
    in
    let routes =
      [
        ( "/metrics",
          fun _ ->
            ( Obs.Expo.content_type,
              Obs.Expo.render
                (Store.Metrics.families ()
                @ Tcpnet.Pool.families (Tcpnet.Pool.shared ())
                @ Store.Signing.sigcache_families ()
                @ Obs.Span.trace_families ()
                @ [ Obs.Span.phase_family () ]) ) );
        ( "/spans",
          fun _ -> ("application/json", Obs.Span.spans_json ~limit:64 ()) );
        ( "/trace",
          fun query ->
            let id = Option.value ~default:"" (trace_id_of_query query) in
            ("application/json", Obs.Span.trace_json ~id ()) );
      ]
    in
    let http = Tcpnet.Metrics_http.start ~port:mport ~routes () in
    Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
      (Tcpnet.Metrics_http.port http));
  (if stats_period > 0.0 then
     let pp_peers now fmt hs =
       List.iter
         (fun h ->
           Format.fprintf fmt "@,stats: peer %a" (Tcpnet.Pool.pp_health ~now) h)
         hs
     in
     (* One line per hosted shard: items, dispatched requests, handling
        p50 — a hot shard stands out without scraping /metrics. *)
     let pp_shards fmt () =
       let reqs = Store.Metrics.shard_request_stats () in
       List.iter
         (fun (shard, server, _) ->
           let count, p50ms =
             match List.assoc_opt shard reqs with
             | Some c ->
               ( c.Store.Metrics.shard_requests,
                 Obs.Histo.percentile c.Store.Metrics.shard_request_latency 50.0
                 /. 1e6 )
             | None -> (0, 0.0)
           in
           Format.fprintf fmt "@,stats: shard %d: %d items, %d gossip queued, \
                               %d reqs, p50=%.2fms"
             shard
             (Store.Server.item_count server)
             (Store.Server.gossip_pending server)
             count p50ms)
         hosted
     in
     let total_items () =
       List.fold_left
         (fun acc (_, server, _) -> acc + Store.Server.item_count server)
         0 hosted
     in
     let total_gossip () =
       List.fold_left
         (fun acc (_, server, _) -> acc + Store.Server.gossip_pending server)
         0 hosted
     in
     ignore
       (Thread.create
          (fun () ->
            while true do
              Thread.delay stats_period;
              let m = Store.Metrics.read () in
              let rpc = Store.Metrics.rpc_latency_stats () in
              let now = Unix.gettimeofday () in
              let ms ns = ns /. 1e6 in
              (* One Format call for the whole report: a multi-server
                 launch script interleaves stdout per line, and a report
                 torn across servers is worse than none. *)
              let tr_sampled, tr_forced, tr_held = Obs.Span.flight_stats () in
              Format.printf
                "@[<v>stats: %d items, %d gossip queued | %d msgs, %d \
                 server verifies (%d RSA) | transport: %d connects, %d \
                 reuses, %d reconnects, %d in-flight peak | rpc: %d \
                 rounds, p50=%.2fms p95=%.2fms p99=%.2fms | traces: %d \
                 sampled, %d forced, %d held%a%a@]@."
                (total_items ())
                (total_gossip ())
                m.Store.Metrics.messages m.Store.Metrics.server_verifies
                (Store.Metrics.rsa_verifies m)
                m.Store.Metrics.tcp_connects m.Store.Metrics.tcp_reuses
                m.Store.Metrics.tcp_reconnects
                (Store.Metrics.inflight_high_water ())
                rpc.Store.Metrics.rpc_count
                (ms rpc.Store.Metrics.p50_ns)
                (ms rpc.Store.Metrics.p95_ns)
                (ms rpc.Store.Metrics.p99_ns)
                tr_sampled tr_forced tr_held
                (pp_peers now)
                (Tcpnet.Pool.health (Tcpnet.Pool.shared ()))
                pp_shards ()
            done)
          ()));
  (* Graceful departure: deny new client writes, push the remaining
     gossip backlog (including MAC-held writes already escalated) to
     peers, stop serving, snapshot every hosted shard, exit. Run for
     --drain and on SIGTERM/SIGINT, so a rolling replacement loses no
     accepted write: what this server held is either at its peers or in
     the snapshot, which is taken after the last request. *)
  let shutdown () =
    Printf.printf "draining: flushing gossip backlog to %d peer(s)\n%!"
      (List.length peer_list);
    Tcpnet.Server_host.drain host;
    Tcpnet.Server_host.stop host;
    ignore (save_all ());
    Printf.printf "drained; exiting\n%!";
    exit 0
  in
  if drain then shutdown ();
  (* Signal handlers only flip an atomic: drain dials peers and touches
     the filesystem, which must not run in handler context. *)
  let stopping = Atomic.make false in
  let request_stop _ = Atomic.set stopping true in
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  while not (Atomic.get stopping) do
    Thread.delay 0.2
  done;
  shutdown ()

let cmd =
  let id = Arg.(value & opt int 0 & info [ "id" ] ~doc:"Server id (0..n-1).") in
  let port = Arg.(value & opt int 7000 & info [ "port" ] ~doc:"Listen port (0 = ephemeral).") in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Total number of servers.") in
  let b = Arg.(value & opt int 1 & info [ "b" ] ~doc:"Fault bound.") in
  let clients =
    Arg.(value & opt string "alice,bob,carol"
         & info [ "clients" ] ~doc:"Comma-separated known client names (shared key universe).")
  in
  let guard =
    Arg.(value & flag & info [ "guard" ] ~doc:"Enable the malicious-client guard (section 5.3).")
  in
  let log_depth =
    Arg.(value & opt int 4 & info [ "log-depth" ] ~doc:"Overwritten values retained per item.")
  in
  let peers =
    Arg.(value & opt string "" & info [ "peers" ] ~doc:"Peer endpoints for gossip (host:port,...).")
  in
  let gossip_period =
    Arg.(value & opt float 1.0 & info [ "gossip-period" ] ~doc:"Seconds between gossip pushes.")
  in
  let snapshot =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~doc:"Persist state to this file and reload it on start \
                                     (sharded hosts use FILE.s<shard> per shard).")
  in
  let snapshot_period =
    Arg.(value & opt float 10.0 & info [ "snapshot-period" ] ~doc:
             "Seconds between snapshots. A shard serves no request while \
              its state is serialized, so when that takes longer than a \
              ninth of this period the next snapshot waits nine times as \
              long as the last one held the shard.")
  in
  let stats_period =
    Arg.(value & opt float 0.0
         & info [ "stats-period" ]
             ~doc:"Seconds between metrics reports on stdout (0 = off); \
                   sharded hosts print one extra line per shard.")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ]
             ~doc:"Serve /metrics (Prometheus text format) and /spans \
                   (JSON span journal) on this port; enables tracing. \
                   0 = ephemeral.")
  in
  let shards =
    Arg.(value & opt string ""
         & info [ "shards" ]
             ~doc:"Comma-separated shard ids to host one replica of \
                   (empty = shard 0 only). Replica $(b,--id) of shard s is \
                   global node s*n + id.")
  in
  let shards_total =
    Arg.(value & opt int 1
         & info [ "shards-total" ]
             ~doc:"Total shards in the deployment (sizes the client-server \
                   MAC universe; defaults to max hosted shard + 1).")
  in
  let drain =
    Arg.(value & flag
         & info [ "drain" ]
             ~doc:"Graceful departure: start (restoring any snapshot), deny \
                   new writes, push the remaining gossip backlog to peers, \
                   snapshot, exit. SIGTERM does the same to a running \
                   server.")
  in
  let epoch_admin =
    Arg.(value & opt (some string) None
         & info [ "epoch-admin" ]
             ~doc:"Name of the cluster administrator whose (demo-derived) \
                   key signs config epochs. Announced membership changes \
                   are refused unless this is set.")
  in
  Cmd.v
    (Cmd.info "store_server" ~doc:"Secure distributed store server (DSN 2001 reproduction)")
    Term.(const run $ id $ port $ n $ b $ clients $ guard $ log_depth $ peers $ gossip_period
          $ snapshot $ snapshot_period $ stats_period $ metrics_port $ shards $ shards_total
          $ drain $ epoch_admin)

let () = exit (Cmd.eval cmd)
