type snapshot = {
  messages : int;
  bytes : int;
  signs : int;
  verifies : int;
  digests : int;
  server_verifies : int;
  macs : int;
  sigcache_hits : int;
  sigcache_misses : int;
  tcp_connects : int;
  tcp_reuses : int;
  tcp_reconnects : int;
  rpcs : int;
  retries : int;
  escalations : int;
}

let messages = ref 0
let bytes = ref 0
let signs = ref 0
let verifies = ref 0
let digests = ref 0
let server_verifies = ref 0
let macs = ref 0
let sigcache_hits = ref 0
let sigcache_misses = ref 0
let tcp_connects = ref 0
let tcp_reuses = ref 0
let tcp_reconnects = ref 0
let rpcs = ref 0
let retries = ref 0
let escalations = ref 0

(* Transport gauges live outside the snapshot: the in-flight high-water
   mark and a log-scale histogram of RPC round durations (fixed counters,
   mergeable — this replaced the old 4096-sample reservoir).
   Per-endpoint state belongs to the transport pool, not here. *)
let inflight_hwm = ref 0
let rpc_histo = Obs.Histo.create ()

(* Reconfiguration state, outside the snapshot for the same reason as
   the transport gauges: the current epoch version and the transition /
   rejection / bootstrap-transfer tallies are operator-facing and must
   survive the per-experiment [reset]. *)
let cur_epoch_version = ref 0
let epoch_transitions_c = ref 0
let epoch_rejections_c = ref 0
let bootstrap_bytes_c = ref 0
let set_epoch_version v = if v > !cur_epoch_version then cur_epoch_version := v
let incr_epoch_transition () = incr epoch_transitions_c
let incr_epoch_rejection () = incr epoch_rejections_c
let add_bootstrap_bytes n = bootstrap_bytes_c := !bootstrap_bytes_c + n
let epoch_version () = !cur_epoch_version
let epoch_transitions () = !epoch_transitions_c
let epoch_rejections () = !epoch_rejections_c
let bootstrap_bytes () = !bootstrap_bytes_c

(* Dispersal counters live beside the epoch tallies, outside the
   snapshot: fragment traffic and repairs are operator-facing totals a
   per-experiment [reset] must not blank (the repair test watches
   /metrics across resets). *)
let frag_puts_c = ref 0
let frag_gets_c = ref 0
let frag_repairs_c = ref 0
let dispersed_writes_c = ref 0
let dispersed_reads_c = ref 0
let incr_frag_put () = incr frag_puts_c
let incr_frag_get () = incr frag_gets_c
let incr_frag_repair () = incr frag_repairs_c
let incr_dispersed_write () = incr dispersed_writes_c
let incr_dispersed_read () = incr dispersed_reads_c
let frag_puts () = !frag_puts_c
let frag_gets () = !frag_gets_c
let frag_repairs () = !frag_repairs_c
let dispersed_writes () = !dispersed_writes_c
let dispersed_reads () = !dispersed_reads_c

(* --- per-shard registries ------------------------------------------- *)

(* Two views of a shard: what the servers hosting it saw (requests
   dispatched into that shard's state) and what a router's client ops
   against it looked like. Both are keyed by shard id so a hot or sick
   shard stands out on /metrics and in the stats line. *)

type shard_client = {
  mutable shard_reads : int;
  mutable shard_writes : int;
  mutable shard_failures : int;
  shard_op_latency : Obs.Histo.t;
}

type shard_server = {
  mutable shard_requests : int;
  shard_request_latency : Obs.Histo.t;
}

let shard_client_tbl : (int, shard_client) Hashtbl.t = Hashtbl.create 8
let shard_server_tbl : (int, shard_server) Hashtbl.t = Hashtbl.create 8
let shard_lock = Mutex.create ()

let shard_cell tbl shard fresh =
  Mutex.lock shard_lock;
  let cell =
    match Hashtbl.find_opt tbl shard with
    | Some c -> c
    | None ->
      let c = fresh () in
      Hashtbl.add tbl shard c;
      c
  in
  Mutex.unlock shard_lock;
  cell

let note_shard_client_op ~shard ~write ~ok ns =
  let c =
    shard_cell shard_client_tbl shard (fun () ->
        {
          shard_reads = 0;
          shard_writes = 0;
          shard_failures = 0;
          shard_op_latency = Obs.Histo.create ();
        })
  in
  if write then c.shard_writes <- c.shard_writes + 1
  else c.shard_reads <- c.shard_reads + 1;
  if not ok then c.shard_failures <- c.shard_failures + 1;
  Obs.Histo.observe c.shard_op_latency ns

let note_shard_request ~shard ns =
  let c =
    shard_cell shard_server_tbl shard (fun () ->
        { shard_requests = 0; shard_request_latency = Obs.Histo.create () })
  in
  c.shard_requests <- c.shard_requests + 1;
  Obs.Histo.observe c.shard_request_latency ns

let sorted_shards tbl =
  Mutex.lock shard_lock;
  let all = Hashtbl.fold (fun s c acc -> (s, c) :: acc) tbl [] in
  Mutex.unlock shard_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) all

let shard_client_stats () = sorted_shards shard_client_tbl
let shard_request_stats () = sorted_shards shard_server_tbl

let reset_shards () =
  Mutex.lock shard_lock;
  Hashtbl.reset shard_client_tbl;
  Hashtbl.reset shard_server_tbl;
  Mutex.unlock shard_lock

(* [reset] clears the per-operation counters an experiment snapshots
   around a measured op — and nothing an operator watches live: the
   in-flight high-water mark and the epoch and dispersal tallies
   survive. Tests that need a truly pristine slate call [reset_gauges]
   too.

   Per-phase span histograms are experiment-scoped like the counters, so
   they clear here too: a bench running several phases in one process
   (several signing modes back to back, say) must not report one
   mode's percentiles polluted by another's samples. *)
let reset () =
  Obs.Span.reset_stats ();
  messages := 0;
  bytes := 0;
  signs := 0;
  verifies := 0;
  digests := 0;
  server_verifies := 0;
  macs := 0;
  sigcache_hits := 0;
  sigcache_misses := 0;
  tcp_connects := 0;
  tcp_reuses := 0;
  tcp_reconnects := 0;
  rpcs := 0;
  retries := 0;
  escalations := 0;
  Obs.Histo.reset rpc_histo;
  reset_shards ()

let reset_gauges () =
  inflight_hwm := 0;
  cur_epoch_version := 0;
  epoch_transitions_c := 0;
  epoch_rejections_c := 0;
  bootstrap_bytes_c := 0;
  frag_puts_c := 0;
  frag_gets_c := 0;
  frag_repairs_c := 0;
  dispersed_writes_c := 0;
  dispersed_reads_c := 0

let read () =
  {
    messages = !messages;
    bytes = !bytes;
    signs = !signs;
    verifies = !verifies;
    digests = !digests;
    server_verifies = !server_verifies;
    macs = !macs;
    sigcache_hits = !sigcache_hits;
    sigcache_misses = !sigcache_misses;
    tcp_connects = !tcp_connects;
    tcp_reuses = !tcp_reuses;
    tcp_reconnects = !tcp_reconnects;
    rpcs = !rpcs;
    retries = !retries;
    escalations = !escalations;
  }

let diff late early =
  {
    messages = late.messages - early.messages;
    bytes = late.bytes - early.bytes;
    signs = late.signs - early.signs;
    verifies = late.verifies - early.verifies;
    digests = late.digests - early.digests;
    server_verifies = late.server_verifies - early.server_verifies;
    macs = late.macs - early.macs;
    sigcache_hits = late.sigcache_hits - early.sigcache_hits;
    sigcache_misses = late.sigcache_misses - early.sigcache_misses;
    tcp_connects = late.tcp_connects - early.tcp_connects;
    tcp_reuses = late.tcp_reuses - early.tcp_reuses;
    tcp_reconnects = late.tcp_reconnects - early.tcp_reconnects;
    rpcs = late.rpcs - early.rpcs;
    retries = late.retries - early.retries;
    escalations = late.escalations - early.escalations;
  }

let add_messages n = messages := !messages + n
let add_bytes n = bytes := !bytes + n
let incr_sign () = incr signs
let incr_verify () = incr verifies
let incr_digest () = incr digests
let incr_server_verify () = incr server_verifies
let incr_mac () = incr macs
let incr_sigcache_hit () = incr sigcache_hits
let incr_sigcache_miss () = incr sigcache_misses
let incr_tcp_connect () = incr tcp_connects
let incr_tcp_reuse () = incr tcp_reuses
let incr_tcp_reconnect () = incr tcp_reconnects
let incr_rpc () = incr rpcs
let incr_retry () = incr retries
let incr_escalation () = incr escalations

let note_inflight n = if n > !inflight_hwm then inflight_hwm := n
let inflight_high_water () = !inflight_hwm

let record_rpc_ns ns = Obs.Histo.observe rpc_histo ns

type rpc_stats = {
  rpc_count : int;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
}

let rpc_latency_stats () =
  {
    rpc_count = Obs.Histo.count rpc_histo;
    p50_ns = Obs.Histo.percentile rpc_histo 50.0;
    p95_ns = Obs.Histo.percentile rpc_histo 95.0;
    p99_ns = Obs.Histo.percentile rpc_histo 99.0;
    max_ns = Obs.Histo.max_value rpc_histo;
  }

(* Paper-model verification counts stay in [verifies]/[server_verifies];
   the RSA exponentiations actually performed are the cache misses. *)
let rsa_verifies s = s.sigcache_misses

(* Everything this module tracks, as exposition families for a /metrics
   scrape: the section 6 counters, the operator gauges and the RPC round
   latency histogram. Span phase histograms and the pool's per-endpoint
   families are their owners' own; the server binary concatenates
   them. *)
let families () =
  let s = read () in
  let c name help v =
    Obs.Expo.counter ~name:("securestore_" ^ name) ~help (float_of_int v)
  in
  let counters =
    [
      c "messages_total" "Protocol messages, both directions." s.messages;
      c "bytes_total" "Payload bytes across protocol messages." s.bytes;
      c "signs_total" "Signatures produced." s.signs;
      c "verifies_total" "Client-side signature verifications (cost model)."
        s.verifies;
      c "server_verifies_total"
        "Server-side signature verifications (cost model)." s.server_verifies;
      c "digests_total" "Digest computations." s.digests;
      c "macs_total" "MAC computations (PBFT-style authenticators)." s.macs;
      c "sigcache_hits_total" "Verifications answered from the sig cache."
        s.sigcache_hits;
      c "sigcache_misses_total" "Verifications that ran the RSA math."
        s.sigcache_misses;
      c "tcp_connects_total" "Transport sockets dialed." s.tcp_connects;
      c "tcp_reuses_total" "RPC submissions reusing a pooled connection."
        s.tcp_reuses;
      c "tcp_reconnects_total" "Dials to a previously connected endpoint."
        s.tcp_reconnects;
      c "rpcs_total" "Quorum RPC rounds through the pooled transport." s.rpcs;
      c "retries_total" "Client retry-later rounds." s.retries;
      c "escalations_total" "Client server-set expansions." s.escalations;
      c "epoch_transitions_total" "Config epochs adopted by this process."
        (epoch_transitions ());
      c "epoch_rejections_total"
        "Requests rejected for carrying a superseded config epoch."
        (epoch_rejections ());
      c "bootstrap_bytes_total"
        "Write-body bytes re-announced for joining-server bootstrap."
        (bootstrap_bytes ());
      c "frag_puts_total" "Fragment streams sealed by this process."
        (frag_puts ());
      c "frag_gets_total" "Fragment range reads served." (frag_gets ());
      c "frag_repairs_total"
        "Fragments reconstructed from peers and re-stored locally."
        (frag_repairs ());
      c "dispersed_writes_total"
        "Client writes that took the coded-dispersal path."
        (dispersed_writes ());
      c "dispersed_reads_total"
        "Client reads reconstructed from coded fragments."
        (dispersed_reads ());
    ]
  in
  let gauges =
    [
      Obs.Expo.gauge ~name:"securestore_inflight_high_water"
        ~help:"Peak concurrent in-flight transport requests."
        (float_of_int (inflight_high_water ()));
      Obs.Expo.gauge ~name:"securestore_epoch_version"
        ~help:"Highest config epoch version adopted by this process."
        (float_of_int (epoch_version ()));
    ]
  in
  let shard_label s = [ ("shard", string_of_int s) ] in
  let shard_servers = shard_request_stats () in
  let shard_clients = shard_client_stats () in
  let shard_families =
    if shard_servers = [] && shard_clients = [] then []
    else
      [
        Obs.Expo.family ~name:"securestore_shard_requests_total"
          ~help:"Requests dispatched into this shard's server state."
          (Obs.Expo.Counter
             (List.map
                (fun (s, c) ->
                  (shard_label s, float_of_int c.shard_requests))
                shard_servers));
        Obs.Expo.family ~name:"securestore_shard_request_duration_seconds"
          ~help:"Server-side request handling latency per shard."
          (Obs.Expo.Histogram
             (List.map
                (fun (s, c) -> (shard_label s, c.shard_request_latency))
                shard_servers));
        Obs.Expo.family ~name:"securestore_shard_client_ops_total"
          ~help:"Router-side operations per shard and op kind."
          (Obs.Expo.Counter
             (List.concat_map
                (fun (s, c) ->
                  [
                    ( ("op", "read") :: shard_label s,
                      float_of_int c.shard_reads );
                    ( ("op", "write") :: shard_label s,
                      float_of_int c.shard_writes );
                  ])
                shard_clients));
        Obs.Expo.family ~name:"securestore_shard_client_failures_total"
          ~help:"Router-side operations per shard that returned an error."
          (Obs.Expo.Counter
             (List.map
                (fun (s, c) ->
                  (shard_label s, float_of_int c.shard_failures))
                shard_clients));
        Obs.Expo.family ~name:"securestore_shard_client_op_duration_seconds"
          ~help:"Router-side end-to-end op latency per shard."
          (Obs.Expo.Histogram
             (List.map
                (fun (s, c) -> (shard_label s, c.shard_op_latency))
                shard_clients));
      ]
  in
  let histograms =
    shard_families
    @ [
      Obs.Expo.family ~name:"securestore_rpc_duration_seconds"
        ~help:"Quorum RPC round duration over the pooled transport."
        (Obs.Expo.Histogram [ ([], rpc_histo) ]);
    ]
  in
  counters @ gauges @ histograms

let pp fmt s =
  Format.fprintf fmt
    "msgs=%d signs=%d verifies=%d (server %d) digests=%d macs=%d \
     sigcache=%d/%d hit/miss tcp=%d+%d/%d conn/reconn/reuse rpcs=%d \
     retries=%d escalations=%d"
    s.messages s.signs s.verifies s.server_verifies s.digests s.macs
    s.sigcache_hits s.sigcache_misses s.tcp_connects s.tcp_reconnects
    s.tcp_reuses s.rpcs s.retries s.escalations
