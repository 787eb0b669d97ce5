(* Benchmark harness: regenerates the quantitative claims of the paper's
   section 6 (experiments E1-E14) and runs the live-cluster experiments
   E15, E16, E18 and E20; see DESIGN.md and EXPERIMENTS.md. Whole-store
   performance on a multi-process cluster is perfbench's job.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe -- e3 e9   -- a subset
     dune exec bench/main.exe -- --seed 7 e7
     dune exec bench/main.exe -- e9 --json   -- also write BENCH_crypto.json

   Output is plain text, one table per experiment. With --json, e9, e10,
   e15, e16, e18 and e20 also write their BENCH_*.json file; an existing
   "baseline" object in that file is preserved across runs. *)

let fmt = Format.std_formatter

let time_ns f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ((Unix.gettimeofday () -. t0) *. 1e9, r)

(* Nearest-rank percentile of an ascending array of raw samples (0 when
   empty), the rule perfbench uses. *)
let pct sorted p =
  let len = Array.length sorted in
  if len = 0 then 0.0
  else
    let rank = max 1 (min len (int_of_float (ceil (p /. 100.0 *. float_of_int len)))) in
    sorted.(rank - 1)

let reserve_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  p

(* ------------------------------------------------------------------ *)
(* E9: crypto and protocol microbenchmarks via Bechamel                *)
(* ------------------------------------------------------------------ *)

let bechamel_run tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

(* ---- BENCH_*.json ------------------------------------------------- *)

let json_key name =
  (* "crypto/rsa1024-sign" -> "rsa1024_sign"; "store-ops/write(b+1)" ->
     "write_b_1": drop the group prefix, map non-alphanumerics to '_',
     squeeze and trim the underscores. *)
  let name =
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char buf c
      | _ ->
        if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '_'
        then Buffer.add_char buf '_')
    name;
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '_' then
    String.sub s 0 (String.length s - 1)
  else s

let ns_rows rows =
  List.map (fun (name, ns) -> (json_key name ^ "_ns", Printf.sprintf "%.1f" ns)) rows

(* The first --json run records its numbers as the baseline; later runs
   keep that baseline so before/after is visible in one committed file. *)
let existing_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let key = "\"baseline\"" in
    let klen = String.length key and n = String.length s in
    let rec find i =
      if i + klen > n then None
      else if String.sub s i klen = key then Some (i + klen)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some after -> (
      match String.index_from_opt s after '{' with
      | None -> None
      | Some opening ->
        let rec close i depth =
          if i >= n then None
          else
            match s.[i] with
            | '{' -> close (i + 1) (depth + 1)
            | '}' -> if depth = 1 then Some i else close (i + 1) (depth - 1)
            | _ -> close (i + 1) depth
        in
        Option.map
          (fun closing -> String.sub s opening (closing - opening + 1))
          (close opening 0))
  end

(* Every BENCH_*.json but BENCH_check.json: [header] holds extra
   top-level fields (rendered JSON values) between the schema and the
   baseline; [rows] are (key, JSON value) pairs. *)
let write_json ~path ~schema ?(header = []) rows =
  let current =
    "{ "
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) rows)
    ^ " }"
  in
  let baseline = Option.value (existing_baseline path) ~default:current in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": \"%s\",\n" schema;
      List.iter (fun (k, v) -> Printf.fprintf oc "  \"%s\": %s,\n" k v) header;
      Printf.fprintf oc "  \"baseline\": %s,\n  \"current\": %s\n}\n" baseline current);
  Format.fprintf fmt "wrote %s@." path

let e9 () =
  let open Bechamel in
  let data n = String.init n (fun i -> Char.chr (i land 0xff)) in
  let d64 = data 64 and d1k = data 1024 and d64k = data 65536 in
  let prng = Crypto.Prng.create ~seed:"bench" in
  let rsa512 = Crypto.Rsa.generate ~bits:512 prng in
  let rsa1024 = Crypto.Rsa.generate ~bits:1024 prng in
  let sig512 = Crypto.Rsa.sign rsa512 d64 in
  let sig1024 = Crypto.Rsa.sign rsa1024 d64 in
  let chacha_key = Crypto.Sha256.digest "bench-key" in
  let nonce = String.make 12 '\x01' in
  let tests =
    Test.make_grouped ~name:"crypto"
      [
        Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Crypto.Sha256.digest d64));
        Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Crypto.Sha256.digest d1k));
        Test.make ~name:"sha256-64KiB" (Staged.stage (fun () -> Crypto.Sha256.digest d64k));
        Test.make ~name:"hmac-1KiB"
          (Staged.stage (fun () -> Crypto.Hmac.sha256 ~key:"k" d1k));
        Test.make ~name:"chacha20-1KiB"
          (Staged.stage (fun () -> Crypto.Chacha20.encrypt ~key:chacha_key ~nonce d1k));
        Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> Crypto.Rsa.sign rsa512 d64));
        Test.make ~name:"rsa512-verify"
          (Staged.stage (fun () ->
               Crypto.Rsa.verify rsa512.Crypto.Rsa.public ~msg:d64 ~signature:sig512));
        Test.make ~name:"rsa1024-sign"
          (Staged.stage (fun () -> Crypto.Rsa.sign rsa1024 d64));
        Test.make ~name:"rsa1024-verify"
          (Staged.stage (fun () ->
               Crypto.Rsa.verify rsa1024.Crypto.Rsa.public ~msg:d64 ~signature:sig1024));
      ]
  in
  let rows = bechamel_run tests in
  let pp_ns ns =
    if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let table =
    {
      Workload.Table.id = "E9";
      title = "Crypto microbenchmarks (Bechamel, monotonic clock)";
      header = [ "primitive"; "time/op" ];
      rows = List.map (fun (name, ns) -> [ name; pp_ns ns ]) rows;
      notes =
        [
          "the paper's section 6 cost model rests on sign >> verify >> digest;";
          "PBFT's MAC-based authenticators correspond to the hmac row";
        ];
    }
  in
  Workload.Table.print fmt table;
  rows

(* One Bechamel test per full protocol op, run against an in-process
   world: the end-to-end computational cost of each store operation. *)
let e9_protocol () =
  let open Bechamel in
  let w = Workload.Worlds.make ~n:4 ~b:1 () in
  let counter = ref 0 in
  let in_world fn = Workload.Worlds.in_direct w fn in
  let alice =
    in_world (fun () -> Workload.Worlds.connect w "alice" ~group:"bench")
  in
  in_world (fun () ->
      match Store.Client.write alice ~item:"x" "seed-value" with
      | Ok () -> ()
      | Error e -> failwith (Store.Client.error_to_string e));
  (* Store a context for bob so the connect benchmark includes the
     signature verification of a restored session. *)
  in_world (fun () ->
      let bob = Workload.Worlds.connect w "bob" ~group:"bench" in
      match Store.Client.disconnect bob with
      | Ok () -> ()
      | Error e -> failwith (Store.Client.error_to_string e));
  let tests =
    Test.make_grouped ~name:"store-ops"
      [
        Test.make ~name:"write(b+1)"
          (Staged.stage (fun () ->
               incr counter;
               in_world (fun () ->
                   Store.Client.write alice ~item:"x" (string_of_int !counter))));
        Test.make ~name:"read(b+1)"
          (Staged.stage (fun () ->
               in_world (fun () -> Store.Client.read alice ~item:"x")));
        Test.make ~name:"connect(ctx q)"
          (Staged.stage (fun () ->
               in_world (fun () -> Workload.Worlds.connect w "bob" ~group:"bench")));
      ]
  in
  let rows = bechamel_run tests in
  let table =
    {
      Workload.Table.id = "E9b";
      title = "End-to-end op compute cost (in-process, n=4 b=1, RSA-512)";
      header = [ "operation"; "time/op" ];
      rows =
        List.map
          (fun (name, ns) -> [ name; Printf.sprintf "%.2f ms" (ns /. 1e6) ])
          rows;
      notes = [ "dominated by the signature asymmetry measured in E9" ];
    }
  in
  Workload.Table.print fmt table;
  rows

(* ------------------------------------------------------------------ *)
(* E10 (live half): loopback RPC over the real TCP transport           *)
(* ------------------------------------------------------------------ *)

(* A real n=4, b=1 cluster of Server_hosts on loopback; each measured
   op is one quorum RPC round (fan out to all n, resume at the write
   quorum ceil((n+b+1)/2) = 3), the access pattern every store
   operation reduces to, over the pooled pipelined transport. The
   connect-per-request transport it replaced is gone; its numbers stay
   frozen as BENCH_net.json's baseline. *)
let e10_net ~json () =
  let n = 4 and b = 1 in
  let keyring = Store.Keyring.create () in
  let servers =
    Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ())
  in
  let hosts =
    Array.map (fun server -> Tcpnet.Server_host.start ~server ~port:0 ()) servers
  in
  let eps = Array.map (fun h -> ("127.0.0.1", Tcpnet.Server_host.port h)) hosts in
  let endpoints id = if id >= 0 && id < n then Some eps.(id) else None in
  let payload =
    Store.Payload.encode_envelope
      {
        Store.Payload.token = None; epoch = 0;
        request =
          Store.Payload.Meta_query
            { uid = Store.Uid.make ~group:"bench" ~item:"x" };
      }
  in
  let quorum = (n + b + 1 + 1) / 2 in
  let all = List.init n Fun.id in
  let one_round () =
    ignore
      (Sim.Runtime.call_many ~timeout:2.0 ~quorum all payload
        : Sim.Runtime.reply list)
  in
  let latency iters =
    let samples =
      Tcpnet.Live.run ~endpoints (fun () ->
          for _ = 1 to 10 do
            one_round ()
          done;
          Array.init iters (fun _ -> fst (time_ns one_round)))
    in
    Array.sort compare samples;
    samples
  in
  let throughput threads iters =
    let workers =
      List.init threads (fun _ ->
          Thread.create
            (fun () ->
              Tcpnet.Live.run ~endpoints (fun () ->
                  for _ = 1 to iters do
                    one_round ()
                  done))
            ())
    in
    let t0 = Unix.gettimeofday () in
    List.iter Thread.join workers;
    let dt = Unix.gettimeofday () -. t0 in
    dt *. 1e9 /. float_of_int (threads * iters)
  in
  let pooled =
    let samples = latency 300 in
    let c8 = throughput 8 150 in
    [
      ("net/rpc-quorum-p50", pct samples 50.0);
      ("net/rpc-quorum-p95", pct samples 95.0);
      ( "net/rpc-quorum-mean",
        Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples) );
      ("net/rpc-quorum-c8", c8);
    ]
  in
  Array.iter Tcpnet.Server_host.stop hosts;
  let pp_ns ns =
    if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.1f us" (ns /. 1e3)
  in
  let table =
    {
      Workload.Table.id = "E10b";
      title =
        Printf.sprintf
          "Loopback quorum RPC (real TCP, n=%d b=%d, quorum %d-of-%d)" n b
          quorum n;
      header = [ "metric"; "pooled+pipelined" ];
      rows = List.map (fun (name, ns) -> [ name; pp_ns ns ]) pooled;
      notes =
        [
          "pooled: persistent connections, correlation-id pipelining, condition wakeup";
          "rpc-quorum-c8: ns/op across 8 concurrent client threads";
          "the removed per-connection transport's numbers are frozen in \
           BENCH_net.json's baseline, not re-measured";
        ];
    }
  in
  Workload.Table.print fmt table;
  let s = Store.Metrics.rpc_latency_stats () in
  Format.fprintf fmt
    "transport metrics: %d rpcs, in-flight hwm %d, pool rpc p50 %.1f us \
     (p99 %.1f us)@."
    s.Store.Metrics.rpc_count
    (Store.Metrics.inflight_high_water ())
    (s.Store.Metrics.p50_ns /. 1e3)
    (s.Store.Metrics.p99_ns /. 1e3);
  if json then
    write_json ~path:"BENCH_net.json" ~schema:"bench-net-v1"
      ~header:[ ("unit", "\"ns/op\"") ] (ns_rows pooled)

(* ------------------------------------------------------------------ *)
(* E15: chaos soak — live cluster under fault injection                *)
(* ------------------------------------------------------------------ *)

(* A real n=4 b=1 loopback cluster where every endpoint sits behind a
   seeded {!Tcpnet.Chaos} proxy (drops, delays, corruption, mid-frame
   resets, partition windows) and one server is Byzantine
   (Corrupt_value). Two client sessions soak it — alice writes, bob
   reads concurrently — and the harness asserts the paper's safety
   invariants hold throughout:

     1. every value a read returns was actually written by alice
        (no forged or corrupted value survives verification);
     2. within bob's session, per-item reads never go backwards (MRC);
     3. after the chaos heals, alice's final writes become visible to a
        fresh session on every item (gossip recovers partition losses);
     4. no worker dies and the process fd table does not grow
        (connection churn is bounded).

   Liveness under chaos is *degraded*, never traded against safety:
   failed ops count as degraded, and the time from first failure to
   next success feeds the recovery-time percentiles. *)
let e15_chaos ~seed ~json () =
  let n = 4 and b = 1 in
  Store.Metrics.reset ();
  let key_of name =
    Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("e15-" ^ name))
  in
  let alice_key = key_of "alice" and bob_key = key_of "bob" in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  Store.Keyring.register keyring "bob" bob_key.Crypto.Rsa.public;
  (* Pairwise MAC secrets: alice soaks the MAC-vector fast path, so the
     write path under chaos is MAC + background escalation, not one RSA
     signature per write. *)
  List.iter
    (fun client ->
      for server = 0 to n - 1 do
        Store.Keyring.register_mac keyring ~client ~server
          (Crypto.Sha256.digest (Printf.sprintf "e15-mac!%s!%d" client server))
      done)
    [ "alice"; "bob" ];
  let servers =
    Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ())
  in
  (* Proxies must know the server ports and servers gossip *through the
     proxies*, so: reserve the server ports first, aim a proxy at each,
     then bind the hosts to the reserved ports. *)
  let host_ports = Array.init n (fun _ -> reserve_port ()) in
  let plans =
    [|
      Tcpnet.Chaos.plan ~seed ~drop:0.04 ~delay:0.001 ~jitter:0.004
        ~reset:0.02 ();
      Tcpnet.Chaos.plan ~seed:(seed + 1) ~drop:0.04 ~delay:0.001 ~jitter:0.004
        ~blackhole:[ (1.5, 2.5); (4.0, 4.8) ] ();
      Tcpnet.Chaos.plan ~seed:(seed + 2) ~drop:0.03 ~corrupt:0.06
        ~drip_bytes:512 ~drip_delay:0.0005 ();
      Tcpnet.Chaos.plan ~seed:(seed + 3) ~drop:0.03 ~delay:0.002 ();
    |]
  in
  let digest = Tcpnet.Chaos.decision_digest plans.(0) ~frames:128 in
  (* Same seed, same schedule — the digest is pure, so an identically
     rebuilt plan must agree before anything runs. *)
  assert (
    String.equal digest
      (Tcpnet.Chaos.decision_digest
         (Tcpnet.Chaos.plan ~seed ~drop:0.04 ~delay:0.001 ~jitter:0.004
            ~reset:0.02 ())
         ~frames:128));
  let proxies =
    Array.init n (fun i ->
        Tcpnet.Chaos.start ~plan:plans.(i)
          ~target:("127.0.0.1", host_ports.(i))
          ())
  in
  let proxy_eps =
    Array.map (fun p -> ("127.0.0.1", Tcpnet.Chaos.port p)) proxies
  in
  let hosts =
    Array.init n (fun i ->
        let peers =
          List.filteri (fun j _ -> j <> i) (Array.to_list proxy_eps)
        in
        (* Downgrade: leaks MAC-held writes (not third-party verifiable)
           and strips batch inclusion proofs — the Byzantine behaviours
           aimed squarely at the fast path. Safety invariant 1 must hold
           regardless: honest clients reject both mutations. *)
        let behavior =
          if i = 3 then Store.Faults.Downgrade else Store.Faults.Honest
        in
        Tcpnet.Server_host.start
          ~gossip:{ Tcpnet.Server_host.peers; period = 0.15 }
          ~behavior ~server:servers.(i) ~port:host_ports.(i) ())
  in
  let endpoints id = if id >= 0 && id < n then Some proxy_eps.(id) else None in
  let base_cfg = Store.Client.default_config ~n ~b in
  let cfg_alice =
    {
      base_cfg with
      Store.Client.timeout = 0.3;
      read_retries = 3;
      write_retries = 3;
      retry_delay = 0.05;
      retry_backoff_max = 0.4;
      op_deadline = 4.0;
      signing = Store.Client.Mac_fast;
    }
  in
  let cfg_bob =
    {
      cfg_alice with
      Store.Client.read_spread = true;
      seed;
      signing = Store.Client.Per_write_sig;
    }
  in
  let lock = Mutex.create () in
  let violations = ref [] in
  let violate fmt_ =
    Printf.ksprintf
      (fun s ->
        Mutex.lock lock;
        violations := s :: !violations;
        Mutex.unlock lock)
      fmt_
  in
  let attempted : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let note_attempt item value =
    Mutex.lock lock;
    Hashtbl.replace attempted (item ^ "=" ^ value) ();
    Mutex.unlock lock
  in
  let was_attempted item value =
    Mutex.lock lock;
    let r = Hashtbl.mem attempted (item ^ "=" ^ value) in
    Mutex.unlock lock;
    r
  in
  let ops_attempted = ref 0 and ops_succeeded = ref 0 in
  (* Recovery times (ns), recorded from both workers. *)
  let recovery = ref [] in
  (* Per-worker recovery tracking: first failure of a failing streak to
     the next success. *)
  let make_op_tracker () =
    let fail_since = ref nan in
    fun run ->
      Mutex.lock lock;
      incr ops_attempted;
      Mutex.unlock lock;
      let ok = run () in
      let now = Unix.gettimeofday () in
      if ok then begin
        Mutex.lock lock;
        incr ops_succeeded;
        if not (Float.is_nan !fail_since) then
          recovery := (now -. !fail_since) *. 1e9 :: !recovery;
        Mutex.unlock lock;
        fail_since := nan
      end
      else if Float.is_nan !fail_since then fail_since := now
  in
  let rec connect_retry name key cfg tries =
    match
      Store.Client.connect ~config:cfg ~uid:name ~key ~keyring ~group:"chaos" ()
    with
    | Ok c -> c
    | Error e when tries > 0 ->
      ignore e;
      Thread.delay 0.2;
      connect_retry name key cfg (tries - 1)
    | Error e ->
      failwith
        (Printf.sprintf "e15 connect %s: %s" name
           (Store.Client.error_to_string e))
  in
  let items = [| "k0"; "k1"; "k2"; "k3" |] in
  let soak_writes = 60 in
  let writer_done = ref false in
  let writer () =
    Tcpnet.Live.run ~endpoints (fun () ->
        let alice = connect_retry "alice" alice_key cfg_alice 10 in
        let op = make_op_tracker () in
        for i = 1 to soak_writes do
          let item = items.(i mod Array.length items) in
          let value = Printf.sprintf "%s#%d" item i in
          note_attempt item value;
          op (fun () ->
              match Store.Client.write alice ~item value with
              | Ok () -> true
              | Error _ -> false);
          Thread.delay 0.03
        done;
        ignore (Store.Client.disconnect alice))
  in
  let reader () =
    Tcpnet.Live.run ~endpoints (fun () ->
        let bob = connect_retry "bob" bob_key cfg_bob 10 in
        let op = make_op_tracker () in
        let last_seq : (string, int) Hashtbl.t = Hashtbl.create 4 in
        let i = ref 0 in
        while not !writer_done do
          incr i;
          let item = items.(!i mod Array.length items) in
          op (fun () ->
              match Store.Client.read bob ~item with
              | Error _ -> false
              | Ok v ->
                (* Invariant 1: only values alice actually wrote. *)
                if not (was_attempted item v) then
                  violate "read of %s returned un-written value %S" item v;
                (* Invariant 2: per-item monotonicity within the session
                   (values encode the writer's sequence number). *)
                (match String.index_opt v '#' with
                | Some h -> (
                  match
                    int_of_string_opt
                      (String.sub v (h + 1) (String.length v - h - 1))
                  with
                  | Some seq ->
                    (match Hashtbl.find_opt last_seq item with
                    | Some prev when seq < prev ->
                      violate "read of %s went backwards: %d after %d" item
                        seq prev
                    | _ -> ());
                    Hashtbl.replace last_seq item seq
                  | None -> ())
                | None -> ());
                true);
          Thread.delay 0.02
        done)
  in
  let crashes = ref 0 in
  let guard name fn () =
    try fn ()
    with e ->
      Mutex.lock lock;
      incr crashes;
      violations :=
        Printf.sprintf "%s worker died: %s" name (Printexc.to_string e)
        :: !violations;
      Mutex.unlock lock
  in
  (* Warm the shared pool (timekeeper thread, self-pipe) before the fd
     baseline, so only connection churn counts as growth. *)
  Tcpnet.Live.run ~endpoints (fun () ->
      let alice = connect_retry "alice" alice_key cfg_alice 10 in
      let _ = Store.Client.write alice ~item:"warmup" "w" in
      ());
  let live_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let fd_baseline = live_fds () in
  let t0 = Unix.gettimeofday () in
  let wt = Thread.create (guard "writer" writer) () in
  let rt = Thread.create (guard "reader" reader) () in
  Thread.join wt;
  writer_done := true;
  Thread.join rt;
  let soak_secs = Unix.gettimeofday () -. t0 in
  (* Heal every proxy, then prove recovery: final writes must become
     visible to a fresh session on every item once gossip catches up. *)
  Array.iter Tcpnet.Chaos.heal proxies;
  let final_values : (string, string) Hashtbl.t = Hashtbl.create 4 in
  Tcpnet.Live.run ~endpoints (fun () ->
      let alice =
        connect_retry "alice" alice_key
          { cfg_alice with Store.Client.op_deadline = 10.0 }
          10
      in
      Array.iter
        (fun item ->
          let value = Printf.sprintf "%s#final" item in
          Hashtbl.replace final_values item value;
          note_attempt item value;
          match Store.Client.write alice ~item value with
          | Ok () -> ()
          | Error e ->
            violate "post-heal write of %s failed: %s" item
              (Store.Client.error_to_string e))
        items;
      (* Disconnect flushes the escalation queue: the final MAC-fast
         writes must be signed and announced before bob's convergence
         reads, which only accept verifiable evidence. *)
      (match Store.Client.disconnect alice with
      | Ok () -> ()
      | Error e ->
        violate "post-heal disconnect failed: %s"
          (Store.Client.error_to_string e));
      let bob =
        connect_retry "bob" bob_key
          { cfg_bob with Store.Client.op_deadline = 10.0 }
          10
      in
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec converge remaining =
        match remaining with
        | [] -> ()
        | _ when Unix.gettimeofday () > deadline ->
          violate "post-heal convergence timed out on: %s"
            (String.concat ", " remaining)
        | _ ->
          let remaining' =
            List.filter
              (fun item ->
                match Store.Client.read bob ~item with
                | Ok v -> not (String.equal v (Hashtbl.find final_values item))
                | Error _ -> true)
              remaining
          in
          if remaining' <> [] then Thread.delay 0.1;
          converge remaining'
      in
      converge (Array.to_list items));
  let fd_growth = live_fds () - fd_baseline in
  (* Invariant 4: bounded connection churn. Generous slack: the pool
     may legitimately hold a couple of connections per endpoint that
     the warmup had not dialed yet, each spliced through a proxy. *)
  if fd_growth > 40 then
    violate "fd table grew by %d (baseline %d)" fd_growth fd_baseline;
  let cstats =
    Array.to_list (Array.map Tcpnet.Chaos.stats proxies)
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 cstats in
  let dropped = sum (fun (s : Tcpnet.Chaos.stats) -> s.dropped) in
  let corrupted = sum (fun (s : Tcpnet.Chaos.stats) -> s.corrupted) in
  let resets = sum (fun (s : Tcpnet.Chaos.stats) -> s.resets) in
  let refused = sum (fun (s : Tcpnet.Chaos.stats) -> s.refused) in
  let killed = sum (fun (s : Tcpnet.Chaos.stats) -> s.killed) in
  let forwarded = sum (fun (s : Tcpnet.Chaos.stats) -> s.forwarded) in
  Array.iter Tcpnet.Chaos.stop proxies;
  Array.iter Tcpnet.Server_host.stop hosts;
  let recovery = Array.of_list !recovery in
  Array.sort compare recovery;
  (* ns -> ms at the reporting boundary *)
  let rec_pct p = pct recovery p /. 1e6 in
  let m = Store.Metrics.read () in
  (* --- Sharded-isolation phase: a Byzantine replica *inside one
     shard* must leave the other shard untouched, and its own shard's
     quorums must mask it (b=1). Two shards, four multi-shard hosts
     (each serving one replica of both shards on one port); host 2 runs
     Corrupt_value on shard 1 only. A router writes and reads groups on
     both shards; every op must succeed and read back exactly what was
     written, and the per-shard client metrics must show zero failures
     on the clean shard. *)
  let iso_shards = 2 in
  Store.Metrics.reset ();
  let iso_key = key_of "iso" in
  let iso_keyring = Store.Keyring.create () in
  Store.Keyring.register iso_keyring "iso" iso_key.Crypto.Rsa.public;
  for gid = 0 to (iso_shards * n) - 1 do
    Store.Keyring.register_mac iso_keyring ~client:"iso" ~server:gid
      (Crypto.Sha256.digest (Printf.sprintf "e15-iso-mac!%d" gid))
  done;
  let iso_servers =
    Array.init (iso_shards * n) (fun gid ->
        Store.Server.create ~id:gid ~keyring:iso_keyring ~n ~b ())
  in
  let iso_ports = Array.init n (fun _ -> reserve_port ()) in
  let iso_hosts =
    Array.init n (fun r ->
        let peers =
          List.filteri (fun j _ -> j <> r)
            (Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) iso_ports))
        in
        let specs =
          List.init iso_shards (fun s ->
              {
                Tcpnet.Server_host.shard = s;
                server = iso_servers.((s * n) + r);
                behavior =
                  (if r = 2 && s = 1 then Store.Faults.Corrupt_value
                   else Store.Faults.Honest);
                peers;
              })
        in
        Tcpnet.Server_host.start_sharded ~gossip_period:0.2 ~shards:specs
          ~port:iso_ports.(r) ())
  in
  let iso_table = Store.Shardmap.make ~seed:"e15-iso" ~shards:iso_shards () in
  (* Enough groups that both shards get some (deterministic: same seed,
     same table, same split in every run). *)
  let iso_groups = List.init 8 (fun g -> Printf.sprintf "iso%d" g) in
  let groups_on s =
    List.filter
      (fun g -> Store.Shardmap.shard_of_group iso_table g = s)
      iso_groups
  in
  List.iter
    (fun s ->
      if groups_on s = [] then
        violate "sharded isolation: no sample group landed on shard %d" s)
    (List.init iso_shards Fun.id);
  let iso_eps gid =
    if gid >= 0 && gid < iso_shards * n then
      Some ("127.0.0.1", iso_ports.(gid mod n))
    else None
  in
  let iso_config_of shard =
    {
      base_cfg with
      Store.Client.servers = Store.Router.shard_servers ~n shard;
      timeout = 1.0;
      signing = Store.Client.Mac_fast;
      op_deadline = 5.0;
      write_retries = 1;
      read_retries = 2;
      retry_delay = 0.02;
      retry_backoff_max = 0.1;
    }
  in
  let iso_ops = ref 0 in
  Tcpnet.Live.run ~endpoints:iso_eps
    ~shard_of:(fun node -> Some (node / n))
    (fun () ->
      let router =
        Store.Router.create ~table:iso_table ~uid:"iso" ~key:iso_key
          ~keyring:iso_keyring ~config_of:iso_config_of ()
      in
      for i = 1 to 8 do
        List.iter
          (fun g ->
            let uid =
              Store.Uid.make ~group:g ~item:(Printf.sprintf "k%d" (i mod 3))
            in
            let value = Printf.sprintf "%s#%d" g i in
            incr iso_ops;
            (match Store.Router.write router ~uid value with
            | Ok () -> ()
            | Error e ->
              violate "sharded isolation: write %s (shard %d) failed: %s"
                (Store.Uid.to_string uid)
                (Store.Shardmap.shard_of_uid iso_table uid)
                (Store.Client.error_to_string e));
            incr iso_ops;
            match Store.Router.read router ~uid with
            | Ok v when String.equal v value -> ()
            | Ok v ->
              violate "sharded isolation: read %s got %S want %S"
                (Store.Uid.to_string uid) v value
            | Error e ->
              violate "sharded isolation: read %s (shard %d) failed: %s"
                (Store.Uid.to_string uid)
                (Store.Shardmap.shard_of_uid iso_table uid)
                (Store.Client.error_to_string e))
          iso_groups
      done;
      ignore (Store.Router.disconnect router));
  let iso_failures s =
    match List.assoc_opt s (Store.Metrics.shard_client_stats ()) with
    | Some c -> c.Store.Metrics.shard_failures
    | None -> 0
  in
  let iso_shard0_failures = iso_failures 0 in
  let iso_shard1_failures = iso_failures 1 in
  if iso_shard0_failures > 0 then
    violate
      "sharded isolation: %d client-op failure(s) on shard 0, which hosts \
       no Byzantine replica"
      iso_shard0_failures;
  Array.iter Tcpnet.Server_host.stop iso_hosts;
  let degraded = !ops_attempted - !ops_succeeded in
  let nviol = List.length !violations in
  List.iter (fun v -> Format.fprintf fmt "VIOLATION: %s@." v) (List.rev !violations);
  let table =
    {
      Workload.Table.id = "E15";
      title =
        Printf.sprintf
          "Chaos soak (n=%d b=%d, seeded fault proxies + Downgrade server, \
           mac-fast writer, %.1f s)"
          n b soak_secs;
      header = [ "metric"; "value" ];
      rows =
        [
          [ "ops attempted"; string_of_int !ops_attempted ];
          [ "ops succeeded"; string_of_int !ops_succeeded ];
          [ "ops degraded (failed under chaos)"; string_of_int degraded ];
          [ "safety violations"; string_of_int nviol ];
          [ "client retries / escalations";
            Printf.sprintf "%d / %d" m.Store.Metrics.retries
              m.Store.Metrics.escalations ];
          [ "recovery p50 / p95 / max (ms)";
            Printf.sprintf "%.0f / %.0f / %.0f" (rec_pct 50.0) (rec_pct 95.0)
              (rec_pct 100.0) ];
          [ "frames forwarded / dropped / corrupted";
            Printf.sprintf "%d / %d / %d" forwarded dropped corrupted ];
          [ "resets / conns refused / conns killed";
            Printf.sprintf "%d / %d / %d" resets refused killed ];
          [ "fd growth over soak"; string_of_int fd_growth ];
          [ Printf.sprintf
              "sharded isolation (S=%d, Corrupt_value in shard 1): ops / \
               shard-0 / shard-1 failures"
              iso_shards;
            Printf.sprintf "%d / %d / %d" !iso_ops iso_shard0_failures
              iso_shard1_failures ];
        ];
      notes =
        [
          "safety invariants: no un-written value returned, per-session";
          "monotonic reads, post-heal convergence, zero worker deaths,";
          Printf.sprintf "bounded fd churn; schedule digest %s"
            (String.sub digest 0 16);
          "sharded isolation: a Byzantine replica inside one shard is \
           masked by its own quorum and invisible to the other shard.";
        ];
    }
  in
  Workload.Table.print fmt table;
  if json then
    write_json ~path:"BENCH_chaos.json" ~schema:"bench-chaos-v1"
      ~header:[ ("seed", string_of_int seed); ("schedule_digest", "\"" ^ digest ^ "\"") ]
      [
        ("ops_attempted", string_of_int !ops_attempted);
        ("ops_succeeded", string_of_int !ops_succeeded);
        ("ops_degraded", string_of_int degraded);
        ("safety_violations", string_of_int nviol);
        ("worker_crashes", string_of_int !crashes);
        ("client_retries", string_of_int m.Store.Metrics.retries);
        ("client_escalations", string_of_int m.Store.Metrics.escalations);
        ("recovery_p50_ms", Printf.sprintf "%.1f" (rec_pct 50.0));
        ("recovery_p95_ms", Printf.sprintf "%.1f" (rec_pct 95.0));
        ("recovery_max_ms",
          Printf.sprintf "%.1f" (rec_pct 100.0));
        ("frames_forwarded", string_of_int forwarded);
        ("frames_dropped", string_of_int dropped);
        ("frames_corrupted", string_of_int corrupted);
        ("resets", string_of_int resets);
        ("conns_refused", string_of_int refused);
        ("conns_killed", string_of_int killed);
        ("fd_growth", string_of_int fd_growth);
        ("sharded_iso_shards", string_of_int iso_shards);
        ("sharded_iso_ops", string_of_int !iso_ops);
        ("sharded_iso_shard0_failures", string_of_int iso_shard0_failures);
        ("sharded_iso_shard1_failures", string_of_int iso_shard1_failures);
      ];
  if nviol > 0 then begin
    Format.fprintf fmt "E15: %d safety violation(s) — failing@." nviol;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E16: consistency oracle — seeded schedule exploration               *)
(* ------------------------------------------------------------------ *)

(* BENCH_check.json is pass/fail counts, not ns/op and not a perf
   baseline: every run must report zero violations, so there is nothing
   to compare against. *)
let write_check_json ~path ~seed ~schedules ~events ~ops_ok ~ops_failed
    ~violations ~canary_caught ~control_clean ~canary_shrunk_to
    ~determinism_ok ~router_shards ~router_events ~router_violations
    ~reconfig_schedules ~reconfig_events ~reconfig_violations =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"schema\": \"bench-check-v1\",\n  \"seed\": %d,\n\
        \  \"schedules\": %d,\n  \"events\": %d,\n  \"ops_ok\": %d,\n\
        \  \"ops_failed\": %d,\n  \"violations\": %d,\n\
        \  \"canary_caught\": %b,\n  \"control_clean\": %b,\n\
        \  \"canary_shrunk_to\": \"%s\",\n  \"determinism_ok\": %b,\n\
        \  \"router_shards\": %d,\n  \"router_events\": %d,\n\
        \  \"router_violations\": %d,\n  \"reconfig_schedules\": %d,\n\
        \  \"reconfig_events\": %d,\n  \"reconfig_violations\": %d\n}\n"
        seed schedules events ops_ok ops_failed violations canary_caught
        control_clean canary_shrunk_to determinism_ok router_shards
        router_events router_violations reconfig_schedules reconfig_events
        reconfig_violations);
  Format.fprintf fmt "wrote %s@." path

(* Hundreds of seeded fault schedules (random latency and loss, crash
   windows, partitions, <= b Byzantine servers, mixed sw/mw mrc/cc
   workloads), every client history checked by {!Check.Oracle}. Three
   meta-checks keep the harness honest: the canary (a client whose
   freshness check is disabled) must be flagged and must shrink to its
   one relevant fault category; the same choreography with an honest
   client must pass; and re-running a schedule must reproduce the exact
   history digest (seed-only reproducibility). *)
let e16_check ~seed ~json () =
  let module E = Check.Explorer in
  let schedules =
    match Sys.getenv_opt "CHECK_SCHEDULES" with
    | Some s -> ( try max 1 (int_of_string s) with _ -> 500)
    | None -> 500
  in
  (* Canary and control. *)
  let canary = E.run (E.canary_schedule ~seed) in
  let control = E.run { (E.canary_schedule ~seed) with E.canary = false } in
  let canary_caught = canary.E.violations <> [] in
  let control_clean = control.E.violations = [] in
  Format.fprintf fmt "E16 canary (%s):@." (E.describe canary.E.schedule);
  List.iter
    (fun v -> Format.fprintf fmt "  caught: %s@." (Check.Oracle.violation_to_string v))
    canary.E.violations;
  if not canary_caught then
    Format.fprintf fmt "  MISSED: the oracle did not flag the broken client@.";
  if not control_clean then
    Format.fprintf fmt "  control run unexpectedly violated@.";
  let shrunk, kept = E.shrink canary in
  let canary_shrunk_to =
    String.concat "," (List.map E.category_name kept)
  in
  Format.fprintf fmt
    "  shrink: %d fault categories -> {%s} (violation %s)@."
    (List.length (E.active_categories canary.E.schedule))
    canary_shrunk_to
    (if shrunk.E.violations <> [] then "persists" else "LOST");
  (* Determinism: the same seed must reproduce the same history. *)
  let d1 = E.run (E.schedule_of_seed seed) in
  let d2 = E.run (E.schedule_of_seed seed) in
  let determinism_ok = String.equal d1.E.history_digest d2.E.history_digest in
  if not determinism_ok then
    Format.fprintf fmt "E16: seed %d did NOT reproduce its history digest@."
      seed;
  (* Router segment: the oracle over a *sharded* world. A client-side
     router (one session per group, groups consistently hashed onto
     shards, global server ids s*n+r) must preserve every guarantee
     unchanged, because no context crosses a shard boundary — checked
     on the combined history and again on each shard's partition. *)
  let router_shards = 2 in
  let router_events, router_violations =
    let rn = 4 and rb = 1 in
    let key_of name =
      Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("e16r-" ^ name))
    in
    let alice_key = key_of "alice" and bob_key = key_of "bob" in
    let keyring = Store.Keyring.create () in
    Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
    Store.Keyring.register keyring "bob" bob_key.Crypto.Rsa.public;
    let servers =
      Array.init (router_shards * rn) (fun gid ->
          Store.Server.create ~id:gid ~keyring ~n:rn ~b:rb ())
    in
    let handlers dst ~from req =
      if dst >= 0 && dst < Array.length servers then
        Store.Server.handler servers.(dst) ~now:0.0 ~from req
      else None
    in
    let tbl =
      Store.Shardmap.make ~seed:"e16-router" ~shards:router_shards ()
    in
    let config_of shard =
      {
        (Store.Client.default_config ~n:rn ~b:rb) with
        Store.Client.servers = Store.Router.shard_servers ~n:rn shard;
      }
    in
    let groups = List.init 12 (fun g -> Printf.sprintf "rg%d" g) in
    let fail ctx e = failwith (ctx ^ ": " ^ Store.Client.error_to_string e) in
    let hist = Check.History.create () in
    Check.History.recording hist (fun () ->
        Sim.Direct.run ~handlers (fun () ->
            (* Alice writes every group (interleaved across shards) and
               reads some of her own writes back mid-stream. *)
            let ra =
              Store.Router.create ~table:tbl ~uid:"alice" ~key:alice_key
                ~keyring ~config_of ()
            in
            for i = 0 to 5 do
              List.iter
                (fun g ->
                  let uid =
                    Store.Uid.make ~group:g
                      ~item:(Printf.sprintf "k%d" (i mod 3))
                  in
                  (match
                     Store.Router.write ra ~uid (Printf.sprintf "%s=%d" g i)
                   with
                  | Ok () -> ()
                  | Error e -> fail "e16 router write" e);
                  if i land 1 = 1 then
                    match Store.Router.read ra ~uid with
                    | Ok _ -> ()
                    | Error e -> fail "e16 router read-own" e)
                groups
            done;
            (match Store.Router.disconnect ra with
            | Ok () -> ()
            | Error e -> fail "e16 router disconnect" e);
            (* Bob reads everything twice (monotonic reads + linkage). *)
            let rbr =
              Store.Router.create ~table:tbl ~uid:"bob" ~key:bob_key ~keyring
                ~config_of ()
            in
            List.iter
              (fun g ->
                for i = 0 to 2 do
                  for _pass = 1 to 2 do
                    let uid =
                      Store.Uid.make ~group:g ~item:(Printf.sprintf "k%d" i)
                    in
                    match Store.Router.read rbr ~uid with
                    | Ok _ -> ()
                    | Error e -> fail "e16 router read" e
                  done
                done)
              groups;
            ignore (Store.Router.disconnect rbr)));
    let events = Check.History.events hist in
    (* A session serves exactly one group, so partitioning by the shard
       of the uids a session touched is total on uid-bearing events;
       connect/disconnect events follow their session. *)
    let session_shard = Hashtbl.create 64 in
    List.iter
      (fun (e : Store.Trace.event) ->
        match e.Store.Trace.kind with
        | Store.Trace.Write { uid; _ } | Store.Trace.Read { uid } ->
          if not (Hashtbl.mem session_shard (e.client, e.session)) then
            Hashtbl.replace session_shard (e.client, e.session)
              (Store.Shardmap.shard_of_uid tbl uid)
        | _ -> ())
      events;
    let viol = ref (Check.Oracle.check events) in
    List.iter
      (fun s ->
        let evs =
          List.filter
            (fun (e : Store.Trace.event) ->
              Hashtbl.find_opt session_shard (e.client, e.session) = Some s)
            events
        in
        Format.fprintf fmt "E16 router: shard %d history: %d events@." s
          (List.length evs);
        if evs = [] then
          Format.fprintf fmt
            "  EMPTY: shard %d saw no operations (table imbalance?)@." s;
        viol := !viol @ Check.Oracle.check evs)
      (List.init router_shards Fun.id);
    List.iter
      (fun v ->
        Format.fprintf fmt "E16 router VIOLATION: %s@."
          (Check.Oracle.violation_to_string v))
      !viol;
    (List.length events, List.length !viol)
  in
  Format.fprintf fmt
    "E16 router: %d events over %d shards, %d violation(s)@." router_events
    router_shards router_violations;
  (* The sweep. *)
  let t0 = Unix.gettimeofday () in
  let events = ref 0 and ops_ok = ref 0 and ops_failed = ref 0 in
  let violated = ref [] in
  for i = 0 to schedules - 1 do
    let out = E.run (E.schedule_of_seed (seed + i)) in
    events := !events + out.E.events;
    ops_ok := !ops_ok + out.E.ops_ok;
    ops_failed := !ops_failed + out.E.ops_failed;
    if out.E.violations <> [] then begin
      violated := out :: !violated;
      let path = Printf.sprintf "CHECK_violation_%d.json" out.E.schedule.E.seed in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (E.violation_report_json out));
      Format.fprintf fmt "E16 VIOLATION (%s) -> %s@."
        (E.describe out.E.schedule) path;
      List.iter
        (fun v ->
          Format.fprintf fmt "  %s@." (Check.Oracle.violation_to_string v))
        out.E.violations
    end;
    if (i + 1) mod 100 = 0 then
      Format.fprintf fmt "E16: %d/%d schedules, %d events, 0 + %d violations@."
        (i + 1) schedules !events
        (List.length !violated)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let nviol =
    List.fold_left (fun n o -> n + List.length o.E.violations) 0 !violated
  in
  (* Reconfiguration sweep: the same seeds again, each schedule now with
     1-2 admin-signed membership transitions interleaved with its faults.
     Every oracle property must hold across epoch boundaries too. *)
  let reconfig_schedules =
    match Sys.getenv_opt "CHECK_RECONFIG_SCHEDULES" with
    | Some s -> ( try max 1 (int_of_string s) with _ -> 200)
    | None -> max 200 (min schedules 500)
  in
  let rt0 = Unix.gettimeofday () in
  let reconfig_events = ref 0 and reconfig_hist_events = ref 0 in
  let reconfig_ok = ref 0 and reconfig_failed = ref 0 in
  let reconfig_violated = ref 0 in
  for i = 0 to reconfig_schedules - 1 do
    let sched = E.reconfig_schedule_of_seed (seed + i) in
    if sched.E.reconfigs = [] then begin
      Format.fprintf fmt "E16 reconfig: seed %d drew NO membership events@."
        (seed + i);
      reconfig_violated := !reconfig_violated + 1
    end;
    reconfig_events := !reconfig_events + List.length sched.E.reconfigs;
    let out = E.run sched in
    reconfig_hist_events := !reconfig_hist_events + out.E.events;
    reconfig_ok := !reconfig_ok + out.E.ops_ok;
    reconfig_failed := !reconfig_failed + out.E.ops_failed;
    if out.E.violations <> [] then begin
      reconfig_violated := !reconfig_violated + List.length out.E.violations;
      let path =
        Printf.sprintf "CHECK_violation_reconfig_%d.json" out.E.schedule.E.seed
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (E.violation_report_json out));
      Format.fprintf fmt "E16 RECONFIG VIOLATION (%s) -> %s@."
        (E.describe out.E.schedule) path;
      List.iter
        (fun v ->
          Format.fprintf fmt "  %s@." (Check.Oracle.violation_to_string v))
        out.E.violations
    end;
    if (i + 1) mod 100 = 0 then
      Format.fprintf fmt
        "E16 reconfig: %d/%d schedules, %d transitions, %d violations@."
        (i + 1) reconfig_schedules !reconfig_events !reconfig_violated
  done;
  let reconfig_elapsed = Unix.gettimeofday () -. rt0 in
  Format.fprintf fmt
    "E16 reconfig: %d schedules, %d membership transitions, %d history \
     events, %d / %d ops ok/failed, %d violation(s) (%.1f s)@."
    reconfig_schedules !reconfig_events !reconfig_hist_events !reconfig_ok
    !reconfig_failed !reconfig_violated reconfig_elapsed;
  let table =
    {
      Workload.Table.id = "E16";
      title =
        Printf.sprintf
          "Consistency oracle over %d seeded schedules (seeds %d..%d, %.1f s)"
          schedules seed (seed + schedules - 1) elapsed;
      header = [ "metric"; "value" ];
      rows =
        [
          [ "schedules explored"; string_of_int schedules ];
          [ "history events checked"; string_of_int !events ];
          [ "client ops ok / failed";
            Printf.sprintf "%d / %d" !ops_ok !ops_failed ];
          [ "oracle violations"; string_of_int nviol ];
          [ "canary caught / control clean";
            Printf.sprintf "%b / %b" canary_caught control_clean ];
          [ "canary shrunk to"; "{" ^ canary_shrunk_to ^ "}" ];
          [ "seed-reproducible history"; Printf.sprintf "%b" determinism_ok ];
          [ Printf.sprintf "router world (%d shards): events / violations"
              router_shards;
            Printf.sprintf "%d / %d" router_events router_violations ];
          [ "reconfig schedules / transitions";
            Printf.sprintf "%d / %d" reconfig_schedules !reconfig_events ];
          [ "reconfig violations"; string_of_int !reconfig_violated ];
        ];
      notes =
        List.map
          (fun (name, def) -> Printf.sprintf "%s: %s" name def)
          Check.Oracle.properties;
    }
  in
  Workload.Table.print fmt table;
  if json then
    write_check_json ~path:"BENCH_check.json" ~seed ~schedules ~events:!events
      ~ops_ok:!ops_ok ~ops_failed:!ops_failed ~violations:nviol ~canary_caught
      ~control_clean ~canary_shrunk_to ~determinism_ok ~router_shards
      ~router_events ~router_violations ~reconfig_schedules
      ~reconfig_events:!reconfig_events ~reconfig_violations:!reconfig_violated;
  if
    nviol > 0 || (not canary_caught) || (not control_clean)
    || (not determinism_ok) || router_violations > 0
    || !reconfig_violated > 0
  then begin
    Format.fprintf fmt "E16: oracle harness failed — see above@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E18: write-signing modes over live TCP                              *)
(* ------------------------------------------------------------------ *)

(* E17 put the number on the table: RSA signing is ~80%% of write
   latency on loopback. E18 measures what the two fast paths buy back,
   against the same real n=4 b=1 TCP cluster:

     per-write-sig  — the paper's baseline, one RSA signature per write;
     merkle-batch k — write_batch signs one Merkle root per k writes;
     mac-fast       — per-server HMAC vectors, signatures deferred to
                      the background escalation (every 8 writes here, so
                      its cost shows up in the tail, not the median).

   All three modes run in one process against fresh items; each mode
   ends with a read-back so the numbers only count writes that really
   became readable. Exact percentiles from the raw sample arrays (no
   histogram bucketing — the differences being measured are smaller
   than a log bucket). *)
let e18_sign ~json () =
  let n = 4 and b = 1 in
  Obs.Span.set_enabled false;
  let key_of name =
    Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("e18-" ^ name))
  in
  let alice_key = key_of "alice" in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  for server = 0 to n - 1 do
    Store.Keyring.register_mac keyring ~client:"alice" ~server
      (Crypto.Sha256.digest (Printf.sprintf "e18-mac!%d" server))
  done;
  let servers =
    Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ())
  in
  let hosts =
    Array.map (fun server -> Tcpnet.Server_host.start ~server ~port:0 ()) servers
  in
  let eps = Array.map (fun h -> ("127.0.0.1", Tcpnet.Server_host.port h)) hosts in
  let endpoints id = if id >= 0 && id < n then Some eps.(id) else None in
  let batch_k = 8 in
  let writes = 304 (* divisible by batch_k *) in
  (* Run one mode: fresh client, warmup, [writes] measured writes (as
     write_batch chunks under Merkle batching, each sample = batch time /
     batch size), read-back check, then metrics. *)
  let run_mode (label, signing) =
    Store.Metrics.reset ();
    Store.Signing.reset_sigcache ();
    let cfg =
      {
        (Store.Client.default_config ~n ~b) with
        Store.Client.timeout = 2.0;
        signing;
        escalate_every = batch_k;
      }
    in
    let samples = ref [] in
    Tcpnet.Live.run ~endpoints (fun () ->
        let alice =
          match
            Store.Client.connect ~config:cfg ~uid:"alice" ~key:alice_key
              ~keyring ~group:("e18-" ^ label) ()
          with
          | Ok c -> c
          | Error e -> failwith ("e18 connect: " ^ Store.Client.error_to_string e)
        in
        let item i = "k" ^ string_of_int (i mod 16) in
        let fail_op e = failwith ("e18 write: " ^ Store.Client.error_to_string e) in
        for i = 1 to 24 do
          (* warmup: dials, sigcache, allocator *)
          match Store.Client.write alice ~item:(item i) (Printf.sprintf "warm%d" i) with
          | Ok () -> ()
          | Error e -> fail_op e
        done;
        (match signing with
        | Store.Client.Merkle_batch k ->
          for batch = 0 to (writes / k) - 1 do
            let items =
              List.init k (fun j ->
                  let i = (batch * k) + j in
                  (item i, Printf.sprintf "%s-%d" label i))
            in
            let ns, results = time_ns (fun () -> Store.Client.write_batch alice items) in
            List.iter (function Ok () -> () | Error e -> fail_op e) results;
            samples := (ns /. float_of_int k) :: !samples
          done
        | Store.Client.Per_write_sig | Store.Client.Mac_fast ->
          for i = 0 to writes - 1 do
            let ns, r =
              time_ns (fun () ->
                  Store.Client.write alice ~item:(item i)
                    (Printf.sprintf "%s-%d" label i))
            in
            (match r with Ok () -> () | Error e -> fail_op e);
            samples := ns :: !samples
          done);
        (* Read-back: the mode's last write on item (writes-1) must be
           readable — for mac-fast this forces and checks escalation. *)
        let last = writes - 1 in
        (match Store.Client.read alice ~item:(item last) with
        | Ok v ->
          let expect = Printf.sprintf "%s-%d" label last in
          if not (String.equal v expect) then
            failwith (Printf.sprintf "e18 %s read-back: got %S want %S" label v expect)
        | Error e -> failwith ("e18 read-back: " ^ Store.Client.error_to_string e));
        ignore (Store.Client.disconnect alice));
    let sorted = Array.of_list !samples in
    Array.sort compare sorted;
    let m = Store.Metrics.read () in
    (label, sorted, m)
  in
  let modes =
    [
      ("per_write_sig", Store.Client.Per_write_sig);
      ("merkle_batch8", Store.Client.Merkle_batch batch_k);
      ("mac_fast", Store.Client.Mac_fast);
    ]
  in
  let results = List.map run_mode modes in
  Array.iter Tcpnet.Server_host.stop hosts;
  let p50_of label =
    let _, sorted, _ = List.find (fun (l, _, _) -> l = label) results in
    pct sorted 50.0
  in
  let base_p50 = p50_of "per_write_sig" in
  let target_ns = 150e3 in
  let rows =
    List.map
      (fun (label, sorted, m) ->
        [
          label;
          string_of_int (Array.length sorted);
          Printf.sprintf "%.0f" (pct sorted 50.0 /. 1e3);
          Printf.sprintf "%.0f" (pct sorted 95.0 /. 1e3);
          Printf.sprintf "%.0f" (pct sorted 99.0 /. 1e3);
          Printf.sprintf "%.1fx" (base_p50 /. pct sorted 50.0);
          string_of_int m.Store.Metrics.signs;
          string_of_int m.Store.Metrics.macs;
        ])
      results
  in
  let table =
    {
      Workload.Table.id = "E18";
      title =
        Printf.sprintf
          "Write-path signing modes (real TCP, n=%d b=%d, %d writes per \
           mode, batch k=%d, escalate every %d)"
          n b writes batch_k batch_k;
      header =
        [ "mode"; "samples"; "p50 (us)"; "p95 (us)"; "p99 (us)"; "speedup";
          "signs"; "macs" ];
      rows;
      notes =
        [
          "per-write-sig = the paper's baseline (one RSA sign per write);";
          "merkle-batch samples are batch wall time / k (one sign per k \
           writes);";
          "mac-fast medians exclude signing entirely — escalation (every \
           8 writes) lands in the tail;";
          Printf.sprintf
            "target: fast-mode write p50 < %.0f us on loopback%s"
            (target_ns /. 1e3)
            (if
               List.exists
                 (fun (l, sorted, _) ->
                   l <> "per_write_sig" && pct sorted 50.0 < target_ns)
                 results
             then " — met"
             else " — MISSED");
          "exact percentiles over raw samples (no histogram bucketing).";
        ];
    }
  in
  Workload.Table.print fmt table;
  if json then
    write_json ~path:"BENCH_sign.json" ~schema:"bench-sign-v1"
      (List.concat_map
         (fun (label, sorted, m) ->
           [
             (label ^ "_p50_ns", Printf.sprintf "%.0f" (pct sorted 50.0));
             (label ^ "_p95_ns", Printf.sprintf "%.0f" (pct sorted 95.0));
             (label ^ "_p99_ns", Printf.sprintf "%.0f" (pct sorted 99.0));
             (label ^ "_signs", string_of_int m.Store.Metrics.signs);
             (label ^ "_macs", string_of_int m.Store.Metrics.macs);
           ])
         results
      @ [
          ("writes_per_mode", string_of_int writes);
          ("batch_k", string_of_int batch_k);
          ("target_fast_p50_ns", Printf.sprintf "%.0f" target_ns);
        ])

(* ------------------------------------------------------------------ *)
(* E20: asynchronous reconfiguration — rolling replacement under chaos *)
(* ------------------------------------------------------------------ *)

(* Live-TCP churn soak: an n=4, b=1 fleet behind chaos proxies has every
   server replaced, one at a time, by a fresh standby — four admin-signed
   epoch transitions (v2..v5) while a writer and a reader keep operating.
   Per transition: start the standby's host, announce the next epoch,
   wait until every member of the new epoch reports it over Epoch_get
   (the convergence latency), then gracefully retire the departing
   server (drain -> snapshot -> verify the snapshot reloads -> stop) and
   evict its endpoint from the connection pool. Clients ride across all
   four epochs in one session: a superseded write hits Stale_epoch,
   adopts the piggybacked config and retries against the re-derived
   quorums. Standbys bootstrap through ordinary gossip — surviving
   members re-announce their state when they see a joiner.

   Scored: op availability (>= 99% required), safety (reads return only
   written values, per-session per-item monotonicity, zero oracle
   violations on the recorded history), epoch convergence latency, and
   bootstrap bytes. *)
let e20_reconfig ~seed ~json () =
  let n = 4 and b = 1 in
  let capacity = 2 * n in
  Store.Metrics.reset ();
  Store.Metrics.reset_gauges ();
  let key_of name =
    Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("e20-" ^ name))
  in
  let alice_key = key_of "alice" and bob_key = key_of "bob" in
  let admin_key = key_of "admin" in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  Store.Keyring.register keyring "bob" bob_key.Crypto.Rsa.public;
  List.iter
    (fun client ->
      for server = 0 to capacity - 1 do
        Store.Keyring.register_mac keyring ~client ~server
          (Crypto.Sha256.digest (Printf.sprintf "e20-mac!%s!%d" client server))
      done)
    [ "alice"; "bob" ];
  let sconfig =
    {
      (Store.Server.default_config ~n ~b) with
      Store.Server.epoch_admin = Some admin_key.Crypto.Rsa.public;
    }
  in
  let servers =
    Array.init capacity (fun id ->
        Store.Server.create ~config:sconfig ~id ~keyring ~n ~b ())
  in
  let genesis =
    match Store.Config_epoch.genesis ~servers:(List.init n Fun.id) ~b () with
    | Ok e -> Store.Config_epoch.sign e admin_key
    | Error m -> failwith ("e20 genesis: " ^ m)
  in
  (* Only the initial members hold the genesis; standbys learn whatever
     epoch makes them members from the announcement or from gossip. *)
  for id = 0 to n - 1 do
    Store.Server.set_epoch servers.(id) genesis
  done;
  let host_ports = Array.init capacity (fun _ -> reserve_port ()) in
  let plans =
    Array.init capacity (fun i ->
        Tcpnet.Chaos.plan ~seed:(seed + i) ~drop:0.01 ~delay:0.0005
          ~jitter:0.002 ())
  in
  let proxies =
    Array.init capacity (fun i ->
        Tcpnet.Chaos.start ~plan:plans.(i)
          ~target:("127.0.0.1", host_ports.(i))
          ())
  in
  let proxy_eps =
    Array.map (fun p -> ("127.0.0.1", Tcpnet.Chaos.port p)) proxies
  in
  (* Peer lists cover the whole capacity: gossip to a not-yet-started
     standby fails harmlessly (bounded backlog, endpoint suspicion) and
     starts landing the moment its host comes up. *)
  let peers_for i =
    List.filteri (fun j _ -> j <> i) (Array.to_list proxy_eps)
  in
  let start_host i =
    Tcpnet.Server_host.start
      ~gossip:{ Tcpnet.Server_host.peers = peers_for i; period = 0.1 }
      ~server:servers.(i) ~port:host_ports.(i) ()
  in
  let hosts = Array.make capacity None in
  for i = 0 to n - 1 do
    hosts.(i) <- Some (start_host i)
  done;
  let endpoints id =
    if id >= 0 && id < capacity then Some proxy_eps.(id) else None
  in
  let base_cfg = Store.Client.default_config ~n ~b in
  let cfg_alice =
    {
      base_cfg with
      Store.Client.timeout = 0.3;
      read_retries = 3;
      write_retries = 3;
      retry_delay = 0.05;
      retry_backoff_max = 0.4;
      op_deadline = 8.0;
      epoch_admin = Some admin_key.Crypto.Rsa.public;
    }
  in
  let cfg_bob = { cfg_alice with Store.Client.read_spread = true; seed } in
  let lock = Mutex.create () in
  let violations = ref [] in
  let violate fmt_ =
    Printf.ksprintf
      (fun s ->
        Mutex.lock lock;
        violations := s :: !violations;
        Mutex.unlock lock)
      fmt_
  in
  let attempted : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let note_attempt item value =
    Mutex.lock lock;
    Hashtbl.replace attempted (item ^ "=" ^ value) ();
    Mutex.unlock lock
  in
  let was_attempted item value =
    Mutex.lock lock;
    let r = Hashtbl.mem attempted (item ^ "=" ^ value) in
    Mutex.unlock lock;
    r
  in
  let ops_attempted = ref 0 and ops_succeeded = ref 0 in
  let op run =
    Mutex.lock lock;
    incr ops_attempted;
    Mutex.unlock lock;
    if run () then begin
      Mutex.lock lock;
      incr ops_succeeded;
      Mutex.unlock lock
    end
  in
  let rec connect_retry name key cfg tries =
    match
      Store.Client.connect ~config:cfg ~uid:name ~key ~keyring ~group:"churn"
        ()
    with
    | Ok c -> c
    | Error e when tries > 0 ->
      ignore e;
      Thread.delay 0.2;
      connect_retry name key cfg (tries - 1)
    | Error e ->
      failwith
        (Printf.sprintf "e20 connect %s: %s" name
           (Store.Client.error_to_string e))
  in
  (* Rolling replacement: epoch v(2+i) swaps server i for standby n+i. *)
  let transitions = List.init n (fun i -> (i, n + i, 2 + i)) in
  let convergence_ms = ref [] in
  let epoch_chain = ref genesis in
  let controller_done = ref false in
  let writer_done = ref false in
  let snapshot_reloads = ref 0 in
  let final_epoch_seen = ref 0 in
  let controller () =
    Tcpnet.Live.run ~endpoints (fun () ->
        List.iter
          (fun (old_id, fresh_id, version) ->
            Sim.Runtime.sleep 0.8;
            hosts.(fresh_id) <- Some (start_host fresh_id);
            (* The pool has watched this endpoint refuse connections all
               soak; reset its suspicion so the join is not served with a
               stale backoff. *)
            Tcpnet.Pool.evict (Tcpnet.Pool.shared ()) proxy_eps.(fresh_id);
            let prev = !epoch_chain in
            let next_servers =
              fresh_id
              :: List.filter (fun s -> s <> old_id)
                   (Store.Config_epoch.servers prev)
            in
            let e =
              match
                Store.Config_epoch.next prev ~servers:next_servers ~b ()
              with
              | Ok e -> Store.Config_epoch.sign e admin_key
              | Error m -> failwith ("e20 epoch v" ^ string_of_int version ^ ": " ^ m)
            in
            epoch_chain := e;
            let announce =
              Store.Payload.encode_envelope
                {
                  Store.Payload.token = None;
                  epoch = 0;
                  request = Store.Payload.Epoch_announce e;
                }
            in
            let dsts = List.sort_uniq compare (old_id :: next_servers) in
            let t0 = Unix.gettimeofday () in
            ignore
              (Sim.Runtime.call_many ~timeout:1.0
                 ~quorum:(List.length dsts) dsts announce);
            (* Convergence: every member of the new epoch reports it. *)
            let get =
              Store.Payload.encode_envelope
                {
                  Store.Payload.token = None;
                  epoch = 0;
                  request = Store.Payload.Epoch_get;
                }
            in
            let deadline = t0 +. 10.0 in
            let rec wait remaining =
              match remaining with
              | [] ->
                convergence_ms :=
                  ((Unix.gettimeofday () -. t0) *. 1e3) :: !convergence_ms
              | _ when Unix.gettimeofday () > deadline ->
                violate "epoch v%d did not converge on servers: %s" version
                  (String.concat "," (List.map string_of_int remaining))
              | _ ->
                let remaining' =
                  List.filter
                    (fun sid ->
                      match Sim.Runtime.call_one ~timeout:0.5 sid get with
                      | None -> true
                      | Some payload -> (
                        match Store.Payload.decode_response payload with
                        | Some (Store.Payload.Epoch_reply (Some got)) ->
                          Store.Config_epoch.version got < version
                        | _ -> true))
                    remaining
                in
                if remaining' <> [] then Sim.Runtime.sleep 0.05;
                wait remaining'
            in
            wait next_servers;
            (* Graceful departure: drain (deny new writes, flush gossip
               backlog), snapshot, prove the snapshot reloads with the
               epoch and drain flag intact, stop, evict the endpoint. *)
            (match hosts.(old_id) with
            | None -> ()
            | Some h ->
              Tcpnet.Server_host.drain h;
              let path = Filename.temp_file "e20-snap" ".bin" in
              Store.Server.save_file servers.(old_id) ~path;
              (match
                 Store.Server.load_result ~config:sconfig ~id:old_id ~keyring
                   ~n ~b ~path ()
               with
              | Ok reloaded
                when Store.Server.epoch_version reloaded
                     = Store.Server.epoch_version servers.(old_id)
                     && Store.Server.draining reloaded ->
                incr snapshot_reloads
              | Ok _ ->
                violate
                  "departing server %d: snapshot reloaded without its epoch \
                   or drain flag"
                  old_id
              | Error m ->
                violate "departing server %d: snapshot did not reload: %s"
                  old_id m);
              Sys.remove path;
              Tcpnet.Server_host.stop h;
              hosts.(old_id) <- None);
            Tcpnet.Chaos.stop proxies.(old_id);
            Tcpnet.Pool.evict (Tcpnet.Pool.shared ()) proxy_eps.(old_id))
          transitions);
    controller_done := true
  in
  let items = [| "k0"; "k1"; "k2"; "k3" |] in
  let writer () =
    Tcpnet.Live.run ~endpoints (fun () ->
        let alice = connect_retry "alice" alice_key cfg_alice 10 in
        let i = ref 0 in
        while not !controller_done do
          incr i;
          let item = items.(!i mod Array.length items) in
          let value = Printf.sprintf "%s#%d" item !i in
          note_attempt item value;
          op (fun () ->
              match Store.Client.write alice ~item value with
              | Ok () -> true
              | Error _ -> false);
          Thread.delay 0.03
        done;
        (* Final writes land on the fully rotated fleet. *)
        Array.iter
          (fun item ->
            let value = Printf.sprintf "%s#final" item in
            note_attempt item value;
            op (fun () ->
                match Store.Client.write alice ~item value with
                | Ok () -> true
                | Error _ -> false))
          items;
        final_epoch_seen :=
          (match Store.Client.epoch alice with
          | Some e -> Store.Config_epoch.version e
          | None -> 0);
        ignore (Store.Client.disconnect alice))
  in
  let reader () =
    Tcpnet.Live.run ~endpoints (fun () ->
        let bob = connect_retry "bob" bob_key cfg_bob 10 in
        let last_seq : (string, int) Hashtbl.t = Hashtbl.create 4 in
        let i = ref 0 in
        while not !writer_done do
          incr i;
          let item = items.(!i mod Array.length items) in
          op (fun () ->
              match Store.Client.read bob ~item with
              | Error _ -> false
              | Ok v ->
                if not (was_attempted item v) then
                  violate "read of %s returned un-written value %S" item v;
                (match String.index_opt v '#' with
                | Some h -> (
                  match
                    int_of_string_opt
                      (String.sub v (h + 1) (String.length v - h - 1))
                  with
                  | Some sq ->
                    (match Hashtbl.find_opt last_seq item with
                    | Some prev when sq < prev ->
                      violate "read of %s went backwards: %d after %d" item
                        sq prev
                    | _ -> ());
                    Hashtbl.replace last_seq item sq
                  | None -> ())
                | None -> ());
                true);
          Thread.delay 0.02
        done;
        ignore (Store.Client.disconnect bob))
  in
  let crashes = ref 0 in
  let guard name fn () =
    try fn ()
    with e ->
      Mutex.lock lock;
      incr crashes;
      violations :=
        Printf.sprintf "%s worker died: %s" name (Printexc.to_string e)
        :: !violations;
      Mutex.unlock lock
  in
  let history = Check.History.create () in
  let soak_secs = ref 0.0 in
  Check.History.recording history (fun () ->
      let t0 = Unix.gettimeofday () in
      let ct = Thread.create (guard "controller" controller) () in
      let wt = Thread.create (guard "writer" writer) () in
      let rt = Thread.create (guard "reader" reader) () in
      Thread.join ct;
      controller_done := true;
      Thread.join wt;
      writer_done := true;
      Thread.join rt;
      soak_secs := Unix.gettimeofday () -. t0;
      (* Post-churn convergence: a fresh session, configured with the
         final membership the way any new client would be, must read
         every item's final value once gossip settles. *)
      Array.iteri
        (fun i p -> if hosts.(i) <> None then Tcpnet.Chaos.heal p)
        proxies;
      let final_members = Store.Config_epoch.servers !epoch_chain in
      Tcpnet.Live.run ~endpoints (fun () ->
          let bob =
            connect_retry "bob" bob_key
              {
                cfg_bob with
                Store.Client.servers = final_members;
                op_deadline = 10.0;
              }
              10
          in
          let deadline = Unix.gettimeofday () +. 15.0 in
          let rec converge remaining =
            match remaining with
            | [] -> ()
            | _ when Unix.gettimeofday () > deadline ->
              violate "post-churn convergence timed out on: %s"
                (String.concat ", " remaining)
            | _ ->
              let remaining' =
                List.filter
                  (fun item ->
                    match Store.Client.read bob ~item with
                    | Ok v -> not (String.equal v (item ^ "#final"))
                    | Error _ -> true)
                  remaining
              in
              if remaining' <> [] then Thread.delay 0.1;
              converge remaining'
          in
          converge (Array.to_list items);
          ignore (Store.Client.disconnect bob)));
  let oracle_violations =
    Check.Oracle.check (Check.History.events history)
  in
  List.iter
    (fun v ->
      violate "oracle: %s" (Check.Oracle.violation_to_string v))
    oracle_violations;
  Array.iteri
    (fun i h -> match h with Some h -> (Tcpnet.Server_host.stop h; Tcpnet.Chaos.stop proxies.(i)) | None -> ())
    hosts;
  let m = Store.Metrics.read () in
  let availability =
    if !ops_attempted = 0 then 0.0
    else 100.0 *. float_of_int !ops_succeeded /. float_of_int !ops_attempted
  in
  let conv = !convergence_ms in
  let conv_max = List.fold_left Float.max 0.0 conv in
  let conv_mean =
    if conv = [] then 0.0
    else List.fold_left ( +. ) 0.0 conv /. float_of_int (List.length conv)
  in
  let nviol = List.length !violations in
  List.iter
    (fun v -> Format.fprintf fmt "VIOLATION: %s@." v)
    (List.rev !violations);
  let table =
    {
      Workload.Table.id = "E20";
      title =
        Printf.sprintf
          "Reconfiguration soak (n=%d b=%d, rolling replacement of every \
           server under chaos proxies, %.1f s)"
          n b !soak_secs;
      header = [ "metric"; "value" ];
      rows =
        [
          [ "epoch transitions announced";
            string_of_int (List.length transitions) ];
          [ "final epoch version (client view)";
            string_of_int !final_epoch_seen ];
          [ "ops attempted / succeeded";
            Printf.sprintf "%d / %d" !ops_attempted !ops_succeeded ];
          [ "availability"; Printf.sprintf "%.2f%%" availability ];
          [ "safety violations (incl. oracle)"; string_of_int nviol ];
          [ "oracle events checked";
            string_of_int (Check.History.length history) ];
          [ "epoch convergence mean / max (ms)";
            Printf.sprintf "%.0f / %.0f" conv_mean conv_max ];
          [ "bootstrap bytes re-announced";
            string_of_int (Store.Metrics.bootstrap_bytes ()) ];
          [ "server epoch adoptions / stale-epoch rejections";
            Printf.sprintf "%d / %d"
              (Store.Metrics.epoch_transitions ())
              (Store.Metrics.epoch_rejections ()) ];
          [ "departing snapshots reloaded"; string_of_int !snapshot_reloads ];
          [ "client retries / escalations";
            Printf.sprintf "%d / %d" m.Store.Metrics.retries
              m.Store.Metrics.escalations ];
        ];
      notes =
        [
          "every server of the initial membership is drained out and";
          "replaced by a standby mid-soak; clients cross all four epoch";
          "boundaries inside one session via Stale_epoch adoption.";
        ];
    }
  in
  Workload.Table.print fmt table;
  if json then
    write_json ~path:"BENCH_reconfig.json" ~schema:"bench-reconfig-v1"
      ~header:[ ("seed", string_of_int seed) ]
      [
        ("transitions", string_of_int (List.length transitions));
        ("final_epoch_version", string_of_int !final_epoch_seen);
        ("ops_attempted", string_of_int !ops_attempted);
        ("ops_succeeded", string_of_int !ops_succeeded);
        ("availability_pct", Printf.sprintf "%.2f" availability);
        ("safety_violations", string_of_int nviol);
        ("oracle_events", string_of_int (Check.History.length history));
        ("oracle_violations", string_of_int (List.length oracle_violations));
        ("convergence_ms_mean", Printf.sprintf "%.1f" conv_mean);
        ("convergence_ms_max", Printf.sprintf "%.1f" conv_max);
        ("bootstrap_bytes", string_of_int (Store.Metrics.bootstrap_bytes ()));
        ("epoch_adoptions", string_of_int (Store.Metrics.epoch_transitions ()));
        ("stale_epoch_rejections",
          string_of_int (Store.Metrics.epoch_rejections ()));
        ("snapshot_reloads", string_of_int !snapshot_reloads);
        ("worker_crashes", string_of_int !crashes);
        ("client_retries", string_of_int m.Store.Metrics.retries);
      ];
  if nviol > 0 || availability < 99.0 || !final_epoch_seen <> n + 1 then begin
    Format.fprintf fmt
      "E20: failed — %d violation(s), %.2f%% availability, final epoch v%d@."
      nviol availability !final_epoch_seen;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments ~seed ~json : (string * (unit -> unit)) list =
  let t f () = Workload.Table.print fmt (f ()) in
  [
    ("e1", t Workload.Experiments.e1_context_messages);
    ("e2", t Workload.Experiments.e2_context_crypto);
    ("e3", t Workload.Experiments.e3_data_costs);
    ("e4", t Workload.Experiments.e4_multi_writer_costs);
    ("e5", t Workload.Experiments.e5_quorum_comparison);
    ("e6", t Workload.Experiments.e6_pbft_messages);
    ("e7", t (fun () -> Workload.Experiments.e7_dissemination ~seed ()));
    ("e8", t (fun () -> Workload.Experiments.e8_fault_injection ~seed ()));
    ("e8b", t Workload.Experiments.e8b_spurious_context);
    ( "e9",
      fun () ->
        let micro = e9 () in
        let proto = e9_protocol () in
        if json then
          write_json ~path:"BENCH_crypto.json" ~schema:"bench-crypto-v1"
            ~header:[ ("unit", "\"ns/op\"") ] (ns_rows (micro @ proto)) );
    ( "e10",
      fun () ->
        Workload.Table.print fmt (Workload.Experiments.e10_wan_latency ~seed ());
        e10_net ~json () );
    ("e11", t Workload.Experiments.e11_read_strategies);
    ("e12", t Workload.Experiments.e12_dispersal);
    ("e13", t Workload.Experiments.e13_dynamic_quorums);
    ("e14", t Workload.Experiments.e14_context_size);
    ("e15", fun () -> e15_chaos ~seed ~json ());
    ("e16", fun () -> e16_check ~seed ~json ());
    ("e18", fun () -> e18_sign ~json ());
    ("e20", fun () -> e20_reconfig ~seed ~json ());
  ]

let main args =
  let rec parse seed json picked = function
    | [] -> (seed, json, List.rev picked)
    | "--seed" :: v :: rest -> parse (int_of_string v) json picked rest
    | "--json" :: rest -> parse seed true picked rest
    | name :: rest -> parse seed json (String.lowercase_ascii name :: picked) rest
  in
  let seed, json, picked = parse 42 false [] args in
  let table = experiments ~seed ~json in
  let to_run = match picked with [] -> List.map fst table | _ -> picked in
  Format.fprintf fmt
    "secure store benchmark harness — reproducing section 6 of Lakshmanan, \
     Ahamad & Venkateswaran, DSN 2001 (seed %d)@."
    seed;
  List.iter
    (fun name ->
      match List.assoc_opt name table with
      | Some run -> run ()
      | None ->
        Format.fprintf fmt "unknown experiment %S (known: %s)@." name
          (String.concat ", " (List.map fst table)))
    to_run

let () = main (List.tl (Array.to_list Sys.argv))
