(* Observability-layer tests: histogram bucket semantics against a
   sorted-array oracle, span nesting (including across threads), the
   ring-buffer journal, exposition well-formedness, the metrics HTTP
   endpoint, and the Metrics reset split. *)

let bounds = Obs.Histo.bounds
let bucket_count = Obs.Histo.bucket_count

(* --- histograms --------------------------------------------------------- *)

(* Durations spanning the whole bucket range (and past it), negatives
   included to exercise the clamp. *)
let dur_gen =
  QCheck.map
    (fun (mant, exp) -> float_of_int mant *. (10.0 ** float_of_int exp))
    QCheck.(pair (int_range (-5) 999) (int_range 0 9))

let qcheck_percentile_oracle =
  (* The mli's exact promise: [percentile h p] equals the bound of the
     bucket holding the nearest-rank percentile of the sorted samples,
     or the true maximum when that lands in the overflow bucket. *)
  QCheck.Test.make ~name:"percentile matches sorted-array oracle" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) dur_gen) (int_range 1 100))
    (fun (samples, p) ->
      let h = Obs.Histo.create () in
      List.iter (Obs.Histo.observe h) samples;
      let clamped = List.map (fun v -> if v < 0.0 then 0.0 else v) samples in
      let sorted = List.sort compare clamped in
      let n = List.length sorted in
      let p = float_of_int p in
      let rank =
        max 1 (min n (int_of_float (ceil (p /. 100.0 *. float_of_int n))))
      in
      let v = List.nth sorted (rank - 1) in
      let expected =
        let i = Obs.Histo.bucket_of v in
        if i >= bucket_count then List.fold_left max 0.0 clamped
        else bounds.(i)
      in
      Obs.Histo.percentile h p = expected)

let qcheck_sum_count_max =
  QCheck.Test.make ~name:"sum/count/max track observations" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) dur_gen)
    (fun samples ->
      let h = Obs.Histo.create () in
      List.iter (Obs.Histo.observe h) samples;
      let clamped = List.map (fun v -> if v < 0.0 then 0.0 else v) samples in
      Obs.Histo.count h = List.length samples
      && Obs.Histo.sum h = List.fold_left ( +. ) 0.0 clamped
      && Obs.Histo.max_value h = List.fold_left max 0.0 clamped)

let test_bucket_boundaries () =
  (* le-semantics: a value exactly on a bound belongs to that bucket;
     one ulp-ish above it belongs to the next. *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "bound %d inclusive" i)
        i
        (Obs.Histo.bucket_of bounds.(i));
      let next = min (i + 1) bucket_count in
      Alcotest.(check int)
        (Printf.sprintf "just above bound %d" i)
        next
        (Obs.Histo.bucket_of (bounds.(i) *. 1.000001)))
    [ 0; 1; 17; 50; 98; bucket_count - 1 ];
  Alcotest.(check int) "zero in first bucket" 0 (Obs.Histo.bucket_of 0.0);
  Alcotest.(check int) "huge overflows" bucket_count
    (Obs.Histo.bucket_of 1e18);
  let h = Obs.Histo.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Obs.Histo.percentile h 50.0);
  Obs.Histo.observe h (-5.0);
  Alcotest.(check int) "negative clamps to first bucket" 1
    (Obs.Histo.counts h).(0);
  let cum = Obs.Histo.cumulative h in
  Alcotest.(check int) "cumulative ends at count" (Obs.Histo.count h)
    cum.(bucket_count)

let test_merge_adds_counters () =
  let a = Obs.Histo.create () and b = Obs.Histo.create () in
  List.iter (Obs.Histo.observe a) [ 150.0; 1e6; 3e9 ];
  List.iter (Obs.Histo.observe b) [ 150.0; 7e3 ];
  let m = Obs.Histo.merge a b in
  Alcotest.(check int) "merged count" 5 (Obs.Histo.count m);
  Alcotest.(check (float 0.0)) "merged sum"
    (Obs.Histo.sum a +. Obs.Histo.sum b)
    (Obs.Histo.sum m);
  Alcotest.(check (float 0.0)) "merged max" 3e9 (Obs.Histo.max_value m);
  let ca = Obs.Histo.counts a
  and cb = Obs.Histo.counts b
  and cm = Obs.Histo.counts m in
  Array.iteri
    (fun i n -> Alcotest.(check int) "merged bucket" (ca.(i) + cb.(i)) n)
    cm

(* --- spans --------------------------------------------------------------- *)

let with_tracing f =
  Obs.Span.reset_stats ();
  Obs.Span.set_journal_capacity 512;
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) f

let test_span_nesting () =
  with_tracing @@ fun () ->
  Obs.Span.with_op "outer" (fun () ->
      Obs.Span.with_phase "p1" (fun () ->
          Obs.Span.with_phase "p2" (fun () -> ()));
      (* an op inside an op records as a phase of the outer one *)
      Obs.Span.with_op "inner" (fun () -> ());
      Obs.Span.annotate "note";
      Obs.Span.annotate_rpc [ ("h:1", 5); ("h:2", 6) ]);
  (match Obs.Span.recent ~limit:1 () with
  | [ c ] ->
    Alcotest.(check string) "op" "outer" c.Obs.Span.op;
    Alcotest.(check (list string))
      "phases, completion order"
      [ "p1/p2"; "p1"; "inner" ]
      (List.map (fun p -> p.Obs.Span.pname) c.Obs.Span.phases);
    Alcotest.(check (list string))
      "attrs render lazily"
      [ "note"; "rpc h:1#5 h:2#6" ]
      (List.map Obs.Span.attr_text c.Obs.Span.attrs)
  | _ -> Alcotest.fail "expected one journaled span");
  (match Obs.Span.phase_histo ~op:"outer" ~phase:"p1/p2" with
  | Some h -> Alcotest.(check int) "nested phase recorded" 1 (Obs.Histo.count h)
  | None -> Alcotest.fail "missing nested phase histogram");
  match Obs.Span.phase_histo ~op:"inner" ~phase:"total" with
  | Some _ -> Alcotest.fail "inner op must not open its own span"
  | None -> ()

let test_concurrent_spans () =
  (* Spans are per-thread: concurrent ops must neither mix phases nor
     lose counts. *)
  let threads = 8 and ops = 50 in
  with_tracing @@ fun () ->
  let worker k () =
    let op = "op" ^ string_of_int k in
    for _ = 1 to ops do
      Obs.Span.with_op op (fun () ->
          Obs.Span.with_phase "a" (fun () -> ());
          Obs.Span.with_phase "b" (fun () -> ()))
    done
  in
  let ths = List.init threads (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ths;
  for k = 0 to threads - 1 do
    let op = "op" ^ string_of_int k in
    List.iter
      (fun phase ->
        match Obs.Span.phase_histo ~op ~phase with
        | Some h ->
          Alcotest.(check int) (op ^ "/" ^ phase) ops (Obs.Histo.count h)
        | None -> Alcotest.fail ("missing histogram for " ^ op))
      [ "total"; "a"; "b" ]
  done;
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        "no cross-thread phases" [ "a"; "b" ]
        (List.map (fun p -> p.Obs.Span.pname) c.Obs.Span.phases))
    (Obs.Span.recent ())

let test_journal_wraparound () =
  with_tracing @@ fun () ->
  Obs.Span.set_journal_capacity 8;
  for i = 0 to 19 do
    Obs.Span.with_op ("w" ^ string_of_int i) (fun () -> ())
  done;
  let spans = Obs.Span.recent () in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length spans);
  Alcotest.(check (list string))
    "newest first, oldest overwritten"
    (List.init 8 (fun i -> "w" ^ string_of_int (19 - i)))
    (List.map (fun c -> c.Obs.Span.op) spans);
  let ids = List.map (fun c -> c.Obs.Span.id) spans in
  Alcotest.(check bool) "ids strictly decreasing" true
    (List.sort (fun a b -> compare b a) ids = ids);
  Alcotest.(check int) "limit respected" 3
    (List.length (Obs.Span.recent ~limit:3 ()));
  Obs.Span.reset_journal ();
  Alcotest.(check int) "reset empties" 0 (List.length (Obs.Span.recent ()));
  Obs.Span.set_journal_capacity 256

let test_disabled_is_inert () =
  Obs.Span.reset_stats ();
  Obs.Span.reset_journal ();
  Obs.Span.set_enabled false;
  Obs.Span.with_op "ghost" (fun () ->
      Obs.Span.with_phase "p" (fun () -> ());
      Obs.Span.annotate "x");
  Alcotest.(check int) "nothing journaled" 0
    (List.length (Obs.Span.recent ()));
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Obs.Span.phase_stats ()));
  Alcotest.(check bool) "no current id" true (Obs.Span.current_id () = None)

(* --- exposition ---------------------------------------------------------- *)

let find_lines pred text =
  List.filter pred (String.split_on_char '\n' text)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_exposition_well_formed () =
  let h = Obs.Histo.create () in
  List.iter (Obs.Histo.observe h) [ 150.0; 3e4; 3e4; 7e8 ];
  let text =
    Obs.Expo.render
      [
        Obs.Expo.counter ~name:"t_ops_total" ~help:"ops" 42.0;
        Obs.Expo.gauge ~name:"t_depth" ~help:"queue \"depth\"\nnow"
          ~labels:[ ("peer", "a\"b") ]
          3.0;
        Obs.Expo.family ~name:"t_latency_seconds" ~help:"lat"
          (Obs.Expo.Histogram [ ([ ("op", "read") ], h) ]);
      ]
  in
  Alcotest.(check bool) "content type versioned" true
    (starts_with "text/plain" Obs.Expo.content_type);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("has " ^ needle) true
        (find_lines (starts_with needle) text <> []))
    [
      "# TYPE t_ops_total counter";
      "# TYPE t_depth gauge";
      "# TYPE t_latency_seconds histogram";
      "t_ops_total 42";
    ];
  (* HELP escapes newlines (not quotes — the 0.0.4 rule); label values
     escape both *)
  Alcotest.(check bool) "help escaped" true
    (find_lines (fun l -> l = "# HELP t_depth queue \"depth\"\\nnow") text
    <> []);
  Alcotest.(check bool) "label escaped" true
    (find_lines (starts_with "t_depth{peer=\"a\\\"b\"} 3") text <> []);
  (* histogram: cumulative monotone buckets, +Inf equals _count *)
  let buckets = find_lines (starts_with "t_latency_seconds_bucket") text in
  Alcotest.(check bool) "has buckets" true (buckets <> []);
  let value_of line =
    let i = String.rindex line ' ' in
    float_of_string (String.sub line (i + 1) (String.length line - i - 1))
  in
  let values = List.map value_of buckets in
  Alcotest.(check bool) "buckets cumulative" true
    (List.sort compare values = values);
  let inf =
    match
      find_lines (fun l -> starts_with "t_latency_seconds_bucket" l
                           && String.length l > 0
                           &&
                           let re = Str.regexp_string "le=\"+Inf\"" in
                           (try ignore (Str.search_forward re l 0); true
                            with Not_found -> false))
        text
    with
    | [ l ] -> value_of l
    | _ -> Alcotest.fail "expected exactly one +Inf bucket"
  in
  (match find_lines (starts_with "t_latency_seconds_count") text with
  | [ l ] -> Alcotest.(check (float 0.0)) "+Inf equals count" (value_of l) inf
  | _ -> Alcotest.fail "expected one _count line");
  match find_lines (starts_with "t_latency_seconds_sum") text with
  | [ l ] ->
    (* sums render in seconds *)
    Alcotest.(check (float 1e-9)) "sum in seconds" (Obs.Histo.sum h /. 1e9)
      (value_of l)
  | _ -> Alcotest.fail "expected one _sum line"

let test_metrics_endpoint_roundtrip () =
  let hits = ref 0 in
  let http =
    Tcpnet.Metrics_http.start ~port:0
      ~routes:
        [
          ( "/metrics",
            fun _ ->
              incr hits;
              (Obs.Expo.content_type, "fresh " ^ string_of_int !hits) );
          ("/echo", fun q -> ("text/plain", "q=" ^ q));
          ("/boom", fun _ -> failwith "render exploded");
        ]
      ()
  in
  let port = Tcpnet.Metrics_http.port http in
  Fun.protect ~finally:(fun () -> Tcpnet.Metrics_http.stop http) @@ fun () ->
  (match Tcpnet.Metrics_http.get ~port ~path:"/metrics" () with
  | Ok body -> Alcotest.(check string) "scrape" "fresh 1" body
  | Error e -> Alcotest.fail ("scrape failed: " ^ e));
  (match Tcpnet.Metrics_http.get ~port ~path:"/metrics" () with
  | Ok body -> Alcotest.(check string) "thunks rerun" "fresh 2" body
  | Error _ -> Alcotest.fail "second scrape failed");
  (match Tcpnet.Metrics_http.get ~port ~path:"/nope" () with
  | Ok _ -> Alcotest.fail "404 expected"
  | Error _ -> ());
  (match Tcpnet.Metrics_http.get ~port ~path:"/echo?id=ab12&x=1" () with
  | Ok body -> Alcotest.(check string) "query passed to route" "q=id=ab12&x=1" body
  | Error e -> Alcotest.fail ("query scrape failed: " ^ e));
  (match Tcpnet.Metrics_http.get ~port ~path:"/echo" () with
  | Ok body -> Alcotest.(check string) "absent query is empty" "q=" body
  | Error e -> Alcotest.fail ("bare scrape failed: " ^ e));
  match Tcpnet.Metrics_http.get ~port ~path:"/boom" () with
  | Ok _ -> Alcotest.fail "route failure must not 200"
  | Error _ -> ()

(* --- Metrics reset split ------------------------------------------------- *)

(* Metrics.reset clears the experiment counters and leaves the operator
   gauges; the transport pool's per-endpoint health and latency are not
   Metrics' to clear at all. One traced reply from a live host and one
   refused dial give the pool a latency sample and a failure row. *)
let test_reset_keeps_gauges () =
  Store.Metrics.reset ();
  Store.Metrics.reset_gauges ();
  Store.Metrics.incr_rpc ();
  Store.Metrics.record_rpc_ns 5e6;
  Store.Metrics.note_inflight 7;
  let server =
    Store.Server.create ~id:0 ~keyring:(Store.Keyring.create ()) ~n:1 ~b:0 ()
  in
  let host = Tcpnet.Server_host.start ~server ~port:0 () in
  let pool = Tcpnet.Pool.create () in
  Fun.protect
    ~finally:(fun () ->
      Tcpnet.Pool.shutdown pool;
      Tcpnet.Server_host.stop host)
  @@ fun () ->
  let live = ("127.0.0.1", Tcpnet.Server_host.port host) in
  let refused =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
    in
    Unix.close s;
    ("127.0.0.1", port)
  in
  let query =
    Store.Payload.encode_envelope
      {
        Store.Payload.token = None;
        epoch = 0;
        request =
          Store.Payload.Read_query
            { uid = Store.Uid.make ~group:"obs" ~item:"x"; ship = false };
      }
  in
  with_tracing (fun () ->
      match Tcpnet.Pool.call pool ~timeout:2.0 live query with
      | Tcpnet.Pool.Reply _ -> ()
      | _ -> Alcotest.fail "live host should answer");
  (match Tcpnet.Pool.call pool ~timeout:0.5 refused query with
  | Tcpnet.Pool.Dropped -> ()
  | _ -> Alcotest.fail "refused dial should drop");
  let latency_count () =
    let needle =
      Printf.sprintf "securestore_endpoint_rpc_duration_seconds_count{endpoint=\"127.0.0.1:%d\"} "
        (snd live)
    in
    match
      find_lines (starts_with needle)
        (Obs.Expo.render (Tcpnet.Pool.families pool))
    with
    | [ line ] -> String.sub line (String.length needle) (String.length line - String.length needle)
    | _ -> Alcotest.fail "no latency row for the live endpoint"
  in
  let health_before = Tcpnet.Pool.health pool in
  Alcotest.(check string) "latency sampled" "1" (latency_count ());
  Alcotest.(check (list int)) "failures before reset" [ 0; 1 ]
    (List.sort compare
       (List.map (fun (h : Tcpnet.Pool.health) -> h.consecutive_failures) health_before));
  Store.Metrics.reset ();
  Alcotest.(check int) "counters cleared" 0 (Store.Metrics.read ()).rpcs;
  Alcotest.(check int) "rpc histogram cleared" 0
    (Store.Metrics.rpc_latency_stats ()).rpc_count;
  Alcotest.(check int) "hwm survives reset" 7
    (Store.Metrics.inflight_high_water ());
  Store.Metrics.reset_gauges ();
  Alcotest.(check int) "hwm cleared by reset_gauges" 0
    (Store.Metrics.inflight_high_water ());
  Alcotest.(check bool) "pool health untouched by either reset" true
    (Tcpnet.Pool.health pool = health_before);
  Alcotest.(check string) "pool latency untouched by either reset" "1"
    (latency_count ())

(* Regression: Metrics.reset must also clear the per-phase span
   histograms, or a benchmark's second mode inherits the first mode's
   latency samples. *)
let test_reset_clears_span_histos () =
  with_tracing @@ fun () ->
  Obs.Span.with_op "bench_write" (fun () ->
      Obs.Span.with_phase "sign" (fun () -> ()));
  Alcotest.(check bool) "phase recorded" true (Obs.Span.phase_stats () <> []);
  Store.Metrics.reset ();
  Alcotest.(check int) "span histograms cleared" 0
    (List.length (Obs.Span.phase_stats ()));
  match Obs.Span.phase_histo ~op:"bench_write" ~phase:"sign" with
  | Some _ -> Alcotest.fail "stale phase histogram survived reset"
  | None -> ()

let test_sigcache_exposition () =
  Store.Signing.reset_sigcache ();
  (* The snapshot counters (reset-scoped) and the cache-lifetime families
     must both render. *)
  let snap = Obs.Expo.render (Store.Metrics.families ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("snapshot has " ^ needle) true
        (find_lines (starts_with needle) snap <> []))
    [
      "securestore_sigcache_hits_total";
      "securestore_sigcache_misses_total";
    ];
  let life = Obs.Expo.render (Store.Signing.sigcache_families ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("lifetime has " ^ needle) true
        (find_lines (starts_with needle) life <> []))
    [
      "securestore_sigcache_lifetime_hits_total 0";
      "securestore_sigcache_lifetime_misses_total 0";
      "securestore_sigcache_entries 0";
      "securestore_sigcache_capacity 4096";
    ];
  (* Lifetime counters track the live cache, not the snapshot deltas:
     they survive Metrics.reset. *)
  let keyring = Store.Keyring.create () in
  let key =
    Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:"obs-sigcache")
  in
  Store.Keyring.register keyring "alice" key.Crypto.Rsa.public;
  let w =
    Store.Signing.sign_write ~key ~writer:"alice"
      ~uid:(Store.Uid.make ~group:"g" ~item:"x")
      ~stamp:(Store.Stamp.scalar 1) "v"
  in
  Alcotest.(check bool) "cold verify" true (Store.Signing.verify_write keyring w);
  Alcotest.(check bool) "warm verify" true (Store.Signing.verify_write keyring w);
  Store.Metrics.reset ();
  let life = Obs.Expo.render (Store.Signing.sigcache_families ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("after reset: " ^ needle) true
        (find_lines (starts_with needle) life <> []))
    [
      "securestore_sigcache_lifetime_hits_total 1";
      "securestore_sigcache_lifetime_misses_total 1";
      "securestore_sigcache_entries 1";
    ]

(* --- the shared JSON escaper against its reader oracle ------------------- *)

let qcheck_jsonx_escape_roundtrip =
  QCheck.Test.make ~name:"Jsonx.escape round-trips through the reader"
    ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      Obs.Jsonx.parse ("\"" ^ Obs.Jsonx.escape s ^ "\"")
      = Some (Obs.Jsonx.Str s))

let qcheck_jsonx_hex_roundtrip =
  QCheck.Test.make ~name:"hex codec round-trips raw bytes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Obs.Jsonx.of_hex (Obs.Jsonx.to_hex s) = Some s)

let test_jsonx_reader_strictness () =
  let p = Obs.Jsonx.parse in
  Alcotest.(check bool) "trailing garbage" true (p "{} x" = None);
  Alcotest.(check bool) "bad escape" true (p "\"\\q\"" = None);
  Alcotest.(check bool) "raw control char" true (p "\"\x01\"" = None);
  Alcotest.(check bool) "unterminated string" true (p "\"abc" = None);
  Alcotest.(check bool) "nesting capped" true
    (p (String.make 100 '[' ^ String.make 100 ']') = None);
  match p "{\"a\": [1, true, null, \"s\"], \"b\": -2.5e1}" with
  | None -> Alcotest.fail "well-formed document rejected"
  | Some v ->
    Alcotest.(check bool) "array decoded" true
      (Option.bind (Obs.Jsonx.member "a" v) Obs.Jsonx.arr_of
      = Some Obs.Jsonx.[ Num 1.0; Bool true; Null; Str "s" ]);
    Alcotest.(check (option (float 1e-9))) "number decoded" (Some (-25.0))
      (Option.bind (Obs.Jsonx.member "b" v) Obs.Jsonx.num_of)

(* --- flight recorder ----------------------------------------------------- *)

let tid i =
  String.init Obs.Span.trace_bytes (fun j -> Char.chr (((17 * i) + j) land 0xff))

let with_flight f =
  Obs.Span.reset_stats ();
  Obs.Span.reset_journal ();
  Obs.Span.reset_flight ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset_flight ())
    f

(* A remote span closes on its own thread — per-thread span state means a
   same-thread with_op would fold into the live root as a phase. *)
let remote_span ~ctx op =
  let th = Thread.create (fun () -> Obs.Span.with_op ~ctx op Fun.id) () in
  Thread.join th

let test_flight_promotion () =
  with_flight @@ fun () ->
  (* A child closing before its root parks in pending; the root's close
     promotes the whole trace into the sampled ring. *)
  let t = tid 1 in
  let root_span = ref 0 in
  Obs.Span.with_op "client_op" (fun () ->
      Obs.Span.set_trace ~flags:Obs.Span.flag_sampled t;
      match Obs.Span.current_ctx () with
      | Some c ->
        root_span := c.Obs.Span.span;
        remote_span ~ctx:c "server_request"
      | None -> Alcotest.fail "no ctx on a traced root");
  let sampled, forced, occupancy = Obs.Span.flight_stats () in
  Alcotest.(check int) "one sampled promotion" 1 sampled;
  Alcotest.(check int) "no forced promotion" 0 forced;
  Alcotest.(check int) "one trace held" 1 occupancy;
  let spans = Obs.Span.flight_lookup ~trace:t in
  Alcotest.(check (list string))
    "both spans held"
    [ "client_op"; "server_request" ]
    (List.sort compare (List.map (fun c -> c.Obs.Span.op) spans));
  (match
     List.find_opt (fun c -> c.Obs.Span.op = "server_request") spans
   with
  | Some c ->
    Alcotest.(check int) "server span's parent is the client span"
      !root_span c.Obs.Span.parent
  | None -> Alcotest.fail "missing server span");
  (* An unsampled, unforced trace is dropped at root close. *)
  let u = tid 2 in
  Obs.Span.with_op "unsampled" (fun () -> Obs.Span.set_trace ~flags:0 u);
  Alcotest.(check int) "unsampled not held" 0
    (List.length (Obs.Span.flight_lookup ~trace:u))

let test_flight_forced_and_pin () =
  with_flight @@ fun () ->
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_flight_capacity ~ring:32 ())
  @@ fun () ->
  (* force() lands the promotion in the pinned list, not the ring. *)
  let t = tid 3 in
  Obs.Span.with_op "retrying_op" (fun () ->
      Obs.Span.set_trace ~flags:Obs.Span.flag_sampled t;
      Obs.Span.force ());
  let _, forced, _ = Obs.Span.flight_stats () in
  Alcotest.(check int) "forced promotion" 1 forced;
  Alcotest.(check bool) "pin finds a pinned trace" true
    (Obs.Span.pin ~trace:t);
  (* pin moves a ring entry to the pinned list, surviving a ring wipe. *)
  let s = tid 4 in
  Obs.Span.with_op "sampled_op" (fun () ->
      Obs.Span.set_trace ~flags:Obs.Span.flag_sampled s);
  Alcotest.(check bool) "pin promotes from the ring" true
    (Obs.Span.pin ~trace:s);
  Obs.Span.set_flight_capacity ~ring:1 ();
  Alcotest.(check bool) "pinned survives ring resize" true
    (Obs.Span.flight_lookup ~trace:s <> []);
  Alcotest.(check bool) "unknown trace is gone" true
    (not (Obs.Span.pin ~trace:(tid 9)));
  (* A pending trace — root still in flight — pins as forced too. *)
  let p = tid 5 in
  remote_span
    ~ctx:{ Obs.Span.trace = p; span = 77; flags = Obs.Span.flag_sampled }
    "late_child";
  Alcotest.(check bool) "pin promotes from pending" true
    (Obs.Span.pin ~trace:p);
  let _, forced, _ = Obs.Span.flight_stats () in
  Alcotest.(check int) "every pin counted forced" 3 forced

let test_flight_eviction_promotes () =
  with_flight @@ fun () ->
  Obs.Span.set_flight_capacity ~pending:2 ();
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_flight_capacity ~pending:128 ())
  @@ fun () ->
  (* Three traces stuck waiting for their roots: inserting the third
     evicts the first — promoted into the ring, not silently dropped. *)
  List.iter
    (fun i ->
      remote_span
        ~ctx:
          { Obs.Span.trace = tid (10 + i); span = 9;
            flags = Obs.Span.flag_sampled }
        "orphan_child")
    [ 0; 1; 2 ];
  let sampled, _, occupancy = Obs.Span.flight_stats () in
  Alcotest.(check int) "evictee promoted to the ring" 1 sampled;
  Alcotest.(check int) "all three still held" 3 occupancy;
  Alcotest.(check bool) "evicted trace still resolvable" true
    (Obs.Span.flight_lookup ~trace:(tid 10) <> [])

let test_trace_assembly_json () =
  with_flight @@ fun () ->
  Obs.Span.set_node "unit-node";
  Fun.protect ~finally:(fun () -> Obs.Span.set_node "") @@ fun () ->
  let t = tid 6 in
  Obs.Span.with_op "op_a" (fun () ->
      Obs.Span.set_trace ~flags:Obs.Span.flag_sampled t;
      Obs.Span.with_phase "ph" (fun () -> ()));
  let hex = Obs.Jsonx.to_hex t in
  (match Obs.Jsonx.parse (Obs.Span.trace_json ~id:hex ()) with
  | None -> Alcotest.fail "trace_json is not valid JSON"
  | Some v -> (
    Alcotest.(check (option string)) "trace member" (Some hex)
      (Option.bind (Obs.Jsonx.member "trace" v) Obs.Jsonx.str_of);
    Alcotest.(check (option string)) "node member" (Some "unit-node")
      (Option.bind (Obs.Jsonx.member "node" v) Obs.Jsonx.str_of);
    match Option.bind (Obs.Jsonx.member "spans" v) Obs.Jsonx.arr_of with
    | Some [ sp ] ->
      Alcotest.(check (option string)) "span op" (Some "op_a")
        (Option.bind (Obs.Jsonx.member "op" sp) Obs.Jsonx.str_of)
    | _ -> Alcotest.fail "expected exactly one assembled span"));
  match Obs.Jsonx.parse (Obs.Span.trace_json ~id:"not-hex" ()) with
  | Some v ->
    Alcotest.(check bool) "malformed id yields an error doc" true
      (Obs.Jsonx.member "error" v <> None)
  | None -> Alcotest.fail "error doc must be valid JSON"

let test_trace_gauges_exposition () =
  with_flight @@ fun () ->
  Obs.Span.with_op "sampled" (fun () ->
      Obs.Span.set_trace ~flags:Obs.Span.flag_sampled (tid 7));
  Obs.Span.with_op "forced" (fun () ->
      Obs.Span.set_trace ~flags:Obs.Span.flag_sampled (tid 8);
      Obs.Span.force ());
  let text = Obs.Expo.render (Obs.Span.trace_families ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("has " ^ needle) true
        (find_lines (starts_with needle) text <> []))
    [
      "# TYPE securestore_traces_sampled_total counter";
      "# TYPE securestore_traces_forced_total counter";
      "# TYPE securestore_flight_recorder_occupancy gauge";
      "securestore_traces_sampled_total 1";
      "securestore_traces_forced_total 1";
      "securestore_flight_recorder_occupancy 2";
    ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "histo",
        [
          q qcheck_percentile_oracle;
          q qcheck_sum_count_max;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "merge adds counters" `Quick
            test_merge_adds_counters;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting and attrs" `Quick test_span_nesting;
          Alcotest.test_case "concurrent threads" `Quick test_concurrent_spans;
          Alcotest.test_case "journal wraparound" `Quick
            test_journal_wraparound;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
        ] );
      ( "jsonx",
        [
          q qcheck_jsonx_escape_roundtrip;
          q qcheck_jsonx_hex_roundtrip;
          Alcotest.test_case "reader strictness" `Quick
            test_jsonx_reader_strictness;
        ] );
      ( "flight",
        [
          Alcotest.test_case "promotion at root close" `Quick
            test_flight_promotion;
          Alcotest.test_case "force and pin" `Quick test_flight_forced_and_pin;
          Alcotest.test_case "eviction promotes" `Quick
            test_flight_eviction_promotes;
          Alcotest.test_case "trace assembly json" `Quick
            test_trace_assembly_json;
          Alcotest.test_case "trace gauges exposition" `Quick
            test_trace_gauges_exposition;
        ] );
      ( "expo",
        [
          Alcotest.test_case "well-formed exposition" `Quick
            test_exposition_well_formed;
          Alcotest.test_case "metrics endpoint roundtrip" `Quick
            test_metrics_endpoint_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "reset keeps operator gauges" `Quick
            test_reset_keeps_gauges;
          Alcotest.test_case "reset clears span histograms" `Quick
            test_reset_clears_span_histos;
          Alcotest.test_case "sigcache exposition" `Quick
            test_sigcache_exposition;
        ] );
    ]
