(* Benchmark harness: regenerates the quantitative claims of the paper's
   section 6 (experiments E1-E14 and E8b) and runs the E16 consistency
   oracle; see DESIGN.md and EXPERIMENTS.md. Whole-store performance on a
   multi-process cluster is perfbench's job, and the live chaos and churn
   soaks are test_tcpnet cases.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe -- e3 e9   -- a subset
     dune exec bench/main.exe -- --seed 7 e7
     dune exec bench/main.exe -- e9 --json   -- also write BENCH_crypto.json

   Output is plain text, one table per experiment. With --json, e9 also
   writes BENCH_crypto.json, keeping the file's existing "baseline"
   object, and e16 writes BENCH_check.json. *)

let fmt = Format.std_formatter

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

(* [rows] are (key, JSON value) pairs. *)
let write_json ~path ~schema rows =
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
      Printf.fprintf oc "  \"unit\": \"ns/op\",\n";
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
            (ns_rows (micro @ proto)) );
    ("e10", t (fun () -> Workload.Experiments.e10_wan_latency ~seed ()));
    ("e11", t Workload.Experiments.e11_read_hit_miss);
    ("e12", t Workload.Experiments.e12_dispersal);
    ("e13", t Workload.Experiments.e13_dynamic_quorums);
    ("e14", t Workload.Experiments.e14_context_size);
    ("e16", fun () -> e16_check ~seed ~json ());
  ]

let main args =
  let rec parse seed json picked = function
    | [] -> (seed, json, List.rev picked)
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> parse seed json picked rest
      | None ->
        Printf.eprintf "usage: main.exe [--seed N] [--json] [experiment ...]: \
                        --seed wants an integer, got %S\n" v;
        exit 2)
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
