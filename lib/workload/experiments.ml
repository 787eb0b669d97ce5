open Store

let measured fn =
  Metrics.reset ();
  let v = fn () in
  (v, Metrics.read ())

let grid = [ (4, 1); (7, 2); (10, 3); (13, 4); (19, 6); (31, 10) ]

let mw cfg = { cfg with Client.mode = Client.Multi_writer }
let cc cfg = { cfg with Client.consistency = Client.CC }

(* ------------------------------------------------------------------ E1 *)

let e1_context_messages () =
  let rows =
    List.map
      (fun (n, b) ->
        let w = Worlds.make ~n ~b () in
        let q = Quorums.context_quorum ~n ~b in
        let read_msgs, store_msgs =
          Worlds.in_direct w (fun () ->
              let alice = Worlds.connect w "alice" ~group:"g" in
              let () = Result.get_ok (Client.write alice ~item:"x" "v") in
              let _, m_store = measured (fun () -> Client.disconnect alice) in
              let _, m_read =
                measured (fun () -> Worlds.connect w "alice" ~group:"g")
              in
              (m_read.Metrics.messages, m_store.Metrics.messages))
        in
        [
          Table.cell_int n; Table.cell_int b; Table.cell_int q;
          Table.cell_int read_msgs; Table.cell_int store_msgs;
          Table.cell_int (Quorums.messages (Quorums.cost Context_store ~n ~b Single_writer));
          Table.cell_int (2 * Quorums.masking_quorum ~n ~b);
        ])
      grid
  in
  {
    Table.id = "E1";
    title = "Context op message cost (paper: 2*ceil((n+b+1)/2) per op)";
    header =
      [ "n"; "b"; "quorum"; "read msgs"; "store msgs"; "paper 2q"; "masking 2q'" ];
    rows;
    notes =
      [
        "measured on failure-free runs; read and store must equal the paper's 2q";
        "masking-quorum column: 2*ceil((n+2b+1)/2), the section 6 comparison";
      ];
  }

(* ------------------------------------------------------------------ E2 *)

let e2_context_crypto () =
  let rows =
    List.map
      (fun (n, b) ->
        let w = Worlds.make ~n ~b () in
        let store_m, read_m =
          Worlds.in_direct w (fun () ->
              let alice = Worlds.connect w "alice" ~group:"g" in
              let () = Result.get_ok (Client.write alice ~item:"x" "v") in
              let _, store_m = measured (fun () -> Client.disconnect alice) in
              let _, read_m =
                measured (fun () -> Worlds.connect w "alice" ~group:"g")
              in
              (store_m, read_m))
        in
        [
          Table.cell_int n; Table.cell_int b;
          Table.cell_int store_m.Metrics.signs;
          Table.cell_int store_m.Metrics.server_verifies;
          Table.cell_int read_m.Metrics.verifies;
          Table.cell_int (Quorums.cost Context_store ~n ~b Single_writer).server_verifies;
        ])
      grid
  in
  {
    Table.id = "E2";
    title = "Context op crypto cost (paper: 1 sign, q server verifies, 1 read verify)";
    header =
      [ "n"; "b"; "store signs"; "store srv-verifies"; "read verifies"; "q" ];
    rows;
    notes =
      [ "read verifies = 1 is the paper's best case: latest record checks out first" ];
  }

(* ------------------------------------------------------------------ E3 *)

(* One session's write, then its read, in a fresh (n, b) world. *)
let write_then_read ~n ~b cfg =
  let w = Worlds.make ~n ~b () in
  Worlds.in_direct w (fun () ->
      let alice = Worlds.connect w "alice" ~group:"g" ~cfg in
      let _, wm = measured (fun () -> Result.get_ok (Client.write alice ~item:"x" "v")) in
      let _, rm =
        measured (fun () ->
            match Client.read alice ~item:"x" with
            | Ok _ -> ()
            | Error e -> failwith (Client.error_to_string e))
      in
      (wm, rm))

let e3_data_costs () =
  let consistency_rows label cfg =
    List.map
      (fun (n, b) ->
        let wm, rm = write_then_read ~n ~b cfg in
        [
          label; Table.cell_int n; Table.cell_int b;
          Table.cell_int wm.Metrics.messages;
          Table.cell_int (Quorums.cost Write ~n ~b Single_writer).requests;
          Table.cell_int wm.Metrics.signs;
          Table.cell_int wm.Metrics.server_verifies;
          Table.cell_int rm.Metrics.messages;
          Table.cell_int (Quorums.messages (Quorums.cost Read_hit ~n ~b Single_writer));
          Table.cell_int rm.Metrics.verifies;
        ])
      grid
  in
  {
    Table.id = "E3";
    title = "Single-writer data op costs (paper: write b+1 msgs / 1 sign / b+1 verifies)";
    header =
      [
        "level"; "n"; "b"; "write msgs"; "paper b+1"; "signs"; "srv-verifies";
        "read msgs"; "paper 2(b+1)"; "read verifies";
      ];
    rows = consistency_rows "MRC" Fun.id @ consistency_rows "CC" cc;
    notes =
      [
        "write msgs count the b+1 acks; the paper counts the write one-way (paper b+1)";
        "read cost is the paper's best case, one round: the shipper holds a fresh copy";
      ];
  }

(* ------------------------------------------------------------------ E4 *)

let e4_multi_writer_costs () =
  let rows =
    List.map
      (fun (n, b) ->
        let wm, rm = write_then_read ~n ~b mw in
        [
          Table.cell_int n; Table.cell_int b;
          Table.cell_int wm.Metrics.messages;
          Table.cell_int (Quorums.cost Write ~n ~b Multi_writer).requests;
          Table.cell_int rm.Metrics.messages;
          Table.cell_int (Quorums.messages (Quorums.cost Read_hit ~n ~b Multi_writer));
          Table.cell_int rm.Metrics.verifies;
          Table.cell_int rm.Metrics.digests;
        ])
      grid
  in
  {
    Table.id = "E4";
    title = "Multi-writer (malicious clients) costs: b+1 becomes 2b+1, reads need no client verify";
    header =
      [
        "n"; "b"; "write msgs"; "paper 2b+1"; "read msgs"; "paper 2(2b+1)";
        "read verifies"; "read digests";
      ];
    rows;
    notes =
      [
        "read verifies = 0: b+1 servers vouch for a stamp instead of client signature checks";
        "one digest check binds the shipped value to the vouched 3-tuple timestamp";
      ];
  }

(* ------------------------------------------------------------------ E5 *)

let e5_quorum_comparison () =
  let rows =
    List.concat_map
      (fun (n, b) ->
        (* Ours *)
        let w = Worlds.make ~n ~b () in
        let ours =
          Worlds.in_direct w (fun () ->
              let alice = Worlds.connect w "alice" ~group:"g" in
              let _, wm = measured (fun () -> Result.get_ok (Client.write alice ~item:"x" "v")) in
              let _, rm =
                measured (fun () -> Result.get_ok (Result.map ignore (Client.read alice ~item:"x")))
              in
              let _, cm = measured (fun () -> Result.get_ok (Client.disconnect alice)) in
              [
                "secure-store"; Table.cell_int n; Table.cell_int b;
                Table.cell_int wm.Metrics.messages; Table.cell_int rm.Metrics.messages;
                Table.cell_int cm.Metrics.messages;
                Table.cell_int wm.Metrics.server_verifies;
                Table.cell_int rm.Metrics.verifies;
              ])
        in
        (* Masking quorum *)
        let keyring = Keyring.create () in
        Keyring.register keyring "alice" (Worlds.key_of "alice").Crypto.Rsa.public;
        let mq_servers =
          Array.init n (fun id -> Baselines.Masking_quorum.Server.create ~id ~keyring)
        in
        let mq_hmap = Array.map Baselines.Masking_quorum.Server.handler mq_servers in
        let mq_handlers dst ~from req =
          if dst >= 0 && dst < n then mq_hmap.(dst) ~now:0.0 ~from req else None
        in
        let masking =
          Sim.Direct.run ~handlers:mq_handlers (fun () ->
              let c =
                Baselines.Masking_quorum.create ~n ~b ~uid:"alice"
                  ~key:(Worlds.key_of "alice") ~keyring ()
              in
              let _, wm =
                measured (fun () ->
                    match Baselines.Masking_quorum.write c ~item:"x" "v" with
                    | Ok () -> ()
                    | Error e -> failwith (Baselines.Masking_quorum.error_to_string e))
              in
              let _, rm =
                measured (fun () ->
                    match Baselines.Masking_quorum.read c ~item:"x" with
                    | Ok _ -> ()
                    | Error e -> failwith (Baselines.Masking_quorum.error_to_string e))
              in
              [
                "masking-quorum"; Table.cell_int n; Table.cell_int b;
                Table.cell_int wm.Metrics.messages; Table.cell_int rm.Metrics.messages;
                "-";
                Table.cell_int wm.Metrics.server_verifies;
                Table.cell_int rm.Metrics.verifies;
              ])
        in
        (* Crash quorum *)
        let cq_servers = Array.init n (fun id -> Baselines.Crash_quorum.Server.create ~id) in
        let cq_hmap = Array.map Baselines.Crash_quorum.Server.handler cq_servers in
        let cq_handlers dst ~from req =
          if dst >= 0 && dst < n then cq_hmap.(dst) ~now:0.0 ~from req else None
        in
        let crash =
          Sim.Direct.run ~handlers:cq_handlers (fun () ->
              let c = Baselines.Crash_quorum.create ~n ~uid:"alice" () in
              let _, wm =
                measured (fun () -> Result.get_ok (Baselines.Crash_quorum.write c ~item:"x" "v"))
              in
              let _, rm =
                measured (fun () ->
                    Result.get_ok (Result.map ignore (Baselines.Crash_quorum.read c ~item:"x")))
              in
              [
                "crash-majority"; Table.cell_int n; Table.cell_int b;
                Table.cell_int wm.Metrics.messages; Table.cell_int rm.Metrics.messages;
                "-";
                Table.cell_int wm.Metrics.server_verifies;
                Table.cell_int rm.Metrics.verifies;
              ])
        in
        [ ours; masking; crash ])
      [ (5, 1); (9, 2); (13, 3); (21, 5) ]
  in
  {
    Table.id = "E5";
    title = "Data op cost: secure store vs Byzantine masking quorum vs crash majority";
    header =
      [
        "protocol"; "n"; "b"; "write msgs"; "read msgs"; "ctx-store msgs";
        "write srv-verifies"; "read client-verifies";
      ];
    rows;
    notes =
      [
        "paper section 6: the store's data ops cost O(b), both quorum baselines O(n)";
        "the store additionally pays the context ops once per session (column 6)";
        "masking-quorum grid uses n >= 4b+1 (its own liveness bound)";
      ];
  }

(* ------------------------------------------------------------------ E6 *)

let e6_pbft_messages () =
  let rows =
    List.map
      (fun (n, f) ->
        let engine =
          Sim.Engine.create ~seed:11
            ~latency:(Sim.Latency.make (Sim.Latency.Constant 0.001))
            ()
        in
        let cluster = Baselines.Pbft_lite.create_cluster ~engine ~n ~f in
        Metrics.reset ();
        let committed = ref false in
        Sim.Engine.spawn engine ~client:(n + 1) (fun () ->
            let c = Baselines.Pbft_lite.client cluster ~id:(n + 1) in
            match Baselines.Pbft_lite.execute c (Baselines.Pbft_lite.Put { item = "x"; value = "v" }) with
            | Ok _ -> committed := true
            | Error Baselines.Pbft_lite.Timeout -> ());
        Sim.Engine.run engine;
        assert !committed;
        let m = Metrics.read () in
        let ours_total =
          Quorums.messages (Quorums.cost Write ~n ~b:f Single_writer)
          + Quorums.messages (Quorums.cost Read_hit ~n ~b:f Single_writer)
        in
        [
          Table.cell_int n; Table.cell_int f;
          Table.cell_int m.Metrics.messages;
          Table.cell_int (Baselines.Pbft_lite.expected_messages_per_op ~n);
          Table.cell_int m.Metrics.macs;
          Table.cell_int ours_total;
        ])
      [ (4, 1); (7, 2); (10, 3); (13, 4); (19, 6) ]
  in
  {
    Table.id = "E6";
    title = "PBFT-lite messages per committed op: O(n^2) vs the store's O(b)";
    header =
      [ "n"; "f"; "msgs/op"; "formula"; "MAC ops"; "store write+read msgs" ];
    rows;
    notes =
      [
        "formula: 1 + (n-1) + (n-1)^2 + n(n-1) + n (request, pre-prepare, prepare, commit, replies)";
        "store column: 2(b+1) + 2(b+1) with b=f, for the same logical write+read, acks included";
      ];
  }

(* ------------------------------------------------------------------ E7 *)

let e7_dissemination ?(seed = 42) () =
  let n = 7 and b = 2 in
  let duration = 120.0 in
  let write_mean_interval = 2.0 in
  let read_interval = 1.0 in
  let run_one gossip_period =
    let w = Worlds.make ~n ~b () in
    let engine =
      Sim.Engine.create ~seed ~latency:(Sim.Latency.make (Sim.Latency.Uniform { lo = 0.001; hi = 0.005 })) ()
    in
    Worlds.register_engine w engine;
    (match gossip_period with
    | Some period ->
      ignore
        (Gossip.install engine ~servers:w.servers ~period
           ~rng:(Sim.Srng.create (seed + 1)) ())
    | None -> ());
    let latest_written = ref 0 in
    let lag_stats = Sim.Stats.create () in
    let latency_stats = Sim.Stats.create () in
    let fresh_reads = ref 0 in
    let total_reads = ref 0 in
    let failed_reads = ref 0 in
    let reader_stats = ref None in
    Sim.Engine.spawn engine ~client:(-2) (fun () ->
        let alice =
          Worlds.connect w "alice" ~group:"g"
            ~cfg:(fun c -> { c with Client.timeout = 0.5 })
        in
        let rng = Sim.Srng.create (seed + 2) in
        let rec loop () =
          if Sim.Runtime.now () < duration then begin
            Sim.Runtime.sleep (Sim.Srng.exponential rng ~mean:write_mean_interval);
            incr latest_written;
            (match Client.write alice ~item:"x" (string_of_int !latest_written) with
            | Ok () -> ()
            | Error _ -> decr latest_written);
            loop ()
          end
        in
        loop ());
    Sim.Engine.spawn engine ~client:(-3) (fun () ->
        let bob =
          Worlds.connect w "bob" ~group:"g"
            ~cfg:(fun c ->
              {
                c with
                Client.read_spread = true;
                seed;
                timeout = 0.5;
                read_retries = 1;
                retry_delay = 0.1;
              })
        in
        reader_stats := Some (Client.stats bob);
        let rec loop () =
          if Sim.Runtime.now () < duration then begin
            Sim.Runtime.sleep read_interval;
            let start = Sim.Runtime.now () in
            incr total_reads;
            (match Client.read bob ~item:"x" with
            | Ok v ->
              Sim.Stats.add latency_stats (Sim.Runtime.now () -. start);
              let version = int_of_string v in
              Sim.Stats.add lag_stats (float_of_int (!latest_written - version));
              if version = !latest_written then incr fresh_reads
            | Error _ -> incr failed_reads);
            loop ()
          end
        in
        loop ());
    Sim.Engine.run ~until:(duration +. 20.0) engine;
    let stats = Option.get !reader_stats in
    let mean_msgs =
      float_of_int stats.Client.messages /. float_of_int (max 1 stats.Client.reads)
    in
    let mean_rounds =
      float_of_int stats.Client.read_rounds /. float_of_int (max 1 stats.Client.reads)
    in
    let label =
      match gossip_period with
      | Some p -> Printf.sprintf "%.2g s" p
      | None -> "off"
    in
    [
      label;
      Table.cell_int !total_reads;
      Table.cell_pct
        (float_of_int !fresh_reads /. float_of_int (max 1 !total_reads));
      Table.cell_float ~decimals:2 (Sim.Stats.mean lag_stats);
      Table.cell_float ~decimals:1 mean_msgs;
      Table.cell_int (Quorums.messages (Quorums.cost Read_hit ~n ~b Single_writer));
      Table.cell_float ~decimals:2 mean_rounds;
      Table.cell_ms (Sim.Stats.percentile latency_stats 95.0);
      Table.cell_int !failed_reads;
    ]
  in
  let rows =
    List.map run_one [ Some 0.25; Some 0.5; Some 1.0; Some 2.0; Some 5.0; None ]
  in
  {
    Table.id = "E7";
    title =
      "Read freshness & cost vs gossip period (n=7 b=2, Poisson writes every ~2s, random read sets)";
    header =
      [
        "gossip"; "reads"; "latest"; "mean lag"; "msgs/read"; "best case";
        "rounds/read"; "p95 ms"; "failures";
      ];
    rows;
    notes =
      [
        "paper: 'when writes are infrequent, most reads access disseminated data' —";
        "fast gossip drives msgs/read toward the 2(b+1) best case and lag toward 0";
        Printf.sprintf "seed=%d; reader polls random b+1 subsets (read_spread)" seed;
      ];
  }

(* ------------------------------------------------------------------ E8 *)

let e8_fault_injection ?(seed = 7) () =
  let behaviors =
    [
      Faults.Honest; Faults.Crash; Faults.Silent_reads; Faults.Stale;
      Faults.Corrupt_value; Faults.Corrupt_meta; Faults.Equivocate;
      Faults.Drop_gossip;
    ]
  in
  let run_one behavior =
    let n = 4 and b = 1 in
    let w = Worlds.make ~n ~b () in
    Worlds.wrap w 0 behavior;
    let rng = Sim.Srng.create seed in
    let written = ref [] in
    let reads_ok = ref 0 and reads_failed = ref 0 in
    let mrc_violations = ref 0 and integrity_violations = ref 0 in
    let last_seen = ref (-1) in
    Worlds.in_direct w (fun () ->
        let alice = Worlds.connect w "alice" ~group:"g" in
        let bob =
          Worlds.connect w "bob" ~group:"g"
            ~cfg:(fun c ->
              { c with Client.read_spread = true; seed; read_retries = 0 })
        in
        let version = ref 0 in
        for _ = 1 to 60 do
          match Sim.Srng.int_below rng 3 with
          | 0 ->
            incr version;
            let v = string_of_int !version in
            (match Client.write alice ~item:"x" v with
            | Ok () -> written := v :: !written
            | Error _ -> decr version)
          | 1 -> ignore (Gossip.exchange_once ~servers:w.servers ~rng ())
          | _ -> (
            match Client.read bob ~item:"x" with
            | Ok v ->
              incr reads_ok;
              if not (List.mem v !written) then incr integrity_violations;
              let version = int_of_string v in
              if version < !last_seen then incr mrc_violations;
              last_seen := max !last_seen version
            | Error _ -> incr reads_failed)
        done);
    let attempts = !reads_ok + !reads_failed in
    [
      Faults.to_string behavior;
      Table.cell_int attempts;
      Table.cell_pct (float_of_int !reads_ok /. float_of_int (max 1 attempts));
      Table.cell_int !mrc_violations;
      Table.cell_int !integrity_violations;
    ]
  in
  {
    Table.id = "E8";
    title = "Fault injection (n=4, b=1, one Byzantine server): safety holds, availability degrades gracefully";
    header = [ "behavior"; "reads"; "ok"; "MRC violations"; "integrity violations" ];
    rows = List.map run_one behaviors;
    notes =
      [
        "violations must be 0 in every row: a lying server can delay but never corrupt";
        Printf.sprintf "random schedule of writes / gossip rounds / spread reads, seed=%d" seed;
      ];
  }

(* ------------------------------------------------------------------ E8b *)

let e8b_spurious_context () =
  let attack ~guard =
    let w = Worlds.make ~n:4 ~b:1 ~guard () in
    let dep = Uid.make ~group:"plan" ~item:"dep" in
    let doc = Uid.make ~group:"plan" ~item:"doc" in
    (* A legitimate base version of dep exists everywhere. *)
    Worlds.in_direct w (fun () ->
        let alice =
          Worlds.connect w "alice" ~group:"plan" ~cfg:(fun c -> cc (mw c))
        in
        Result.get_ok (Client.write alice ~item:"dep" "base"));
    Worlds.flood w;
    (* Mallory's poisoned write: context claims a dep version that exists
       nowhere. *)
    let bogus_ctx =
      Context.of_bindings
        [ (dep, Stamp.multi ~time:999_999_999 ~writer:"mallory" ~value:"?") ]
    in
    let poisoned =
      Signing.sign_write ~key:(Worlds.key_of "mallory") ~writer:"mallory"
        ~uid:doc
        ~stamp:(Stamp.multi ~time:50 ~writer:"mallory" ~value:"poison")
        ~wctx:bogus_ctx "poison"
    in
    Array.iter
      (fun s ->
        ignore
          (Server.handle s ~now:0.0 ~from:(-1)
             {
               Payload.token = None; epoch = 0;
               request = Payload.Write_req poisoned;
             }))
      w.servers;
    Worlds.in_direct w (fun () ->
        let bob =
          Worlds.connect w "bob" ~group:"plan"
            ~cfg:(fun c -> { (cc (mw c)) with Client.read_retries = 0 })
        in
        let doc_result =
          match Client.read bob ~item:"doc" with
          | Ok v -> v
          | Error (Client.Not_found _) -> "(not visible)"
          | Error e -> "(" ^ Client.error_to_string e ^ ")"
        in
        let poisoned_ctx =
          Stamp.compare (Context.find (Client.context bob) dep) (Stamp.scalar 0) > 0
          && Stamp.time (Context.find (Client.context bob) dep) >= 999_999_999
        in
        let dep_result =
          match Client.read bob ~item:"dep" with
          | Ok v -> v
          | Error (Client.Stale _) -> "(stale forever: DoS)"
          | Error e -> "(" ^ Client.error_to_string e ^ ")"
        in
        [
          (if guard then "on" else "off");
          doc_result;
          (if poisoned_ctx then "yes" else "no");
          dep_result;
        ])
  in
  {
    Table.id = "E8b";
    title = "Spurious-context denial of service (section 5.3) and the server-side guard";
    header = [ "guard"; "doc read"; "reader ctx poisoned"; "dep read" ];
    rows = [ attack ~guard:false; attack ~guard:true ];
    notes =
      [
        "guard off: the poisoned write is visible, pollutes reader contexts, and";
        "subsequent reads of the named dependency stall forever (the paper's attack)";
        "guard on: servers hold the write until its causal predecessors exist";
      ];
  }

(* ------------------------------------------------------------------ E10 *)

let e10_wan_latency ?(seed = 21) () =
  let n = 7 and b = 1 in
  let run_net label latency timeout =
    let ops :
        (string * Sim.Stats.t) list ref =
      ref []
    in
    let stat name =
      match List.assoc_opt name !ops with
      | Some s -> s
      | None ->
        let s = Sim.Stats.create () in
        ops := (name, s) :: !ops;
        s
    in
    let iterations = 40 in
    (* --- secure store --- *)
    let w = Worlds.make ~n ~b () in
    let engine = Sim.Engine.create ~seed ~latency () in
    Worlds.register_engine w engine;
    Sim.Engine.spawn engine ~client:(-2) (fun () ->
        let alice =
          Worlds.connect w "alice" ~group:"g"
            ~cfg:(fun c -> { c with Client.timeout })
        in
        for i = 1 to iterations do
          let t0 = Sim.Runtime.now () in
          (match Client.write alice ~item:"x" (string_of_int i) with
          | Ok () -> Sim.Stats.add (stat "store write (b+1)") (Sim.Runtime.now () -. t0)
          | Error _ -> ());
          let t0 = Sim.Runtime.now () in
          match Client.read alice ~item:"x" with
          | Ok _ -> Sim.Stats.add (stat "store read (b+1)") (Sim.Runtime.now () -. t0)
          | Error _ -> ()
        done;
        let t0 = Sim.Runtime.now () in
        match Client.disconnect alice with
        | Ok () -> Sim.Stats.add (stat "store ctx op (q)") (Sim.Runtime.now () -. t0)
        | Error _ -> ());
    Sim.Engine.run engine;
    (* --- masking quorum --- *)
    let keyring = Keyring.create () in
    Keyring.register keyring "alice" (Worlds.key_of "alice").Crypto.Rsa.public;
    let mq_servers =
      Array.init n (fun id -> Baselines.Masking_quorum.Server.create ~id ~keyring)
    in
    let engine = Sim.Engine.create ~seed:(seed + 1) ~latency () in
    Array.iteri
      (fun i s -> Sim.Engine.add_server engine i (Baselines.Masking_quorum.Server.handler s))
      mq_servers;
    Sim.Engine.spawn engine ~client:(-2) (fun () ->
        let c =
          Baselines.Masking_quorum.create ~n ~b ~timeout ~uid:"alice"
            ~key:(Worlds.key_of "alice") ~keyring ()
        in
        for i = 1 to iterations do
          let t0 = Sim.Runtime.now () in
          (match Baselines.Masking_quorum.write c ~item:"x" (string_of_int i) with
          | Ok () -> Sim.Stats.add (stat "masking write (q')") (Sim.Runtime.now () -. t0)
          | Error _ -> ());
          let t0 = Sim.Runtime.now () in
          match Baselines.Masking_quorum.read c ~item:"x" with
          | Ok _ -> Sim.Stats.add (stat "masking read (q')") (Sim.Runtime.now () -. t0)
          | Error _ -> ()
        done);
    Sim.Engine.run engine;
    (* --- pbft --- *)
    let engine = Sim.Engine.create ~seed:(seed + 2) ~latency () in
    let cluster = Baselines.Pbft_lite.create_cluster ~engine ~n ~f:b in
    Sim.Engine.spawn engine ~client:(n + 1) (fun () ->
        let c = Baselines.Pbft_lite.client cluster ~id:(n + 1) in
        for i = 1 to iterations do
          let t0 = Sim.Runtime.now () in
          match
            Baselines.Pbft_lite.execute c
              (Baselines.Pbft_lite.Put { item = "x"; value = string_of_int i })
          with
          | Ok _ -> Sim.Stats.add (stat "pbft put (n^2)") (Sim.Runtime.now () -. t0)
          | Error _ -> ()
        done);
    Sim.Engine.run engine;
    List.rev_map
      (fun (name, s) ->
        [
          label; name;
          Table.cell_int (Sim.Stats.count s);
          Table.cell_ms (Sim.Stats.percentile s 50.0);
          Table.cell_ms (Sim.Stats.percentile s 99.0);
        ])
      !ops
  in
  let lan_rows = run_net "LAN" Sim.Latency.lan 1.0 in
  let wan_rows = run_net "WAN" Sim.Latency.wan 2.0 in
  {
    Table.id = "E10";
    title = "Operation latency, LAN vs WAN (n=7, b=f=1)";
    header = [ "net"; "operation"; "ops"; "p50 ms"; "p99 ms" ];
    rows = lan_rows @ wan_rows;
    notes =
      [
        "paper section 6: small quorums pay off most in widely-distributed settings;";
        "PBFT's multi-phase exchange costs ~5 sequential hops vs the store's 1-2";
        Printf.sprintf "WAN: %s; seed=%d" (Sim.Latency.describe Sim.Latency.wan) seed;
      ];
  }

(* ------------------------------------------------------------------ E11 *)

let e11_read_hit_miss () =
  let n = 7 and b = 2 in
  let sizes = [ ("64 B", 64); ("1 KiB", 1024); ("64 KiB", 65536) ] in
  let rows =
    List.concat_map
      (fun (label, size) ->
        let value = String.make size 'v' in
        (* alice's write reaches servers 0..b; bob's session prefers
           [servers] in order, so their head is the shipper *)
        let run case servers =
          let w = Worlds.make ~n ~b () in
          Worlds.in_direct w (fun () ->
              let alice = Worlds.connect w "alice" ~group:"g" in
              Result.get_ok (Client.write alice ~item:"x" value);
              let bob =
                Worlds.connect w "bob" ~group:"g"
                  ~cfg:(fun c -> { c with Client.servers })
              in
              let _, m =
                measured (fun () ->
                    Result.get_ok (Result.map ignore (Client.read bob ~item:"x")))
              in
              [
                case; label;
                Table.cell_int m.Metrics.messages;
                Table.cell_int m.Metrics.bytes;
                Table.cell_int m.Metrics.verifies;
              ])
        in
        let all = List.init n Fun.id in
        [
          run "hit: shipper fresh" all;
          run "miss: shipper stale" ((b + 1) :: List.filter (( <> ) (b + 1)) all);
        ])
      sizes
  in
  {
    Table.id = "E11";
    title = "One read (n=7 b=2): hit vs miss";
    header = [ "case"; "value"; "msgs"; "bytes"; "verifies" ];
    rows;
    notes =
      [
        "one round: the first polled server ships its current write, all b+1 list stamps;";
        "hit: the shipped write is the freshest, so the read costs 2(b+1) messages,";
        "the paper's 'read response time = write response time' best case;";
        "miss: the shipper lacks the write, so Fig. 2's fetch adds a round (+2 messages)";
      ];
  }

(* ------------------------------------------------------------------ E12 *)

let e12_dispersal () =
  let n = 7 and b = 2 in
  let sizes = [ ("1 KiB", 1024); ("64 KiB", 65536); ("1 MiB", 1 lsl 20) ] in
  (* One strategy at one size: a fresh world, one write and one read
     through [write]/[read] over a session built with [cfg]; stored
     bytes are what every server holds afterwards. *)
  let measure strategy size_label ~cfg ~write ~read value =
    let w = Worlds.make ~n ~b () in
    let wm, rm =
      Worlds.in_direct w (fun () ->
          let alice = Worlds.connect w "alice" ~group:"g" ~cfg in
          let _, wm = measured (fun () -> Result.get_ok (write alice value)) in
          let _, rm = measured (fun () -> ignore (Result.get_ok (read alice))) in
          (wm, rm))
    in
    let stored =
      Array.fold_left (fun acc s -> acc + Server.storage_bytes s) 0 w.servers
    in
    [
      strategy;
      size_label;
      Table.cell_int wm.Metrics.bytes;
      Table.cell_int stored;
      Table.cell_int rm.Metrics.bytes;
    ]
  in
  let rows =
    List.concat_map
      (fun (size_label, size) ->
        let value = String.make size 'v' in
        (* Replication (paper write: b+1 full copies), never dispersed. *)
        let replication =
          measure "replication (b+1)" size_label
            ~cfg:(fun c -> { c with Client.dispersal_threshold = 0 })
            ~write:(fun c v -> Client.write c ~item:"x" v)
            ~read:(fun c -> Client.read c ~item:"x")
            value
        in
        (* Encrypt, then disperse: n fragments of |ciphertext|/(b+1),
           the metadata write through the replica quorum. Every size's
           ciphertext clears the 1 KiB threshold. *)
        let vault c = Confidential.make ~client:c ~key:"s" () in
        let dispersal =
          measure "dispersal (k=b+1)" size_label
            ~cfg:(fun c -> { c with Client.dispersal_threshold = 1024 })
            ~write:(fun c v -> Confidential.write (vault c) ~item:"x" v)
            ~read:(fun c -> Confidential.read (vault c) ~item:"x")
            value
        in
        [ replication; dispersal ])
      sizes
  in
  {
    Table.id = "E12";
    title = "Storage strategy ablation (n=7 b=2): replication vs fragmentation-scattering";
    header = [ "strategy"; "value"; "write bytes"; "stored bytes"; "read bytes" ];
    rows;
    notes =
      [
        "stored bytes: Server.storage_bytes summed over all n servers after the write;";
        "dispersal stores n/(b+1) ~= 2.3x the value in total vs b+1 = 3x for replication,";
        "reads k = b+1 fragments (about 1x the value), and no server holds a whole";
        "(even encrypted) value";
      ];
  }

(* ------------------------------------------------------------------ E13 *)

let e13_dynamic_quorums () =
  let n = 10 and b = 3 in
  let w = Worlds.make ~n ~b () in
  Worlds.wrap w 0 Faults.Corrupt_value;
  let evidence = Fault_evidence.create ~servers:(List.init n Fun.id) ~b in
  let row phase m_read m_ctx =
    [
      phase;
      Table.cell_int (Fault_evidence.effective_b evidence);
      Table.cell_int m_read.Metrics.messages;
      Table.cell_int m_ctx.Metrics.messages;
    ]
  in
  let rows =
    Worlds.in_direct w (fun () ->
        let alice =
          Worlds.connect w "alice" ~group:"g"
            ~cfg:(fun c -> { c with Client.evidence = Some evidence })
        in
        Result.get_ok (Client.write alice ~item:"x" "v1");
        (* Phase 1: the corrupt server is polled, detected and proven. *)
        let _, m_read1 =
          measured (fun () ->
              Result.get_ok (Result.map ignore (Client.read alice ~item:"x")))
        in
        let _, m_ctx1 = measured (fun () -> Result.get_ok (Client.disconnect alice)) in
        let r1 = row "before detection settles" m_read1 m_ctx1 in
        (* Phase 2: with the proof, read sets and quorums shrink. *)
        let alice =
          Worlds.connect w "alice" ~group:"g"
            ~cfg:(fun c -> { c with Client.evidence = Some evidence })
        in
        let _, m_read2 =
          measured (fun () ->
              Result.get_ok (Result.map ignore (Client.read alice ~item:"x")))
        in
        let _, m_ctx2 = measured (fun () -> Result.get_ok (Client.disconnect alice)) in
        let r2 = row "after proof" m_read2 m_ctx2 in
        [ r1; r2 ])
  in
  {
    Table.id = "E13";
    title =
      "Dynamic quorums (n=10 b=3, one provably-corrupt server): costs shrink with evidence";
    header = [ "phase"; "effective b"; "read msgs"; "ctx-op msgs" ];
    rows;
    notes =
      [
        "a corrupted reply is a transferable proof of misbehaviour: the client";
        "excludes the server and lowers b, shrinking b+1 read sets and";
        "ceil((n+b+1)/2) context quorums (Alvisi et al., cited in section 3)";
      ];
  }

(* ------------------------------------------------------------------ E14 *)

let e14_context_size () =
  let n = 7 and b = 2 in
  let q = Quorums.context_quorum ~n ~b in
  let rows =
    List.map
      (fun items ->
        let w = Worlds.make ~n ~b () in
        Worlds.in_direct w (fun () ->
            let alice = Worlds.connect w "alice" ~group:"g" in
            for i = 1 to items do
              Result.get_ok (Client.write alice ~item:("item" ^ string_of_int i) "v")
            done;
            let _, store_m = measured (fun () -> Result.get_ok (Client.disconnect alice)) in
            let _, read_m = measured (fun () -> Worlds.connect w "alice" ~group:"g") in
            [
              Table.cell_int items;
              Table.cell_int store_m.Metrics.messages;
              Table.cell_int store_m.Metrics.bytes;
              Table.cell_int read_m.Metrics.messages;
              Table.cell_int read_m.Metrics.bytes;
            ]))
      [ 1; 4; 16; 64; 256 ]
  in
  (* Reconstruction cost, measured separately (crashed session: context
     never stored, client reads every item from every server). *)
  let recon_rows =
    List.map
      (fun items ->
        let w = Worlds.make ~n ~b () in
        Worlds.in_direct w (fun () ->
            let alice = Worlds.connect w "alice" ~group:"g" in
            for i = 1 to items do
              Result.get_ok (Client.write alice ~item:("item" ^ string_of_int i) "v")
            done;
            (* no disconnect: the session "crashes" *)
            Worlds.flood w;
            let _, m =
              measured (fun () -> Worlds.connect w "alice" ~group:"g" ~recover:`Reconstruct)
            in
            [
              Table.cell_int items;
              "-"; "-";
              Table.cell_int m.Metrics.messages;
              Table.cell_int m.Metrics.bytes;
            ]))
      [ 1; 16; 256 ]
  in
  {
    Table.id = "E14";
    title =
      Printf.sprintf
        "Context machinery cost vs group size (n=7 b=2, q=%d): store/read vs reconstruction"
        q;
    header = [ "items"; "store msgs"; "store bytes"; "acquire msgs"; "acquire bytes" ];
    rows = rows @ ([ "--recon--"; ""; ""; ""; "" ] :: recon_rows);
    notes =
      [
        "store/acquire messages stay at 2q regardless of group size; only bytes grow";
        "reconstruction rows (after a crashed session): 2q msgs for the failed context";
        "read plus 2n for the group scan, and bytes grow with every stored item";
      ];
  }

let all ?seed () =
  [
    e1_context_messages ();
    e2_context_crypto ();
    e3_data_costs ();
    e4_multi_writer_costs ();
    e5_quorum_comparison ();
    e6_pbft_messages ();
    e7_dissemination ?seed ();
    e8_fault_injection ?seed ();
    e8b_spurious_context ();
    e10_wan_latency ?seed ();
    e11_read_hit_miss ();
    e12_dispersal ();
    e13_dynamic_quorums ();
    e14_context_size ();
  ]
