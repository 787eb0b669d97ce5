(* The consistency oracle and the seeded schedule explorer.

   The oracle unit tests feed hand-built histories — one per property —
   and assert exactly the right property fires. The explorer tests are
   the meta-checks: the canary (a client with its freshness check
   disabled) must be caught and must shrink to its one relevant fault,
   the honest control must pass, identical seeds must reproduce
   identical histories and engine counters, and a quick sweep of random
   fault schedules must be violation-free (SOAK=1 widens the sweep). *)

open Store
module T = Store.Trace
module O = Check.Oracle
module E = Check.Explorer

let soak = Sys.getenv_opt "SOAK" = Some "1"
let uid_x = Uid.make ~group:"g" ~item:"x"
let dg v = Crypto.Sha256.hex_digest v

let ev ~seq ~op ~client ?(session = 1) ~phase ~kind ?outcome ?(ctx = []) () =
  {
    T.seq;
    op;
    time = float_of_int seq;
    client;
    session;
    multi_writer = false;
    causal = false;
    epoch = 0;
    phase;
    kind;
    outcome;
    ctx;
    trace = "";
  }

let props vs = List.sort_uniq compare (List.map (fun v -> v.O.property) vs)

let write_invoke ~seq ~op ~client ?session ?ctx stamp value =
  ev ~seq ~op ~client ?session ~phase:T.Invoke
    ~kind:(T.Write { uid = uid_x; stamp; digest = dg value })
    ?ctx ()

let write_return ~seq ~op ~client ?session ?ctx stamp value =
  ev ~seq ~op ~client ?session ~phase:T.Return
    ~kind:(T.Write { uid = uid_x; stamp; digest = dg value })
    ~outcome:T.Ok_unit ?ctx ()

let read_invoke ~seq ~op ~client ?session ?ctx () =
  ev ~seq ~op ~client ?session ~phase:T.Invoke ~kind:(T.Read { uid = uid_x })
    ?ctx ()

let read_return ~seq ~op ~client ?session ?ctx ~writer stamp value =
  ev ~seq ~op ~client ?session ~phase:T.Return ~kind:(T.Read { uid = uid_x })
    ~outcome:(T.Ok_value { stamp; digest = dg value; writer })
    ?ctx ()

(* ------------------------------------------------------------------ *)
(* Oracle unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let s1 = Stamp.scalar 1
let s2 = Stamp.scalar 2
let s3 = Stamp.scalar 3

let test_oracle_clean () =
  let h =
    [
      write_invoke ~seq:1 ~op:1 ~client:"alice" s1 "v1";
      write_return ~seq:2 ~op:1 ~client:"alice" ~ctx:[ (uid_x, s1) ] s1 "v1";
      read_invoke ~seq:3 ~op:2 ~client:"alice" ~ctx:[ (uid_x, s1) ] ();
      read_return ~seq:4 ~op:2 ~client:"alice" ~ctx:[ (uid_x, s1) ]
        ~writer:"alice" s1 "v1";
    ]
  in
  Alcotest.(check (list string)) "no violations" [] (props (O.check h))

let test_oracle_ctx_monotonic () =
  let h =
    [
      read_invoke ~seq:1 ~op:1 ~client:"alice" ~ctx:[ (uid_x, s2) ] ();
      read_invoke ~seq:2 ~op:2 ~client:"alice" ~ctx:[] ();
    ]
  in
  Alcotest.(check (list string)) "context shrank" [ "ctx-monotonic" ]
    (props (O.check h))

let test_oracle_read_freshness () =
  let h =
    [
      write_invoke ~seq:1 ~op:1 ~client:"w" s1 "v1";
      write_invoke ~seq:2 ~op:2 ~client:"w" s2 "v2";
      read_invoke ~seq:3 ~op:3 ~client:"alice" ~ctx:[ (uid_x, s2) ] ();
      read_return ~seq:4 ~op:3 ~client:"alice" ~ctx:[ (uid_x, s2) ] ~writer:"w"
        s1 "v1";
    ]
  in
  let vs = O.check h in
  Alcotest.(check (list string)) "stale slipped through" [ "read-freshness" ]
    (props vs);
  (* The violating pair is (return, its invoke): concrete evidence. *)
  match vs with
  | [ v ] ->
    Alcotest.(check int) "completing event" 4 v.O.first.T.seq;
    Alcotest.(check (option int)) "paired with the invoke" (Some 3)
      (Option.map (fun (e : T.event) -> e.T.seq) v.O.second)
  | _ -> Alcotest.fail "expected exactly one violation"

let test_oracle_read_your_writes () =
  (* A client that never folds its own writes into its context: the
     floor stays zero, so only read-your-writes can catch the stale
     read-back of its own item. *)
  let h =
    [
      write_invoke ~seq:1 ~op:1 ~client:"w" s1 "v1";
      write_invoke ~seq:2 ~op:2 ~client:"alice" s2 "v2";
      write_return ~seq:3 ~op:2 ~client:"alice" s2 "v2";
      read_invoke ~seq:4 ~op:3 ~client:"alice" ();
      read_return ~seq:5 ~op:3 ~client:"alice" ~writer:"w" s1 "v1";
    ]
  in
  Alcotest.(check (list string)) "own write lost" [ "read-your-writes" ]
    (props (O.check h))

let test_oracle_monotonic_reads () =
  let h =
    [
      write_invoke ~seq:1 ~op:1 ~client:"w" s1 "v1";
      write_invoke ~seq:2 ~op:2 ~client:"w" s2 "v2";
      read_invoke ~seq:3 ~op:3 ~client:"alice" ();
      read_return ~seq:4 ~op:3 ~client:"alice" ~writer:"w" s2 "v2";
      read_invoke ~seq:5 ~op:4 ~client:"alice" ();
      read_return ~seq:6 ~op:4 ~client:"alice" ~writer:"w" s1 "v1";
    ]
  in
  Alcotest.(check (list string)) "reads went backwards"
    [ "monotonic-reads" ]
    (props (O.check h))

let test_oracle_read_linkage () =
  (* Phantom value: nothing was ever written under this stamp. *)
  let phantom =
    [
      read_invoke ~seq:1 ~op:1 ~client:"alice" ();
      read_return ~seq:2 ~op:1 ~client:"alice" ~writer:"w" s3 "forged";
    ]
  in
  Alcotest.(check (list string)) "phantom value" [ "read-linkage" ]
    (props (O.check phantom));
  (* Altered value: the stamp exists but names different bytes. *)
  let altered =
    [
      write_invoke ~seq:1 ~op:1 ~client:"w" s1 "v1";
      read_invoke ~seq:2 ~op:2 ~client:"alice" ();
      read_return ~seq:3 ~op:2 ~client:"alice" ~writer:"w" s1 "tampered";
    ]
  in
  Alcotest.(check (list string)) "altered value" [ "read-linkage" ]
    (props (O.check altered))

let test_oracle_no_fork () =
  let scalar_fork =
    [
      write_invoke ~seq:1 ~op:1 ~client:"w" s3 "va";
      write_invoke ~seq:2 ~op:2 ~client:"w" s3 "vb";
    ]
  in
  Alcotest.(check (list string)) "scalar fork" [ "no-fork" ]
    (props (O.check scalar_fork));
  let ma = Stamp.multi ~time:3 ~writer:"w" ~value:"va" in
  let mb = Stamp.multi ~time:3 ~writer:"w" ~value:"vb" in
  let mw_fork =
    [
      write_invoke ~seq:1 ~op:1 ~client:"w" ma "va";
      write_invoke ~seq:2 ~op:2 ~client:"w" mb "vb";
    ]
  in
  Alcotest.(check (list string)) "multi-writer (time, writer) fork"
    [ "no-fork" ]
    (props (O.check mw_fork))

let test_oracle_ctx_continuity () =
  let h =
    [
      ev ~seq:1 ~op:1 ~client:"alice" ~session:1 ~phase:T.Return
        ~kind:T.Disconnect ~outcome:T.Ok_unit
        ~ctx:[ (uid_x, s2) ]
        ();
      ev ~seq:2 ~op:2 ~client:"alice" ~session:2 ~phase:T.Return
        ~kind:T.Connect
        ~outcome:(T.Connected T.Stored)
        ();
    ]
  in
  Alcotest.(check (list string)) "stored context lost entries"
    [ "ctx-continuity" ]
    (props (O.check h));
  (* A fresh-context reconnect makes no continuity promise. *)
  let fresh =
    [
      ev ~seq:1 ~op:1 ~client:"alice" ~session:1 ~phase:T.Return
        ~kind:T.Disconnect ~outcome:T.Ok_unit
        ~ctx:[ (uid_x, s2) ]
        ();
      ev ~seq:2 ~op:2 ~client:"alice" ~session:2 ~phase:T.Return
        ~kind:T.Connect ~outcome:(T.Connected T.Fresh) ();
    ]
  in
  Alcotest.(check (list string)) "fresh recovery is fine" []
    (props (O.check fresh))

(* ------------------------------------------------------------------ *)
(* Explorer: canary, shrinking, determinism, sweep                    *)
(* ------------------------------------------------------------------ *)

let test_canary_caught () =
  let out = E.run (E.canary_schedule ~seed:7) in
  Alcotest.(check bool) "canary flagged" true (out.E.violations <> []);
  let v = List.hd out.E.violations in
  Alcotest.(check string) "first property" "read-freshness" v.O.property;
  (* The violation names a concrete event pair from the history. *)
  (match v.O.second with
  | None -> Alcotest.fail "violation has no paired event"
  | Some second ->
    Alcotest.(check bool) "pair is ordered" true
      (second.T.seq < v.O.first.T.seq));
  Alcotest.(check bool) "read-your-writes also broken" true
    (List.exists (fun v -> v.O.property = "read-your-writes") out.E.violations);
  let control = E.run { (E.canary_schedule ~seed:7) with E.canary = false } in
  Alcotest.(check int) "honest control is clean" 0
    (List.length control.E.violations)

let test_violation_names_a_trace () =
  (* Every op minted under a recording history carries a forced trace
     id; a violation report must surface one that resolves back into
     the history, so the flight recorder can dump the causal trace. *)
  let out = E.run (E.canary_schedule ~seed:7) in
  let v = List.hd out.E.violations in
  let id = v.O.first.T.trace in
  Alcotest.(check bool) "violation carries a trace id" true (id <> "");
  Alcotest.(check bool) "id is 128-bit lowercase hex" true
    (match Obs.Jsonx.of_hex id with
    | Some raw -> String.length raw = Obs.Span.trace_bytes
    | None -> false);
  let evs = Check.History.events out.E.history in
  Alcotest.(check bool) "trace id resolves to the op's other events" true
    (List.exists (fun e -> e.T.trace = id && e.T.seq <> v.O.first.T.seq) evs);
  let printed = O.violation_to_string v in
  Alcotest.(check bool) "report prints trace=<id>" true
    (try
       ignore (Str.search_forward (Str.regexp_string ("trace=" ^ id)) printed 0);
       true
     with Not_found -> false)

let test_canary_shrinks_to_crash () =
  let out = E.run (E.canary_schedule ~seed:11) in
  let shrunk, kept = E.shrink out in
  Alcotest.(check bool) "violation persists after shrinking" true
    (shrunk.E.violations <> []);
  Alcotest.(check (list string)) "decoy faults eliminated" [ "crash" ]
    (List.map E.category_name kept)

let test_seed_reproduces_history () =
  let a = E.run (E.schedule_of_seed 123) in
  let b = E.run (E.schedule_of_seed 123) in
  Alcotest.(check string) "history digest reproduces" a.E.history_digest
    b.E.history_digest;
  Alcotest.(check int) "messages_sent reproduces" a.E.messages_sent
    b.E.messages_sent;
  Alcotest.(check int) "bytes_sent reproduces" a.E.bytes_sent b.E.bytes_sent;
  Alcotest.(check int) "messages_dropped reproduces" a.E.messages_dropped
    b.E.messages_dropped;
  Alcotest.(check int) "ops reproduce" (a.E.ops_ok + a.E.ops_failed)
    (b.E.ops_ok + b.E.ops_failed);
  let c = E.run (E.schedule_of_seed 124) in
  Alcotest.(check bool) "different seed, different history" true
    (a.E.history_digest <> c.E.history_digest)

let test_chaos_decision_digest_deterministic () =
  let plan seed =
    Tcpnet.Chaos.plan ~drop:0.1 ~corrupt:0.05 ~reset:0.02 ~jitter:0.01 ~seed ()
  in
  let d5 = Tcpnet.Chaos.decision_digest (plan 5) ~frames:64 in
  let d5' = Tcpnet.Chaos.decision_digest (plan 5) ~frames:64 in
  let d6 = Tcpnet.Chaos.decision_digest (plan 6) ~frames:64 in
  Alcotest.(check string) "same seed, same fault schedule" d5 d5';
  Alcotest.(check bool) "different seed, different schedule" true (d5 <> d6)

(* Every signing mode — the per-write baseline and the MAC fast path — must
   satisfy the oracle even with a downgrading server leaking MAC-held
   writes and stripping batch proofs. *)
let test_signing_modes_clean () =
  List.iter
    (fun (label, signing) ->
      let sched =
        {
          (E.schedule_of_seed 4242) with
          E.signing;
          byzantine = [ (0, Store.Faults.Downgrade) ];
        }
      in
      let out = E.run sched in
      match out.E.violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s mode violated the oracle:\n%s" label
          (O.violation_to_string v))
    [
      ("per-write-sig", Store.Client.Per_write_sig);
      ("mac-fast", Store.Client.Mac_fast);
    ]

let test_sweep_clean () =
  let count = if soak then 200 else 16 in
  let s = E.explore ~seeds:(List.init count (fun i -> 9000 + i)) in
  Alcotest.(check int) "all seeds ran" count s.E.runs;
  Alcotest.(check bool) "histories recorded" true (s.E.total_events > 0);
  match s.E.violated with
  | [] -> ()
  | o :: _ ->
    Alcotest.failf "oracle violation in %s:\n%s"
      (E.describe o.E.schedule)
      (O.violation_to_string (List.hd o.E.violations))

(* Reconfiguration schedules: the membership transitions are drawn from
   a separate random stream, so every non-reconfig field matches the
   plain schedule for the same seed (old seeds keep reproducing); and
   replaying the transitions must keep the membership valid (>= 3b+1)
   and inside the provisioned standby capacity at every step. *)
let test_reconfig_schedule_shape () =
  List.iter
    (fun seed ->
      let base = E.schedule_of_seed seed in
      let r = E.reconfig_schedule_of_seed seed in
      Alcotest.(check bool) "has transitions" true (r.E.reconfigs <> []);
      Alcotest.(check bool) "transitions time-ordered" true
        (List.sort compare (List.map fst r.E.reconfigs)
        = List.map fst r.E.reconfigs);
      Alcotest.(check bool) "base draws preserved" true
        ({ r with E.reconfigs = []; capacity = base.E.capacity } = base);
      Alcotest.(check bool) "standbys provisioned" true (r.E.capacity >= r.E.n);
      let members = ref (List.init r.E.n Fun.id) in
      List.iter
        (fun (_, rc) ->
          let next =
            match rc with
            | E.Add_server s -> List.sort_uniq compare (s :: !members)
            | E.Remove_server s -> List.filter (fun x -> x <> s) !members
            | E.Replace_server { remove; add } ->
              List.sort_uniq compare
                (add :: List.filter (fun x -> x <> remove) !members)
          in
          Alcotest.(check bool) "membership stays >= 3b+1" true
            (List.length next >= (3 * r.E.b) + 1);
          Alcotest.(check bool) "members within capacity" true
            (List.for_all (fun s -> s >= 0 && s < r.E.capacity) next);
          members := next)
        r.E.reconfigs)
    [ 11; 42; 777; 1001 ]

(* A churning run is still a deterministic run, and the oracle's seven
   properties must hold across the epoch transitions (SOAK=1 widens). *)
let test_reconfig_runs_clean () =
  let a = E.run (E.reconfig_schedule_of_seed 7100) in
  let b = E.run (E.reconfig_schedule_of_seed 7100) in
  Alcotest.(check string) "reconfig history reproduces" a.E.history_digest
    b.E.history_digest;
  let count = if soak then 40 else 8 in
  for i = 0 to count - 1 do
    let out = E.run (E.reconfig_schedule_of_seed (7000 + i)) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d produced work" (7000 + i))
      true (out.E.events > 0);
    match out.E.violations with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "reconfig schedule %s violated the oracle:\n%s"
        (E.describe out.E.schedule)
        (O.violation_to_string v)
  done

(* The coded k-of-n data path under the explorer: force dispersal on
   (every other write padded past a tiny threshold), inject whole-disk
   fragment losses, and the oracle's properties must still hold over
   the reconstructed reads — the freshness/linkage checks run against
   the reconstructed bytes, so a wrong or stale reconstruction would be
   flagged. Fragment losses beyond what repair catches only fail reads
   (liveness), which the oracle does not score. Determinism must hold
   too: the dispersal draws come from their own random stream. *)
let test_dispersal_schedules_clean () =
  let force seed =
    let s = E.schedule_of_seed seed in
    {
      s with
      E.dispersal = true;
      frag_losses = [ (0, s.E.horizon *. 0.3); (1, s.E.horizon *. 0.6) ];
    }
  in
  let a = E.run (force 5100) in
  let b = E.run (force 5100) in
  Alcotest.(check string) "dispersal history reproduces" a.E.history_digest
    b.E.history_digest;
  Alcotest.(check bool) "frag-loss category active" true
    (List.mem E.Frag_loss (E.active_categories a.E.schedule));
  Alcotest.(check bool) "disable drops the losses" true
    ((E.disable E.Frag_loss a.E.schedule).E.frag_losses = []);
  let count = if soak then 40 else 10 in
  for i = 0 to count - 1 do
    let out = E.run (force (5000 + i)) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d produced work" (5000 + i))
      true (out.E.events > 0);
    match out.E.violations with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "dispersal schedule %s violated the oracle:\n%s"
        (E.describe out.E.schedule)
        (O.violation_to_string v)
  done

let test_history_json_and_recording_guard () =
  let out = E.run (E.canary_schedule ~seed:3) in
  let json = Check.History.to_json out.E.history in
  Alcotest.(check bool) "serializes events" true
    (String.length json > 100
    && String.length (Check.History.digest out.E.history) = 64);
  let report = E.violation_report_json out in
  Alcotest.(check bool) "report carries schema and property" true
    (let has needle =
       try
         ignore (Str.search_forward (Str.regexp_string needle) report 0);
         true
       with Not_found -> false
     in
     has "check-violation-v1" && has "read-freshness");
  Alcotest.(check (option string)) "report parses, schedule intact"
    (Some (E.describe out.E.schedule))
    (Option.bind (Obs.Jsonx.parse report) (fun v ->
         Option.bind (Obs.Jsonx.member "schedule" v) Obs.Jsonx.str_of));
  (* The recorder is process-global and must refuse to nest. *)
  let h = Check.History.create () in
  Check.History.recording h (fun () ->
      Alcotest.check_raises "nested recording refused"
        (Invalid_argument
           "History.recording: already recording (recorder is global)")
        (fun () -> Check.History.recording (Check.History.create ()) ignore))

(* ------------------------------------------------------------------ *)
(* Quorum arithmetic properties (sections 5 and 6)                    *)
(* ------------------------------------------------------------------ *)

(* (n, b) with 4 <= n <= 16 and 1 <= b <= max_b n. *)
let nb_arb =
  QCheck.map
    ~rev:(fun (n, b) -> (n - 4, b - 1))
    (fun (ns, bs) ->
      let n = 4 + (ns mod 13) in
      let b = 1 + (bs mod Quorums.max_b ~n) in
      (n, b))
    QCheck.(pair small_nat small_nat)

let prop_context_quorums_intersect =
  QCheck.Test.make ~name:"context quorums intersect in >= b+1" ~count:500
    nb_arb (fun (n, b) ->
      let q = Quorums.context_quorum ~n ~b in
      q <= n
      && (2 * q) - n >= b + 1
      && Quorums.context_overlap ~n ~b = (2 * q) - n
      && Quorums.validate ~n ~b = Ok ())

let prop_mw_bounds =
  QCheck.Test.make ~name:"section 5.3 multi-writer set sizes" ~count:500
    nb_arb (fun (n, b) ->
      Quorums.write_set ~b = b + 1
      && Quorums.read_set ~b = b + 1
      && Quorums.mw_write_set ~b = (2 * b) + 1
      && Quorums.mw_read_quorum ~b = (2 * b) + 1
      && Quorums.mw_vouch ~b = b + 1
      && Quorums.mw_write_set ~b <= n
      (* a masking quorum never beats the paper's context quorum *)
      && Quorums.masking_quorum ~n ~b >= Quorums.context_quorum ~n ~b
      && Quorums.majority_quorum ~n <= Quorums.context_quorum ~n ~b)

let prop_validate_rejects_beyond_max_b =
  QCheck.Test.make ~name:"validate rejects b > max_b" ~count:100
    QCheck.(map (fun ns -> 4 + (ns mod 13)) small_nat)
    (fun n ->
      let over = Quorums.max_b ~n + 1 in
      match Quorums.validate ~n ~b:over with Ok () -> false | Error _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean history" `Quick test_oracle_clean;
          Alcotest.test_case "ctx-monotonic" `Quick test_oracle_ctx_monotonic;
          Alcotest.test_case "read-freshness" `Quick test_oracle_read_freshness;
          Alcotest.test_case "read-your-writes" `Quick
            test_oracle_read_your_writes;
          Alcotest.test_case "monotonic-reads" `Quick
            test_oracle_monotonic_reads;
          Alcotest.test_case "read-linkage" `Quick test_oracle_read_linkage;
          Alcotest.test_case "no-fork" `Quick test_oracle_no_fork;
          Alcotest.test_case "ctx-continuity" `Quick test_oracle_ctx_continuity;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "canary caught" `Quick test_canary_caught;
          Alcotest.test_case "violation names a trace" `Quick
            test_violation_names_a_trace;
          Alcotest.test_case "canary shrinks to crash" `Quick
            test_canary_shrinks_to_crash;
          Alcotest.test_case "seed reproduces history" `Quick
            test_seed_reproduces_history;
          Alcotest.test_case "chaos decision digest" `Quick
            test_chaos_decision_digest_deterministic;
          Alcotest.test_case "signing modes violation-free" `Quick
            test_signing_modes_clean;
          Alcotest.test_case "sweep is violation-free" `Quick test_sweep_clean;
          Alcotest.test_case "reconfig schedule shape" `Quick
            test_reconfig_schedule_shape;
          Alcotest.test_case "reconfig runs violation-free" `Quick
            test_reconfig_runs_clean;
          Alcotest.test_case "dispersal runs violation-free" `Quick
            test_dispersal_schedules_clean;
          Alcotest.test_case "history json + recording guard" `Quick
            test_history_json_and_recording_guard;
        ] );
      ( "quorums",
        [
          QCheck_alcotest.to_alcotest prop_context_quorums_intersect;
          QCheck_alcotest.to_alcotest prop_mw_bounds;
          QCheck_alcotest.to_alcotest prop_validate_rejects_beyond_max_b;
        ] );
    ]
