(* Keyspace sharding: the shard table, the client-side router (Direct
   world and live TCP), the sharded frame sub-protocol, and the
   open-loop workload planner. *)

let key_of name =
  Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("shard-" ^ name))

(* ---- Shardmap ----------------------------------------------------- *)

let sample_groups = List.init 200 (fun i -> Printf.sprintf "grp%d" i)

let test_shardmap_deterministic () =
  let a = Store.Shardmap.make ~seed:"alpha" ~shards:4 () in
  let b = Store.Shardmap.make ~seed:"alpha" ~shards:4 () in
  List.iter
    (fun g ->
      Alcotest.(check int)
        ("same seed, same owner: " ^ g)
        (Store.Shardmap.shard_of_group a g)
        (Store.Shardmap.shard_of_group b g))
    sample_groups;
  let c = Store.Shardmap.make ~seed:"beta" ~shards:4 () in
  Alcotest.(check bool) "different seed shuffles ownership" true
    (List.exists
       (fun g ->
         Store.Shardmap.shard_of_group a g <> Store.Shardmap.shard_of_group c g)
       sample_groups)

let test_shardmap_range () =
  let t = Store.Shardmap.make ~seed:"range" ~shards:5 () in
  List.iter
    (fun g ->
      let s = Store.Shardmap.shard_of_group t g in
      if s < 0 || s >= 5 then Alcotest.failf "shard %d out of range for %s" s g)
    sample_groups;
  let one = Store.Shardmap.make ~seed:"one" ~shards:1 () in
  List.iter
    (fun g ->
      Alcotest.(check int) "single shard owns all" 0
        (Store.Shardmap.shard_of_group one g))
    sample_groups

let test_shardmap_spread () =
  let t = Store.Shardmap.make ~seed:"spread" ~shards:4 () in
  let owned = Store.Shardmap.spread t ~groups:sample_groups in
  Alcotest.(check int) "spread sums to the sample" (List.length sample_groups)
    (Array.fold_left ( + ) 0 owned);
  Array.iteri
    (fun s c ->
      if c = 0 then
        Alcotest.failf "shard %d owns nothing over %d groups" s
          (List.length sample_groups))
    owned

let test_shardmap_signature () =
  let admin = key_of "admin" and other = key_of "other" in
  let t = Store.Shardmap.make ~seed:"signed" ~shards:3 () in
  Alcotest.(check bool) "unsigned never verifies" false
    (Store.Shardmap.verify t admin.Crypto.Rsa.public);
  let signed = Store.Shardmap.sign t admin in
  Alcotest.(check bool) "signed verifies" true
    (Store.Shardmap.verify signed admin.Crypto.Rsa.public);
  Alcotest.(check bool) "wrong admin rejected" false
    (Store.Shardmap.verify signed other.Crypto.Rsa.public);
  (* A doctored table (same signature, different shape) must not verify:
     the digest covers (version, seed, shards, vnodes). *)
  let doctored = Store.Shardmap.make ~version:2 ~seed:"signed" ~shards:3 () in
  Alcotest.(check bool) "digest binds the version" false
    (String.equal (Store.Shardmap.digest t) (Store.Shardmap.digest doctored))

let test_shardmap_codec () =
  let admin = key_of "admin" in
  let t =
    Store.Shardmap.sign
      (Store.Shardmap.make ~version:7 ~vnodes:32 ~seed:"codec" ~shards:6 ())
      admin
  in
  match Store.Shardmap.of_string (Store.Shardmap.to_string t) with
  | None -> Alcotest.fail "decode failed"
  | Some t' ->
    Alcotest.(check int) "version" t.Store.Shardmap.version t'.Store.Shardmap.version;
    Alcotest.(check string) "seed" t.Store.Shardmap.seed t'.Store.Shardmap.seed;
    Alcotest.(check int) "shards" t.Store.Shardmap.shards t'.Store.Shardmap.shards;
    Alcotest.(check int) "vnodes" t.Store.Shardmap.vnodes t'.Store.Shardmap.vnodes;
    Alcotest.(check bool) "signature survives" true
      (Store.Shardmap.verify t' admin.Crypto.Rsa.public);
    List.iter
      (fun g ->
        Alcotest.(check int) "ring rebuilt identically"
          (Store.Shardmap.shard_of_group t g)
          (Store.Shardmap.shard_of_group t' g))
      sample_groups;
    Alcotest.(check bool) "garbage rejected" true
      (Store.Shardmap.of_string "not a shard table" = None)

(* ---- Sharded frames and prebuilt buffers -------------------------- *)

let strip_len b = Bytes.sub_string b 4 (Bytes.length b - 4)

let test_frame_sharded_roundtrip () =
  let buf = Tcpnet.Frame.prebuilt_call ~shard:9 "payload!" in
  (match Tcpnet.Frame.parse_request (strip_len buf) with
  | Some { Tcpnet.Frame.id; shard; payload; trace = None } ->
    Alcotest.(check (option int)) "fresh id is 0" (Some 0) id;
    Alcotest.(check int) "shard" 9 shard;
    Alcotest.(check string) "payload" "payload!" payload
  | _ -> Alcotest.fail "expected a shard-9 call");
  Tcpnet.Frame.set_prebuilt_id buf 123456;
  (match Tcpnet.Frame.parse_request (strip_len buf) with
  | Some { Tcpnet.Frame.id; shard; payload; trace = None } ->
    Alcotest.(check (option int)) "patched id" (Some 123456) id;
    Alcotest.(check int) "shard untouched" 9 shard;
    Alcotest.(check string) "payload untouched" "payload!" payload
  | _ -> Alcotest.fail "expected a shard-9 call after patch");
  (* Without a shard the header still names one: shard 0. *)
  let plain = Tcpnet.Frame.prebuilt_call "p" in
  (match Tcpnet.Frame.parse_request (strip_len plain) with
  | Some { Tcpnet.Frame.id = Some 0; shard = 0; payload = "p"; trace = None } -> ()
  | _ -> Alcotest.fail "expected a shard-0 call");
  match Tcpnet.Frame.parse_request (Tcpnet.Frame.encode_oneway ~shard:3 "gossip") with
  | Some { Tcpnet.Frame.id = None; shard = 3; payload = "gossip"; trace = None } -> ()
  | _ -> Alcotest.fail "expected a shard-3 one-way"

let test_frame_shard_bounds () =
  Alcotest.check_raises "shard over 16 bits"
    (Invalid_argument "Frame: shard id out of range") (fun () ->
      ignore (Tcpnet.Frame.prebuilt_call ~shard:(Tcpnet.Frame.max_shard + 1) "x"));
  Alcotest.check_raises "negative shard"
    (Invalid_argument "Frame: shard id out of range") (fun () ->
      ignore (Tcpnet.Frame.encode_oneway ~shard:(-1) "x"));
  (* Truncated shard fields parse to None, not garbage. *)
  Alcotest.(check bool) "truncated call shard" true
    (Tcpnet.Frame.parse_request "\x01\x00\x00\x00\x00\x01\x00" = None);
  Alcotest.(check bool) "truncated oneway shard" true
    (Tcpnet.Frame.parse_request "\x00\x00\x00" = None)

(* ---- Router over the Direct world --------------------------------- *)

let sharded_world ~shards ~n ~b ~clients =
  let keyring = Store.Keyring.create () in
  List.iter
    (fun c -> Store.Keyring.register keyring c (key_of c).Crypto.Rsa.public)
    clients;
  let servers =
    Array.init (shards * n) (fun gid ->
        Store.Server.create ~id:gid ~keyring ~n ~b ())
  in
  let handlers dst ~from req =
    if dst >= 0 && dst < Array.length servers then
      Store.Server.handler servers.(dst) ~now:0.0 ~from req
    else None
  in
  (keyring, handlers)

let config_of_shard ~n ~b shard =
  {
    (Store.Client.default_config ~n ~b) with
    Store.Client.servers = Store.Router.shard_servers ~n shard;
  }

let test_router_shard_servers () =
  Alcotest.(check (list int)) "replica set of shard 2" [ 8; 9; 10; 11 ]
    (Store.Router.shard_servers ~n:4 2);
  Alcotest.(check (list int)) "shard 0 is the legacy set" [ 0; 1; 2; 3 ]
    (Store.Router.shard_servers ~n:4 0)

let test_router_routing_total () =
  let n = 4 and b = 1 in
  let table = Store.Shardmap.make ~seed:"routing" ~shards:3 () in
  let keyring, handlers =
    sharded_world ~shards:3 ~n ~b ~clients:[ "alice" ]
  in
  Sim.Direct.run ~handlers (fun () ->
      let r =
        Store.Router.create ~table ~uid:"alice" ~key:(key_of "alice") ~keyring
          ~config_of:(config_of_shard ~n ~b) ()
      in
      for i = 0 to 999 do
        let uid =
          Store.Uid.make
            ~group:(Printf.sprintf "g%d" (i mod 50))
            ~item:(Printf.sprintf "k%d" i)
        in
        let s = Store.Router.shard_of r uid in
        Alcotest.(check int)
          ("router agrees with the table: " ^ Store.Uid.to_string uid)
          (Store.Shardmap.shard_of_uid table uid)
          s;
        if s < 0 || s >= 3 then Alcotest.failf "uid %d routed to shard %d" i s
      done)

let test_router_read_your_writes () =
  let n = 4 and b = 1 in
  let shards = 2 in
  let table = Store.Shardmap.make ~seed:"ryw" ~shards () in
  let keyring, handlers =
    sharded_world ~shards ~n ~b ~clients:[ "alice"; "bob" ]
  in
  let groups = List.init 6 (fun g -> Printf.sprintf "ryw%d" g) in
  (* The sample must exercise both shards or the test proves nothing. *)
  List.iter
    (fun s ->
      if
        not
          (List.exists (fun g -> Store.Shardmap.shard_of_group table g = s) groups)
      then Alcotest.failf "no sample group on shard %d" s)
    (List.init shards Fun.id);
  Sim.Direct.run ~handlers (fun () ->
      let r =
        Store.Router.create ~table ~uid:"alice" ~key:(key_of "alice") ~keyring
          ~config_of:(config_of_shard ~n ~b) ()
      in
      (* Interleave writes across shard boundaries, reading back after
         each round: one shard's sessions must never disturb another's. *)
      for i = 1 to 4 do
        List.iter
          (fun g ->
            let uid = Store.Uid.make ~group:g ~item:"doc" in
            match
              Store.Router.write r ~uid (Printf.sprintf "%s@%d" g i)
            with
            | Ok () -> ()
            | Error e ->
              Alcotest.failf "write %s: %s" g (Store.Client.error_to_string e))
          groups;
        List.iter
          (fun g ->
            let uid = Store.Uid.make ~group:g ~item:"doc" in
            match Store.Router.read r ~uid with
            | Ok v ->
              Alcotest.(check string) ("read-your-writes on " ^ g)
                (Printf.sprintf "%s@%d" g i)
                v
            | Error e ->
              Alcotest.failf "read %s: %s" g (Store.Client.error_to_string e))
          groups
      done;
      Alcotest.(check int) "one session per touched group"
        (List.length groups)
        (List.length (Store.Router.sessions r));
      (match Store.Router.disconnect r with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "disconnect: %s" (Store.Client.error_to_string e));
      (* A second principal sees the writes through its own router. *)
      let rb =
        Store.Router.create ~table ~uid:"bob" ~key:(key_of "bob") ~keyring
          ~config_of:(config_of_shard ~n ~b) ()
      in
      List.iter
        (fun g ->
          let uid = Store.Uid.make ~group:g ~item:"doc" in
          match Store.Router.read rb ~uid with
          | Ok v ->
            Alcotest.(check string) ("cross-client read of " ^ g)
              (Printf.sprintf "%s@4" g) v
          | Error e ->
            Alcotest.failf "bob read %s: %s" g (Store.Client.error_to_string e))
        groups;
      ignore (Store.Router.disconnect rb))

let test_router_table_signature () =
  let n = 4 and b = 1 in
  let admin = key_of "admin" and rogue = key_of "rogue" in
  let table = Store.Shardmap.make ~seed:"sig" ~shards:2 () in
  let keyring, handlers = sharded_world ~shards:2 ~n ~b ~clients:[ "alice" ] in
  Sim.Direct.run ~handlers (fun () ->
      let make tbl =
        ignore
          (Store.Router.create ~admin:admin.Crypto.Rsa.public ~table:tbl
             ~uid:"alice" ~key:(key_of "alice") ~keyring
             ~config_of:(config_of_shard ~n ~b) ())
      in
      Alcotest.check_raises "unsigned table rejected"
        (Invalid_argument "Router.create: shard table signature invalid")
        (fun () -> make table);
      Alcotest.check_raises "rogue-signed table rejected"
        (Invalid_argument "Router.create: shard table signature invalid")
        (fun () -> make (Store.Shardmap.sign table rogue));
      (* The admin-signed table is accepted. *)
      make (Store.Shardmap.sign table admin))

(* The oracle must hold over a router-driven multi-shard history —
   globally and per shard (every session serves one group, so events
   partition cleanly by the shard of the uids they touch). *)
let test_router_oracle () =
  let n = 4 and b = 1 in
  let shards = 2 in
  let table = Store.Shardmap.make ~seed:"oracle" ~shards () in
  let keyring, handlers =
    sharded_world ~shards ~n ~b ~clients:[ "alice"; "bob" ]
  in
  let groups = List.init 8 (fun g -> Printf.sprintf "og%d" g) in
  let hist = Check.History.create () in
  Check.History.recording hist (fun () ->
      Sim.Direct.run ~handlers (fun () ->
          let ra =
            Store.Router.create ~table ~uid:"alice" ~key:(key_of "alice")
              ~keyring ~config_of:(config_of_shard ~n ~b) ()
          in
          for i = 0 to 3 do
            List.iter
              (fun g ->
                let uid =
                  Store.Uid.make ~group:g ~item:(Printf.sprintf "k%d" (i mod 2))
                in
                (match
                   Store.Router.write ra ~uid (Printf.sprintf "%s=%d" g i)
                 with
                | Ok () -> ()
                | Error e ->
                  Alcotest.failf "write: %s" (Store.Client.error_to_string e));
                if i land 1 = 1 then
                  match Store.Router.read ra ~uid with
                  | Ok _ -> ()
                  | Error e ->
                    Alcotest.failf "read: %s" (Store.Client.error_to_string e))
              groups
          done;
          ignore (Store.Router.disconnect ra);
          let rb =
            Store.Router.create ~table ~uid:"bob" ~key:(key_of "bob") ~keyring
              ~config_of:(config_of_shard ~n ~b) ()
          in
          List.iter
            (fun g ->
              for k = 0 to 1 do
                let uid = Store.Uid.make ~group:g ~item:(Printf.sprintf "k%d" k) in
                match Store.Router.read rb ~uid with
                | Ok _ -> ()
                | Error e ->
                  Alcotest.failf "bob read: %s" (Store.Client.error_to_string e)
              done)
            groups;
          ignore (Store.Router.disconnect rb)));
  let events = Check.History.events hist in
  Alcotest.(check (list string)) "no violations (combined)" []
    (List.map Check.Oracle.violation_to_string (Check.Oracle.check events));
  let session_shard = Hashtbl.create 32 in
  List.iter
    (fun (e : Store.Trace.event) ->
      match e.Store.Trace.kind with
      | Store.Trace.Write { uid; _ } | Store.Trace.Read { uid } ->
        if not (Hashtbl.mem session_shard (e.Store.Trace.client, e.Store.Trace.session))
        then
          Hashtbl.replace session_shard
            (e.Store.Trace.client, e.Store.Trace.session)
            (Store.Shardmap.shard_of_uid table uid)
      | _ -> ())
    events;
  List.iter
    (fun s ->
      let evs =
        List.filter
          (fun (e : Store.Trace.event) ->
            Hashtbl.find_opt session_shard
              (e.Store.Trace.client, e.Store.Trace.session)
            = Some s)
          events
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d history non-empty" s)
        true (evs <> []);
      Alcotest.(check (list string))
        (Printf.sprintf "no violations (shard %d)" s)
        []
        (List.map Check.Oracle.violation_to_string (Check.Oracle.check evs)))
    (List.init shards Fun.id)

(* ---- Router closes: one signature, no redundant write-backs -------- *)

type close_world = {
  keyring : Store.Keyring.t;
  servers : Store.Server.t array;
  down : (int, unit) Hashtbl.t;
  mutable ctx_writes : int;  (** context records delivered in [Ctx_write]s *)
  mutable ctx_sent : (int * string list) list;
      (** each delivered [Ctx_write]'s server and groups, newest first *)
}

let alice = lazy (key_of "alice")

let close_world ?server_config count =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" (Lazy.force alice).Crypto.Rsa.public;
  let servers =
    Array.init count (fun id ->
        Store.Server.create ?config:server_config ~id ~keyring ~n:4 ~b:1 ())
  in
  { keyring; servers; down = Hashtbl.create 4; ctx_writes = 0; ctx_sent = [] }

let close_handlers w dst ~from req =
  if dst < 0 || dst >= Array.length w.servers || Hashtbl.mem w.down dst then None
  else begin
    (match Store.Payload.decode_envelope req with
    | Some { Store.Payload.request = Store.Payload.Ctx_write { records; _ }; _ } ->
      w.ctx_writes <- w.ctx_writes + List.length records;
      w.ctx_sent <- (dst, List.map fst records) :: w.ctx_sent
    | _ -> ());
    Store.Server.handler w.servers.(dst) ~now:0.0 ~from req
  end

let stored_record ?(epoch = 0) w s group =
  match
    Store.Server.handle w.servers.(s) ~now:0.0 ~from:(-1)
      {
        Store.Payload.token = None;
        epoch;
        request = Store.Payload.Ctx_read { client = "alice"; group };
      }
  with
  | Some (Store.Payload.Ctx_reply r) -> r
  | _ -> None

let router ?(config_of = config_of_shard ~n:4 ~b:1) w table =
  Store.Router.create ~table ~uid:"alice" ~key:(Lazy.force alice)
    ~keyring:w.keyring ~config_of ()

let okr what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Store.Client.error_to_string e)

let signs_during f =
  Store.Metrics.reset ();
  let before = Store.Metrics.read () in
  let v = f () in
  (v, (Store.Metrics.diff (Store.Metrics.read ()) before).Store.Metrics.signs)

let test_router_close_signs_once () =
  let table = Store.Shardmap.make ~seed:"close" ~shards:2 () in
  let w = close_world 8 in
  let groups = List.init 10 (fun i -> Printf.sprintf "c%d" i) in
  Sim.Direct.run ~handlers:(close_handlers w) (fun () ->
      let r = router w table in
      List.iter
        (fun g -> okr "write" (Store.Router.write r ~uid:(Store.Uid.make ~group:g ~item:"x") g))
        groups;
      w.ctx_writes <- 0;
      w.ctx_sent <- [];
      let (), signs = signs_during (fun () -> okr "disconnect" (Store.Router.disconnect r)) in
      Alcotest.(check int) "one RSA signature closes ten dirty sessions" 1 signs;
      Alcotest.(check int) "every session written back to a quorum" 30 w.ctx_writes;
      Alcotest.(check bool) "one context round per shard" true
        (List.length w.ctx_sent <= 2 * Store.Quorums.context_quorum ~n:4 ~b:1);
      List.iter
        (fun g ->
          let s = 4 * Store.Shardmap.shard_of_group table g in
          match stored_record w s g with
          | Some ({ Store.Payload.evidence = Store.Payload.Batch _; _ } as rc) ->
            Alcotest.(check bool) ("record of " ^ g ^ " verifies") true
              (Store.Signing.verify_context w.keyring ~client:"alice" ~group:g rc)
          | _ -> Alcotest.failf "no batch-evidenced record for %s" g)
        groups;
      (* A router with nothing cached loads every context back. *)
      let fresh = router w table in
      List.iter
        (fun g ->
          let c = okr "connect" (Store.Router.session fresh ~group:g) in
          Alcotest.(check bool) ("context of " ^ g ^ " restored") true
            (Store.Context.mem (Store.Client.context c) (Store.Uid.make ~group:g ~item:"x")))
        groups)

let test_router_skips_held_contexts () =
  let table = Store.Shardmap.make ~seed:"held" ~shards:1 () in
  let w = close_world 4 in
  let uid = Store.Uid.make ~group:"h" ~item:"x" in
  Sim.Direct.run ~handlers:(close_handlers w) (fun () ->
      let r = router w table in
      okr "write" (Store.Router.write r ~uid "v");
      okr "first close" (Store.Router.disconnect r);
      let close_after r op =
        w.ctx_writes <- 0;
        op r;
        let (), signs = signs_during (fun () -> okr "close" (Store.Router.disconnect r)) in
        (signs, w.ctx_writes)
      in
      let read_back r =
        Alcotest.(check string) "reads back" "v" (okr "read" (Store.Router.read r ~uid))
      in
      Alcotest.(check (pair int int)) "reload by digest: no sign, no Ctx_write" (0, 0)
        (close_after r read_back);
      Alcotest.(check (pair int int)) "full reload: no sign, no Ctx_write" (0, 0)
        (close_after (router w table) read_back);
      (* A session whose context moved writes it back. *)
      let signs, writes =
        close_after r (fun r ->
            okr "write" (Store.Router.write r ~uid:(Store.Uid.make ~group:"h" ~item:"y") "w"))
      in
      Alcotest.(check int) "changed context signed once" 1 signs;
      Alcotest.(check bool) "changed context written back" true (writes > 0);
      (* With server 2 silent the connect finds the record on two
         servers only: fewer than the quorum, so it is written back. *)
      Hashtbl.replace w.down 2 ();
      let signs, writes = close_after r read_back in
      Alcotest.(check int) "rewritten with one signature" 1 signs;
      Alcotest.(check bool) "record on too few servers is rewritten" true (writes > 0))

let test_router_rewrites_after_epoch_change () =
  let admin = key_of "admin" in
  let server_config =
    {
      (Store.Server.default_config ~n:4 ~b:1) with
      Store.Server.epoch_admin = Some admin.Crypto.Rsa.public;
    }
  in
  let w = close_world ~server_config 6 in
  let force = function Ok e -> e | Error m -> Alcotest.fail m in
  let genesis =
    Store.Config_epoch.sign
      (force (Store.Config_epoch.genesis ~servers:[ 0; 1; 2; 3 ] ~b:1 ()))
      admin
  in
  Array.iter (fun s -> Store.Server.set_epoch s genesis) w.servers;
  let table = Store.Shardmap.make ~seed:"epoch" ~shards:1 () in
  let config_of shard =
    {
      (config_of_shard ~n:4 ~b:1 shard) with
      Store.Client.epoch_admin = Some admin.Crypto.Rsa.public;
    }
  in
  let uid = Store.Uid.make ~group:"e" ~item:"x" in
  Sim.Direct.run ~handlers:(close_handlers w) (fun () ->
      let r = router ~config_of w table in
      okr "write" (Store.Router.write r ~uid "v");
      okr "first close" (Store.Router.disconnect r);
      Alcotest.(check string) "reads back" "v" (okr "read" (Store.Router.read r ~uid));
      (* Servers 1 and 2 leave: the record, stored on 0, 1 and 2, is now
         on one current member. *)
      let e2 =
        Store.Config_epoch.sign
          (force (Store.Config_epoch.next genesis ~servers:[ 0; 3; 4; 5 ] ~b:1 ()))
          admin
      in
      Array.iter (fun s -> Store.Server.set_epoch s e2) w.servers;
      (* The session learns the new epoch on its next round; the read
         leaves its context unchanged. *)
      ignore (Store.Router.read r ~uid:(Store.Uid.make ~group:"e" ~item:"missing"));
      (match Store.Router.sessions r with
      | [ (_, c) ] ->
        Alcotest.(check (option int)) "session moved to epoch 2" (Some 2)
          (Option.map (fun e -> e.Store.Config_epoch.version) (Store.Client.epoch c))
      | _ -> Alcotest.fail "one open session");
      w.ctx_writes <- 0;
      okr "close" (Store.Router.disconnect r);
      Alcotest.(check bool) "context rewritten after the epoch change" true
        (w.ctx_writes > 0);
      let holders =
        List.filter
          (fun s ->
            match stored_record ~epoch:2 w s "e" with
            | Some rc -> rc.Store.Payload.seq = 2
            | None -> false)
          [ 0; 3; 4; 5 ]
      in
      Alcotest.(check bool) "a quorum of current members holds it" true
        (List.length holders >= Store.Quorums.context_quorum ~n:4 ~b:1))

let test_router_close_visits_every_session () =
  let table = Store.Shardmap.make ~seed:"visit" ~shards:2 () in
  let w = close_world 8 in
  let candidates = List.init 40 (fun i -> Printf.sprintf "v%d" i) in
  let on shard =
    List.filter (fun g -> Store.Shardmap.shard_of_group table g = shard) candidates
    |> List.filteri (fun i _ -> i < 3)
  in
  let healthy = on 0 and failing = on 1 in
  if List.length healthy < 3 || List.length failing < 3 then
    Alcotest.fail "sample groups do not cover both shards";
  Sim.Direct.run ~handlers:(close_handlers w) (fun () ->
      let r = router w table in
      List.iter
        (fun g -> okr "write" (Store.Router.write r ~uid:(Store.Uid.make ~group:g ~item:"x") g))
        (failing @ healthy);
      (* Shard 1 loses three replicas: its write-backs cannot reach a
         quorum, shard 0's still must be stored. *)
      List.iter (fun s -> Hashtbl.replace w.down s ()) [ 5; 6; 7 ];
      (match Store.Router.disconnect r with
      | Error (Store.Client.No_quorum _) -> ()
      | Ok () -> Alcotest.fail "a failed write-back went unreported"
      | Error e -> Alcotest.failf "unexpected error: %s" (Store.Client.error_to_string e));
      Alcotest.(check int) "all sessions closed" 0 (List.length (Store.Router.sessions r));
      List.iter
        (fun g ->
          let holders =
            List.filter (fun s -> stored_record w s g <> None) [ 0; 1; 2; 3 ]
          in
          Alcotest.(check bool) ("context of " ^ g ^ " stored") true
            (List.length holders >= 3))
        healthy)

(* Groups of [table] from [candidates] that land on [shard], at most [k]. *)
let groups_on table ~k shard candidates =
  List.filter (fun g -> Store.Shardmap.shard_of_group table g = shard) candidates
  |> List.filteri (fun i _ -> i < k)

(* Rewrite every [Ctx_write] on its way to the servers. *)
let rewriting_ctx_writes w f dst ~from req =
  match Store.Payload.decode_envelope req with
  | Some ({ Store.Payload.request = Store.Payload.Ctx_write { client; records }; _ } as env)
    ->
    close_handlers w dst ~from
      (Store.Payload.encode_envelope
         { env with request = Store.Payload.Ctx_write { client; records = f records } })
  | _ -> close_handlers w dst ~from req

(* A record whose batch proof is forged on the wire is refused by every
   server on its own: its session fails, and every other record of the
   same request still lands on a quorum. *)
let test_router_bad_record_fails_alone () =
  let table = Store.Shardmap.make ~seed:"alone" ~shards:2 () in
  let w = close_world 8 in
  let candidates = List.init 40 (fun i -> Printf.sprintf "a%d" i) in
  let groups = groups_on table ~k:3 0 candidates @ groups_on table ~k:3 1 candidates in
  if List.length groups < 6 then Alcotest.fail "sample groups do not cover both shards";
  let bad = List.hd groups in
  let forge (r : Store.Payload.ctx_record) =
    match r.evidence with
    | Store.Payload.Batch b ->
      let flip h = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) h in
      let path = List.map (fun (h, side) -> (flip h, side)) b.proof.Crypto.Merkle.path in
      { r with evidence = Store.Payload.Batch { b with proof = { b.proof with path } } }
    | Store.Payload.Sig _ | Store.Payload.Mac _ -> Alcotest.fail "expected batch evidence"
  in
  let tamper = List.map (fun (g, r) -> if g = bad then (g, forge r) else (g, r)) in
  Sim.Direct.run ~handlers:(rewriting_ctx_writes w tamper) (fun () ->
      let r = router w table in
      List.iter
        (fun g -> okr "write" (Store.Router.write r ~uid:(Store.Uid.make ~group:g ~item:"x") g))
        groups;
      (match Store.Router.disconnect r with
      | Error (Store.Client.No_quorum { got = 0; _ }) -> ()
      | Ok () -> Alcotest.fail "a refused record went unreported"
      | Error e -> Alcotest.failf "unexpected error: %s" (Store.Client.error_to_string e));
      Alcotest.(check int) "all sessions closed" 0 (List.length (Store.Router.sessions r));
      List.iter
        (fun g ->
          let base = 4 * Store.Shardmap.shard_of_group table g in
          let holders =
            List.filter (fun s -> stored_record w s g <> None) (List.init 4 (( + ) base))
          in
          if g = bad then Alcotest.(check int) "forged record stored nowhere" 0 (List.length holders)
          else
            Alcotest.(check bool) ("context of " ^ g ^ " on a quorum") true
              (List.length holders >= Store.Quorums.context_quorum ~n:4 ~b:1))
        groups)

(* Server 0 withholds one group's record (it answers it as refused):
   that record alone is short of its quorum, so the escalation carries
   only it. *)
let test_router_escalates_short_records () =
  let table = Store.Shardmap.make ~seed:"short" ~shards:1 () in
  let w = close_world 4 in
  let groups = [ "s0"; "s1"; "s2" ] in
  let withheld = "s1" in
  let handlers dst ~from req =
    let reply = close_handlers w dst ~from req in
    match (dst, Store.Payload.decode_envelope req, reply) with
    | 0, Some { Store.Payload.request = Store.Payload.Ctx_write { records; _ }; _ }, Some raw
      -> (
      match Store.Payload.decode_response raw with
      | Some (Store.Payload.Ctx_written verdicts) ->
        Some
          (Store.Payload.encode_response
             (Store.Payload.Ctx_written
                (List.map2
                   (fun (g, _) v -> if g = withheld then Store.Payload.Refused "withheld" else v)
                   records verdicts)))
      | _ -> reply)
    | _ -> reply
  in
  Sim.Direct.run ~handlers (fun () ->
      let r = router w table in
      List.iter
        (fun g -> okr "write" (Store.Router.write r ~uid:(Store.Uid.make ~group:g ~item:"x") g))
        groups;
      w.ctx_sent <- [];
      okr "close" (Store.Router.disconnect r);
      let q = Store.Quorums.context_quorum ~n:4 ~b:1 in
      let sent = List.rev w.ctx_sent in
      let first = List.filteri (fun i _ -> i < q) sent in
      let sorted = List.sort compare in
      List.iter
        (fun (_, gs) ->
          Alcotest.(check (list string)) "the first round carries every record" groups (sorted gs))
        first;
      Alcotest.(check (list (list string))) "the escalation carries only the short record"
        [ [ withheld ] ]
        (List.map snd (List.filteri (fun i _ -> i >= q) sent));
      Alcotest.(check bool) "escalated to a server outside the first round" true
        (List.for_all
           (fun (dst, _) -> not (List.mem_assoc dst first))
           (List.filteri (fun i _ -> i >= q) sent));
      let holders = List.filter (fun s -> stored_record w s withheld <> None) [ 1; 2; 3 ] in
      Alcotest.(check int) "withheld record on a quorum elsewhere" q (List.length holders))

(* ---- Router over live TCP: multi-shard hosting end to end --------- *)

(* Four hosts, each serving one replica of both shards on one port (the
   multi-shard hosting path: frames dispatch by shard id to per-shard
   server state). With [byzantine], host 2 runs Corrupt_value on shard 1
   only, the hosts gossip with each other and the client writes MAC-fast
   with a MAC secret per server: shard 1's own quorums must mask the
   replica, and shard 0 must not notice it at all. Readers spread their
   read sets (seeded), so the corrupt replica is read from, and collect
   per-shard fault evidence. *)
let live_sharded ~byzantine () =
  let n = 4 and b = 1 in
  let shards = 2 and seed = 42 in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" (key_of "alice").Crypto.Rsa.public;
  for gid = 0 to (shards * n) - 1 do
    Store.Keyring.register_mac keyring ~client:"alice" ~server:gid
      (Crypto.Sha256.digest (Printf.sprintf "live-mac!%d" gid))
  done;
  let servers =
    Array.init (shards * n) (fun gid ->
        Store.Server.create ~id:gid ~keyring ~n ~b ())
  in
  let ports = Array.init n (fun _ -> if byzantine then Ports.reserve () else 0) in
  let hosts =
    Array.init n (fun r ->
        let peers =
          if not byzantine then []
          else
            List.filteri (fun j _ -> j <> r)
              (Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
        in
        let specs =
          List.init shards (fun s ->
              {
                Tcpnet.Server_host.shard = s;
                server = servers.((s * n) + r);
                behavior =
                  (if byzantine && r = 2 && s = 1 then Store.Faults.Corrupt_value
                   else Store.Faults.Honest);
                peers;
              })
        in
        Tcpnet.Server_host.start_sharded ~gossip_period:0.2 ~shards:specs
          ~port:ports.(r) ())
  in
  Array.iter
    (fun h ->
      Alcotest.(check (list int)) "host serves both shards" [ 0; 1 ]
        (Tcpnet.Server_host.hosted_shards h))
    hosts;
  let eps = Array.map (fun h -> ("127.0.0.1", Tcpnet.Server_host.port h)) hosts in
  let endpoints gid =
    if gid >= 0 && gid < shards * n then Some eps.(gid mod n) else None
  in
  let table = Store.Shardmap.make ~seed:"live" ~shards () in
  let groups = List.init 8 (fun g -> Printf.sprintf "lv%d" g) in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "a group lands on shard %d" s) true
        (List.exists (fun g -> Store.Shardmap.shard_of_group table g = s) groups))
    [ 0; 1 ];
  let evidence =
    Array.init shards (fun s ->
        Store.Fault_evidence.create ~servers:(Store.Router.shard_servers ~n s) ~b)
  in
  let config_of s =
    {
      (config_of_shard ~n ~b s) with
      Store.Client.signing =
        (if byzantine then Store.Client.Mac_fast else Store.Client.Per_write_sig);
      read_spread = true;
      seed;
      evidence = Some evidence.(s);
    }
  in
  let fail what uid e =
    Alcotest.failf "seed %d: live %s %s (shard %d): %s" seed what
      (Store.Uid.to_string uid) (Store.Shardmap.shard_of_uid table uid)
      (Store.Client.error_to_string e)
  in
  Store.Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Array.iter Tcpnet.Server_host.stop hosts)
    (fun () ->
      Tcpnet.Live.run ~endpoints
        ~shard_of:(fun node -> Some (node / n))
        (fun () ->
          let r =
            Store.Router.create ~table ~uid:"alice" ~key:(key_of "alice")
              ~keyring ~config_of ()
          in
          for i = 1 to 8 do
            List.iter
              (fun g ->
                let uid = Store.Uid.make ~group:g ~item:(Printf.sprintf "k%d" (i mod 3)) in
                let value = Printf.sprintf "live-%s#%d" g i in
                (match Store.Router.write r ~uid value with
                | Ok () -> ()
                | Error e -> fail "write" uid e);
                match Store.Router.read r ~uid with
                | Ok v ->
                  Alcotest.(check string) (Printf.sprintf "seed %d: live %s" seed g) value v
                | Error e -> fail "read" uid e)
              groups
          done;
          ignore (Store.Router.disconnect r)));
  let failures s =
    match List.assoc_opt s (Store.Metrics.shard_client_stats ()) with
    | Some c -> c.Store.Metrics.shard_failures
    | None -> 0
  in
  Alcotest.(check int) (Printf.sprintf "seed %d: shard 0 op failures" seed) 0 (failures 0);
  Alcotest.(check (list int)) (Printf.sprintf "seed %d: shard 0 proven faulty" seed) []
    (Store.Fault_evidence.proven evidence.(0));
  Alcotest.(check (list int)) (Printf.sprintf "seed %d: shard 1 proven faulty" seed)
    (if byzantine then [ n + 2 ] else [])
    (Store.Fault_evidence.proven evidence.(1))

(* ---- Open-loop workload planner ----------------------------------- *)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf draw stays in [0, keys)" ~count:500
    QCheck.(pair (int_bound 999) (int_bound 9))
    (fun (u_mil, k) ->
      let keys = k + 1 in
      let z = Workload.Openloop.zipf ~keys ~theta:0.9 in
      let r = Workload.Openloop.draw z ~u:(float_of_int u_mil /. 1000.0) in
      r >= 0 && r < keys)

let test_zipf_skew () =
  let keys = 1000 in
  let z = Workload.Openloop.zipf ~keys ~theta:0.9 in
  let prng = Crypto.Prng.create ~seed:"zipf-skew" in
  let hits = Array.make keys 0 in
  for _ = 1 to 20_000 do
    let r = Workload.Openloop.draw z ~u:(Crypto.Prng.float_unit prng) in
    hits.(r) <- hits.(r) + 1
  done;
  let tail = Array.fold_left ( + ) 0 (Array.sub hits (keys / 2) (keys / 2)) in
  let top10 = Array.fold_left ( + ) 0 (Array.sub hits 0 10) in
  (* Uniform would put ~20 of the 20k draws on each rank; theta = 0.9
     puts ~5% on rank 0 and ~16% on the top ten. *)
  Alcotest.(check bool) "rank 0 is hot (>10x uniform)" true (hits.(0) > 200);
  Alcotest.(check bool) "top 10 ranks outweigh the whole tail half" true
    (top10 > tail)

let test_plan_deterministic_and_owned () =
  let mk () =
    Workload.Openloop.plan ~seed:"plan" ~keys:5000 ~theta:0.9 ~groups:16
      ~rate:200.0 ~duration:1.0 ~write_ratio:0.5 ~owned_groups:[ 1; 3; 5 ]
  in
  let a = mk () and b = mk () in
  Alcotest.(check int) "planned ops = rate * duration" 200 (Array.length a);
  Alcotest.(check bool) "plans are reproducible" true (a = b);
  Array.iteri
    (fun i (op : Workload.Openloop.op) ->
      let expect = float_of_int i /. 200.0 in
      if Float.abs (op.at -. expect) > 1e-9 then
        Alcotest.failf "op %d due at %f, want %f" i op.at expect;
      match op.kind with
      | Workload.Openloop.Write ->
        let g = Store.Uid.group op.uid in
        let gid = int_of_string (String.sub g 1 (String.length g - 1)) in
        if not (List.mem gid [ 1; 3; 5 ]) then
          Alcotest.failf "write %d landed in unowned group %d" i gid
      | Workload.Openloop.Read -> ())
    a

let test_summarize () =
  let s = Workload.Openloop.summarize [| 3.0; 1.0; 2.0; 4.0 |] in
  Alcotest.(check int) "count" 4 s.Workload.Openloop.count;
  Alcotest.(check (float 1e-9)) "p50 nearest-rank" 2.0 s.Workload.Openloop.p50_ns;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Workload.Openloop.max_ns;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Workload.Openloop.mean_ns;
  let z = Workload.Openloop.summarize [||] in
  Alcotest.(check int) "empty count" 0 z.Workload.Openloop.count

(* ---- Uid separator edge cases (qcheck round-trip) ----------------- *)

let test_uid_separators () =
  let none s =
    Alcotest.(check bool) ("rejects " ^ s) true (Store.Uid.of_string s = None)
  in
  List.iter none [ ""; "/"; "a/"; "/b"; "a//b"; "a/b/c"; "ab"; "//" ];
  match Store.Uid.of_string "a/b" with
  | Some u ->
    Alcotest.(check string) "group" "a" (Store.Uid.group u);
    Alcotest.(check string) "item" "b" (Store.Uid.item u)
  | None -> Alcotest.fail "a/b must parse"

let uid_part =
  QCheck.(
    map
      (fun s ->
        let s = if s = "" then "x" else s in
        String.map (fun c -> if c = '/' then '_' else c) s)
      small_string)

let prop_uid_roundtrip =
  QCheck.Test.make ~name:"uid to_string/of_string round-trip" ~count:500
    QCheck.(pair uid_part uid_part)
    (fun (g, i) ->
      let u = Store.Uid.make ~group:g ~item:i in
      match Store.Uid.of_string (Store.Uid.to_string u) with
      | Some u' -> Store.Uid.equal u u'
      | None -> false)

let prop_uid_parse_sound =
  QCheck.Test.make ~name:"of_string accepts exactly one clean separator"
    ~count:1000 QCheck.small_string (fun s ->
      match Store.Uid.of_string s with
      | Some u -> String.equal (Store.Uid.to_string u) s
      | None ->
        (* Rejection is only for strings no valid uid prints to. *)
        (match String.index_opt s '/' with
        | None -> true
        | Some i ->
          i = 0
          || i = String.length s - 1
          || String.contains_from s (i + 1) '/'))

let () =
  Alcotest.run "shard"
    [
      ( "shardmap",
        [
          Alcotest.test_case "deterministic" `Quick test_shardmap_deterministic;
          Alcotest.test_case "range" `Quick test_shardmap_range;
          Alcotest.test_case "spread" `Quick test_shardmap_spread;
          Alcotest.test_case "signature" `Quick test_shardmap_signature;
          Alcotest.test_case "codec" `Quick test_shardmap_codec;
        ] );
      ( "frames",
        [
          Alcotest.test_case "sharded roundtrip" `Quick
            test_frame_sharded_roundtrip;
          Alcotest.test_case "bounds" `Quick test_frame_shard_bounds;
        ] );
      ( "router",
        [
          Alcotest.test_case "shard servers" `Quick test_router_shard_servers;
          Alcotest.test_case "routing total" `Quick test_router_routing_total;
          Alcotest.test_case "read-your-writes" `Quick
            test_router_read_your_writes;
          Alcotest.test_case "table signature" `Quick
            test_router_table_signature;
          Alcotest.test_case "oracle clean" `Quick test_router_oracle;
          Alcotest.test_case "close signs once" `Quick test_router_close_signs_once;
          Alcotest.test_case "held contexts not rewritten" `Quick
            test_router_skips_held_contexts;
          Alcotest.test_case "rewrite after epoch change" `Quick
            test_router_rewrites_after_epoch_change;
          Alcotest.test_case "close visits every session" `Quick
            test_router_close_visits_every_session;
          Alcotest.test_case "bad record fails alone" `Quick
            test_router_bad_record_fails_alone;
          Alcotest.test_case "escalation sends short records" `Quick
            test_router_escalates_short_records;
          Alcotest.test_case "live sharded" `Slow (live_sharded ~byzantine:false);
          Alcotest.test_case "live sharded, byzantine shard" `Slow
            (live_sharded ~byzantine:true);
        ] );
      ( "openloop",
        [
          QCheck_alcotest.to_alcotest prop_zipf_in_range;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "plan" `Quick test_plan_deterministic_and_owned;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "uid",
        [
          Alcotest.test_case "separator edges" `Quick test_uid_separators;
          QCheck_alcotest.to_alcotest prop_uid_roundtrip;
          QCheck_alcotest.to_alcotest prop_uid_parse_sound;
        ] );
    ]
