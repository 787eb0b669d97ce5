(* Networked-transport tests: frame codec and full client sessions over
   real loopback sockets (the third interpreter of the Runtime effects). *)

let key_of name =
  Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("tk-" ^ name))

let alice_key = key_of "alice"
let bob_key = key_of "bob"

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      Unix.close b)
    (fun () ->
      let payloads = [ ""; "x"; String.make 100_000 'q'; "\x00\x01\xff" ] in
      List.iter
        (fun p ->
          Tcpnet.Frame.write_frame a p;
          match Tcpnet.Frame.read_frame b with
          | Some p' -> Alcotest.(check string) "frame roundtrip" p p'
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Unix.close a;
      Alcotest.(check bool) "EOF" true (Tcpnet.Frame.read_frame b = None))

let test_frame_oversize_rejected () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      Unix.close b)
    (fun () ->
      (* A length prefix over the cap must be refused without allocating. *)
      let evil = "\x7f\xff\xff\xff" in
      ignore (Unix.write_substring a evil 0 4);
      Unix.close a;
      Alcotest.(check bool) "oversize rejected" true (Tcpnet.Frame.read_frame b = None))

let test_pipelined_codec () =
  (* Pure codec roundtrips for the correlation-id sub-protocol. *)
  let open Tcpnet.Frame in
  (match parse_request (encode_call ~id:77 "payload") with
  | Some { id = Some 77; shard = 0; trace = None; payload = "payload" } -> ()
  | _ -> Alcotest.fail "call roundtrip");
  (match parse_request (encode_oneway "gossip") with
  | Some { id = None; shard = 0; trace = None; payload = "gossip" } -> ()
  | _ -> Alcotest.fail "oneway roundtrip");
  (match parse_response (encode_reply ~id:max_id (Some "r")) with
  | Some (Reply { id; payload = Some "r" }) ->
    Alcotest.(check int) "max id" max_id id
  | _ -> Alcotest.fail "reply roundtrip");
  (match parse_response (encode_reply ~id:3 None) with
  | Some (Reply { id = 3; payload = None }) -> ()
  | _ -> Alcotest.fail "no-reply roundtrip");
  (match parse_response (encode_reject ~id:9 "bad") with
  | Some (Reject { id = 9; message = "bad" }) -> ()
  | _ -> Alcotest.fail "reject roundtrip");
  (match parse_response (encode_conn_error "oops") with
  | Some (Conn_error "oops") -> ()
  | _ -> Alcotest.fail "conn-error roundtrip");
  Alcotest.(check bool) "unknown kind" true (parse_request "\xff\x00\x00\x00" = None);
  Alcotest.(check bool) "empty" true (parse_request "" = None);
  Alcotest.(check bool) "short call header" true (parse_request "\x01\x00\x00" = None)

let test_traced_codec () =
  let open Tcpnet.Frame in
  let ctx =
    {
      trace = String.init trace_id_bytes (fun i -> Char.chr (i * 7 land 0xff));
      span = 0x1234_5678_9abc;
      flags = 3;
    }
  in
  (match parse_request (encode_call ~id:42 ~trace:ctx "pay") with
  | Some { id = Some 42; shard = 0; trace = Some c; payload = "pay" } ->
    Alcotest.(check bool) "call ctx roundtrips" true (c = ctx)
  | _ -> Alcotest.fail "traced call roundtrip");
  (match parse_request (encode_oneway ~trace:ctx "g") with
  | Some { id = None; shard = 0; trace = Some c; payload = "g" } ->
    Alcotest.(check bool) "oneway ctx roundtrips" true (c = ctx)
  | _ -> Alcotest.fail "traced oneway roundtrip");
  (match parse_request (encode_oneway ~shard:9 ~trace:ctx "g") with
  | Some { id = None; shard = 9; trace = Some c; payload = "g" } ->
    Alcotest.(check bool) "sharded oneway ctx roundtrips" true (c = ctx)
  | _ -> Alcotest.fail "traced sharded oneway roundtrip");
  (* The broadcast fast path must carry the context too. *)
  let pb = prebuilt_call ~shard:3 ~trace:ctx "body" in
  set_prebuilt_id pb 7;
  let s = Bytes.to_string pb in
  (match parse_request (String.sub s 4 (String.length s - 4)) with
  | Some { id = Some 7; shard = 3; trace = Some c; payload = "body" } ->
    Alcotest.(check bool) "prebuilt ctx roundtrips" true (c = ctx)
  | _ -> Alcotest.fail "traced prebuilt roundtrip");
  (match parse_request (encode_call ~id:3 "p") with
  | Some { trace = None; _ } -> ()
  | _ -> Alcotest.fail "untraced frame must carry no ctx");
  (* A wrong-length trace id is the sender's bug — refuse to encode. *)
  Alcotest.check_raises "short trace id refused at encode"
    (Invalid_argument "Frame: trace id must be 16 bytes") (fun () ->
      ignore (encode_call ~id:4 ~trace:{ ctx with trace = "short" } "p"))

let traced_codec_qcheck =
  QCheck.Test.make ~name:"traced frames round-trip any ctx and payload"
    ~count:300
    QCheck.(
      pair
        (pair (string_of_size Gen.(0 -- 64)) (string_of_size (Gen.return 16)))
        (pair (pair (int_bound 0x3fffffff) (int_bound 0x3fffffff))
           (int_bound 255)))
    (fun ((payload, trace), ((hi, lo), flags)) ->
      let open Tcpnet.Frame in
      let ctx = { trace; span = (hi lsl 31) lor lo; flags } in
      let call =
        match parse_request (encode_call ~id:11 ~trace:ctx payload) with
        | Some { id = Some 11; shard = 0; trace = Some c; payload = p } ->
          p = payload && c = ctx
        | _ -> false
      in
      let oneway =
        match parse_request (encode_oneway ~shard:2 ~trace:ctx payload) with
        | Some { id = None; shard = 2; trace = Some c; payload = p } ->
          p = payload && c = ctx
        | _ -> false
      in
      call && oneway)

(* A request drawn over the header's whole space: kind (id or none),
   shard (edges included), trace (absent or any context) and payload. *)
let request_arb =
  let open QCheck in
  let ctx =
    Gen.(
      map3
        (fun trace span flags -> { Tcpnet.Frame.trace; span; flags })
        (string_size ~gen:char (return Tcpnet.Frame.trace_id_bytes))
        (map2 (fun hi lo -> (hi lsl 31) lor lo) (int_bound 0x3fffffff)
           (int_bound 0x3fffffff))
        (int_bound 255))
  in
  let gen =
    Gen.(
      map4
        (fun id shard trace payload -> { Tcpnet.Frame.id; shard; trace; payload })
        (opt (int_bound Tcpnet.Frame.max_id))
        (oneof
           [ return 0; return Tcpnet.Frame.max_shard;
             int_bound Tcpnet.Frame.max_shard ])
        (opt ctx)
        (string_size ~gen:char (0 -- 64)))
  in
  make gen

let encode (r : Tcpnet.Frame.request) =
  let open Tcpnet.Frame in
  match r.id with
  | Some id -> encode_call ~id ~shard:r.shard ?trace:r.trace r.payload
  | None -> encode_oneway ~shard:r.shard ?trace:r.trace r.payload

let header_roundtrip_qcheck =
  QCheck.Test.make ~name:"request header round-trips" ~count:500 request_arb
    (fun r ->
      let open Tcpnet.Frame in
      let direct = parse_request (encode r) = Some r in
      (* The broadcast path: built with id 0, patched to the drawn id. *)
      let prebuilt =
        match r.id with
        | None -> true
        | Some id ->
          let pb = prebuilt_call ~shard:r.shard ?trace:r.trace r.payload in
          let fresh = Bytes.sub_string pb 4 (Bytes.length pb - 4) in
          set_prebuilt_id pb id;
          let patched = Bytes.sub_string pb 4 (Bytes.length pb - 4) in
          parse_request fresh = Some { r with id = Some 0 }
          && parse_request patched = Some r
          && patched = encode r
      in
      direct && prebuilt)

(* Hostile input: no strict prefix of a valid request's header parses
   (the payload runs to the end of the frame, so cutting into it only
   shortens the payload), nor does a frame whose kind is unknown or whose
   flags set any bit but the trace bit — and none of them raises. *)
let header_hostile_qcheck =
  QCheck.Test.make ~name:"request header refuses prefixes and unknown bits"
    ~count:300
    QCheck.(pair request_arb (pair (int_range 2 255) (int_range 1 127)))
    (fun (r, (kind, flag_bits)) ->
      let wire = encode r in
      let prefixes_refused =
        List.for_all
          (fun len -> Tcpnet.Frame.parse_request (String.sub wire 0 len) = None)
          (List.init
             (String.length wire - String.length r.Tcpnet.Frame.payload)
             Fun.id)
      in
      let with_byte i c =
        let b = Bytes.of_string wire in
        Bytes.set b i (Char.chr c);
        Tcpnet.Frame.parse_request (Bytes.to_string b)
      in
      prefixes_refused
      && with_byte 0 kind = None
      && with_byte 1 ((flag_bits lsl 1) lor Char.code wire.[1]) = None)

(* An n-server loopback cluster. With [gossip_period] every host gossips
   with all the others, so the ports are reserved up front for each host
   to name its peers. *)
let with_cluster ?(n = 4) ?(b = 1) ?(behavior = fun _ -> Store.Faults.Honest)
    ?gossip_period ?config fn =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  Store.Keyring.register keyring "bob" bob_key.Crypto.Rsa.public;
  let servers =
    Array.init n (fun id -> Store.Server.create ?config ~id ~keyring ~n ~b ())
  in
  let ports =
    Array.init n (fun _ -> if gossip_period = None then 0 else Ports.reserve ())
  in
  let hosts =
    Array.mapi
      (fun i server ->
        let gossip =
          Option.map
            (fun period ->
              let peers =
                List.filteri (fun j _ -> j <> i)
                  (Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
              in
              { Tcpnet.Server_host.peers; period })
            gossip_period
        in
        Tcpnet.Server_host.start ?gossip ~behavior:(behavior i) ~server
          ~port:ports.(i) ())
      servers
  in
  let eps = Array.map (fun h -> ("127.0.0.1", Tcpnet.Server_host.port h)) hosts in
  let endpoints id = if id >= 0 && id < n then Some eps.(id) else None in
  Fun.protect
    ~finally:(fun () -> Array.iter Tcpnet.Server_host.stop hosts)
    (fun () -> fn ~keyring ~endpoints ~hosts ~servers ~n ~b)

let connect ~keyring ~n ~b ?(timeout = 2.0) name key =
  let config = { (Store.Client.default_config ~n ~b) with Store.Client.timeout } in
  match Store.Client.connect ~config ~uid:name ~key ~keyring ~group:"net" () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Store.Client.error_to_string e)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %s" (Store.Client.error_to_string e)

let test_live_write_read () =
  with_cluster (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = connect ~keyring ~n ~b "alice" alice_key in
          ok (Store.Client.write alice ~item:"x" "over tcp");
          Alcotest.(check string) "read" "over tcp" (ok (Store.Client.read alice ~item:"x"));
          ok (Store.Client.disconnect alice);
          (* A second session restores the context from the store. *)
          let again = connect ~keyring ~n ~b "alice" alice_key in
          Alcotest.(check string) "cross-session" "over tcp"
            (ok (Store.Client.read again ~item:"x"))))

let test_live_other_reader () =
  with_cluster (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = connect ~keyring ~n ~b "alice" alice_key in
          ok (Store.Client.write alice ~item:"news" "hello bob");
          let bob = connect ~keyring ~n ~b "bob" bob_key in
          Alcotest.(check string) "bob reads" "hello bob"
            (ok (Store.Client.read bob ~item:"news"))))

(* The multi-writer data class (section 5.3) over real sockets: two
   writers of one item behind the malicious-client guard, each reading
   back the other's newest value. A read ships the value once, from one
   server, plus the stamps of the 2b+1 polled servers. *)
let test_live_multi_writer () =
  let config =
    { (Store.Server.default_config ~n:4 ~b:1) with
      Store.Server.malicious_client_guard = true
    }
  in
  with_cluster ~config (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let session name key =
            let config =
              { (Store.Client.default_config ~n ~b) with
                Store.Client.timeout = 2.0;
                mode = Store.Client.Multi_writer
              }
            in
            match
              Store.Client.connect ~config ~uid:name ~key ~keyring ~group:"net" ()
            with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect: %s" (Store.Client.error_to_string e)
          in
          let alice = session "alice" alice_key and bob = session "bob" bob_key in
          let size = 8192 in
          (* 2b+1 polled servers, each listing its current stamp and a
             full log, at under 64 bytes a multi-writer stamp *)
          let log_depth = (Store.Server.default_config ~n ~b).Store.Server.log_depth in
          let stamp_bytes = ((2 * b) + 1) * (log_depth + 1) * 64 in
          let round i (writer, wname) (reader, rname) =
            let value = String.make size (Char.chr (Char.code 'a' + i)) in
            ok (Store.Client.write writer ~item:"shared" value);
            Store.Metrics.reset ();
            Alcotest.(check string)
              (Printf.sprintf "%s reads %s's write %d" rname wname i)
              value
              (ok (Store.Client.read reader ~item:"shared"));
            let bytes = (Store.Metrics.read ()).Store.Metrics.bytes in
            let bound = (size * 12 / 10) + stamp_bytes in
            if bytes > bound then
              Alcotest.failf "read %d moved %d bytes, over %d (1.2x a %d-byte value plus stamps)"
                i bytes bound size
          in
          for i = 0 to 5 do
            if i mod 2 = 0 then round i (alice, "alice") (bob, "bob")
            else round i (bob, "bob") (alice, "alice")
          done))

let test_live_crash_tolerated () =
  with_cluster (fun ~keyring ~endpoints ~hosts ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = connect ~timeout:0.5 ~keyring ~n ~b "alice" alice_key in
          ok (Store.Client.write alice ~item:"x" "v1");
          (* Kill the last server: within the b=1 bound. *)
          Tcpnet.Server_host.stop hosts.(n - 1);
          Alcotest.(check string) "read with crash" "v1"
            (ok (Store.Client.read alice ~item:"x"));
          ok (Store.Client.write alice ~item:"x" "v2");
          Alcotest.(check string) "write with crash" "v2"
            (ok (Store.Client.read alice ~item:"x"))))

let test_gossip_over_tcp () =
  let n = 4 and b = 1 in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let servers = Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ()) in
  (* Start hosts first without gossip to learn ports, then wire a second
     fleet is overkill: instead start sequentially with known ports. *)
  let hosts = Array.make n None in
  let port_of i = match hosts.(i) with Some h -> Tcpnet.Server_host.port h | None -> 0 in
  Array.iteri
    (fun i server -> hosts.(i) <- Some (Tcpnet.Server_host.start ~server ~port:0 ()))
    servers;
  let eps = Array.init n (fun i -> ("127.0.0.1", port_of i)) in
  (* Re-start server 0 host's gossip by pushing manually: exercise the
     push path through a one-way frame. *)
  let uid = Store.Uid.make ~group:"net" ~item:"g" in
  let w =
    Store.Signing.sign_write ~key:alice_key ~writer:"alice" ~uid
      ~stamp:(Store.Stamp.scalar 5) "gossiped"
  in
  let payload =
    Store.Payload.encode_envelope
      { Store.Payload.token = None; epoch = 0; request = Store.Payload.Gossip_push { writes = [ w ]; have = []; epoch = None } }
  in
  let host, port = eps.(2) in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Tcpnet.Frame.write_frame fd (Tcpnet.Frame.encode_oneway payload);
  Unix.close fd;
  (* One-way delivery is asynchronous; poll briefly. *)
  let rec wait tries =
    if Store.Server.current_write servers.(2) uid <> None then true
    else if tries = 0 then false
    else begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  let delivered = wait 100 in
  Array.iter (function Some h -> Tcpnet.Server_host.stop h | None -> ()) hosts;
  Alcotest.(check bool) "gossip push delivered over tcp" true delivered

(* A host with no gossip peers must not keep every accepted write in its
   gossip buffer (and every snapshot) forever: one gossip period after
   the writes, nothing is pending. *)
let test_peerless_gossip_bounded () =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let period = 0.2 in
  let host =
    Tcpnet.Server_host.start
      ~gossip:{ Tcpnet.Server_host.peers = []; period }
      ~server ~port:0 ()
  in
  let ep = ("127.0.0.1", Tcpnet.Server_host.port host) in
  let endpoints id = if id = 0 then Some ep else None in
  Fun.protect
    ~finally:(fun () -> Tcpnet.Server_host.stop host)
    (fun () ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = connect ~keyring ~n:1 ~b:0 "alice" alice_key in
          for i = 1 to 200 do
            ok (Store.Client.write alice ~item:(string_of_int (i mod 7))
                  (string_of_int i))
          done);
      Thread.delay (period *. 1.5);
      Alcotest.(check int) "nothing pending" 0
        (Store.Server.gossip_pending server))

(* A live gossip push carries the new writes and no per-item summary,
   so its size does not grow with the number of items the shard stores:
   one fresh write pushed from a host storing 1,000 items costs the same
   bytes as from a host storing 10. *)
let test_push_size_flat_in_items () =
  let n = 4 and b = 1 in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let write ~item value =
    Store.Signing.sign_write ~key:alice_key ~writer:"alice"
      ~uid:(Store.Uid.make ~group:"net" ~item) ~stamp:(Store.Stamp.scalar 1) value
  in
  let put server w =
    match
      Store.Server.handle server ~now:0.0 ~from:(-1)
        {
          Store.Payload.token = None; epoch = 0;
          request = Store.Payload.Write_req w;
        }
    with
    | Some Store.Payload.Ack -> ()
    | _ -> Alcotest.fail "preload write refused"
  in
  let fresh = write ~item:"fresh" "the one new write" in
  let bytes_per_push items =
    let server = Store.Server.create ~id:0 ~keyring ~n ~b () in
    for i = 1 to items do
      put server (write ~item:(Printf.sprintf "k%04d" i) (Printf.sprintf "v%04d" i))
    done;
    ignore (Store.Server.take_gossip_buffer server);
    put server fresh;
    let peer = Store.Server.create ~id:1 ~keyring ~n ~b () in
    let peer_host = Tcpnet.Server_host.start ~server:peer ~port:0 () in
    let before = Store.Metrics.read () in
    let host =
      Tcpnet.Server_host.start
        ~gossip:
          {
            Tcpnet.Server_host.peers = [ ("127.0.0.1", Tcpnet.Server_host.port peer_host) ];
            period = 0.05;
          }
        ~server ~port:0 ()
    in
    let rec wait tries =
      let d = Store.Metrics.diff (Store.Metrics.read ()) before in
      if d.messages >= 1 && Store.Server.current_write peer fresh.uid <> None then Some d
      else if tries = 0 then None
      else begin
        Thread.delay 0.02;
        wait (tries - 1)
      end
    in
    let pushed = wait 250 in
    Tcpnet.Server_host.stop host;
    Tcpnet.Server_host.stop peer_host;
    match pushed with
    | Some d -> d.bytes / d.messages
    | None -> Alcotest.failf "no push from the %d-item host" items
  in
  let small = bytes_per_push 10 in
  let large = bytes_per_push 1000 in
  if abs (large - small) > 8 then
    Alcotest.failf "push grew with the item count: %d bytes at 10 items, %d at 1000" small large

(* --- pooled transport ---------------------------------------------------- *)

let read_query_payload =
  Store.Payload.encode_envelope
    {
      Store.Payload.token = None; epoch = 0;
      request =
        Store.Payload.Read_query
          { uid = Store.Uid.make ~group:"net" ~item:"x"; ship = false };
    }

(* A server that accepts connections and never replies: requests park in
   the pending table until their deadline. *)
let blackhole () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 16;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let stop = ref false in
  let accepted = ref [] in
  let th =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.accept listener with
          | fd, _ -> accepted := fd :: !accepted
          | exception _ -> ()
        done)
      ()
  in
  let teardown () =
    stop := true;
    (* shutdown, not just close: close alone does not wake a thread
       blocked in [accept], and the join below would hang forever. *)
    (try Unix.shutdown listener Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close listener with _ -> ());
    Thread.join th;
    List.iter (fun fd -> try Unix.close fd with _ -> ()) !accepted
  in
  (port, teardown)

let live_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_no_fd_leak_on_timeouts () =
  (* Regression for the legacy leak: per-call threads kept fds alive
     after the deadline. 100 timed-out calls through the pool must not
     grow the process fd table — one pooled connection serves them all,
     and abandoned requests are dropped at completion. *)
  let port, teardown = blackhole () in
  Fun.protect ~finally:teardown (fun () ->
      let pool = Tcpnet.Pool.create () in
      let ep = ("127.0.0.1", port) in
      (* First call dials the pooled connection; count fds after that. *)
      ignore (Tcpnet.Pool.call pool ~timeout:0.01 ep read_query_payload);
      let before = live_fds () in
      for _ = 1 to 100 do
        match Tcpnet.Pool.call pool ~timeout:0.01 ep read_query_payload with
        | Tcpnet.Pool.Dropped -> ()
        | _ -> Alcotest.fail "blackhole call should time out"
      done;
      let after = live_fds () in
      Alcotest.(check bool)
        (Printf.sprintf "fd growth bounded (%d -> %d)" before after)
        true
        (after - before <= 2);
      Alcotest.(check int) "no abandoned in-flight requests" 0
        (Tcpnet.Pool.in_flight pool);
      Alcotest.(check int) "single pooled connection" 1
        (Tcpnet.Pool.connection_count pool ep);
      Tcpnet.Pool.shutdown pool)

(* Replies in reverse order of the requests on one connection: the
   correlation id, not arrival order, matches replies to callers. *)
let test_pipelined_out_of_order () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 4;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (* The server keeps its end open until after the asserts: closing it
     early would let the pool's reader see EOF and unlink the connection
     before the "one shared connection" check runs. *)
  let server_fd = ref None in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        server_fd := Some fd;
        let reqs =
          List.init 2 (fun _ ->
              match Tcpnet.Frame.read_frame fd with
              | Some frame -> (
                match Tcpnet.Frame.parse_request frame with
                | Some { Tcpnet.Frame.id = Some id; payload; _ } -> (id, payload)
                | _ -> Alcotest.fail "expected pipelined call")
              | None -> Alcotest.fail "unexpected EOF")
        in
        List.iter
          (fun (id, payload) ->
            Tcpnet.Frame.write_frame fd
              (Tcpnet.Frame.encode_reply ~id (Some ("echo:" ^ payload))))
          (List.rev reqs))
      ()
  in
  let pool = Tcpnet.Pool.create ~max_connections_per_endpoint:1 () in
  let ep = ("127.0.0.1", port) in
  let result = Array.make 2 Tcpnet.Pool.Dropped in
  let callers =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            (* Stagger so both are in flight on the single connection
               before the server replies to either. *)
            if i = 1 then Thread.delay 0.02;
            result.(i) <-
              Tcpnet.Pool.call pool ~timeout:2.0 ep (Printf.sprintf "req%d" i))
          ())
  in
  List.iter Thread.join callers;
  Thread.join server;
  Array.iteri
    (fun i r ->
      match r with
      | Tcpnet.Pool.Reply p ->
        Alcotest.(check string) "correlated reply" (Printf.sprintf "echo:req%d" i) p
      | _ -> Alcotest.fail "expected a reply")
    result;
  Alcotest.(check int) "one shared connection" 1
    (Tcpnet.Pool.connection_count pool ep);
  Tcpnet.Pool.shutdown pool;
  (match !server_fd with Some fd -> (try Unix.close fd with _ -> ()) | None -> ());
  Unix.close listener

let test_framed_errors () =
  with_cluster (fun ~keyring:_ ~endpoints:_ ~hosts ~servers:_ ~n:_ ~b:_ ->
      let ep = ("127.0.0.1", Tcpnet.Server_host.port hosts.(0)) in
      (* An unparsable frame gets a framed connection error, not a
         silent drop, and the connection keeps serving. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, snd ep));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Tcpnet.Frame.write_frame fd "\xee\xff";
          (match Tcpnet.Frame.read_frame fd with
          | Some frame -> (
            match Tcpnet.Frame.parse_response frame with
            | Some (Tcpnet.Frame.Conn_error _) -> ()
            | _ -> Alcotest.fail "expected framed connection error")
          | None -> Alcotest.fail "server dropped instead of replying");
          (* Still in sync: a well-formed call on the same connection works. *)
          Tcpnet.Frame.write_frame fd
            (Tcpnet.Frame.encode_call ~id:5 read_query_payload);
          match Tcpnet.Frame.read_frame fd with
          | Some frame -> (
            match Tcpnet.Frame.parse_response frame with
            | Some (Tcpnet.Frame.Reply { id = 5; payload = Some _ }) -> ()
            | _ -> Alcotest.fail "expected reply after error")
          | None -> Alcotest.fail "connection died after framed error");
      (* A malformed envelope inside a well-formed call is rejected with
         a message — the pool distinguishes it from a dead connection. *)
      let pool = Tcpnet.Pool.create () in
      (match Tcpnet.Pool.call pool ~timeout:2.0 ep "not-an-envelope" with
      | Tcpnet.Pool.Rejected _ -> ()
      | Tcpnet.Pool.Reply _ -> Alcotest.fail "garbage accepted"
      | Tcpnet.Pool.No_reply | Tcpnet.Pool.Dropped ->
        Alcotest.fail "rejection not distinguishable from drop");
      Tcpnet.Pool.shutdown pool)

let test_pool_reconnect () =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host1 = Tcpnet.Server_host.start ~server ~port:0 () in
  let port = Tcpnet.Server_host.port host1 in
  let ep = ("127.0.0.1", port) in
  let pool = Tcpnet.Pool.create () in
  (match Tcpnet.Pool.call pool ~timeout:2.0 ep read_query_payload with
  | Tcpnet.Pool.Reply _ -> ()
  | _ -> Alcotest.fail "first call should succeed");
  let before = (Store.Metrics.read ()).Store.Metrics.tcp_reconnects in
  Tcpnet.Server_host.stop host1;
  (* Restart on the same port: the pool must notice the dead connection
     and transparently redial. *)
  let host2 = Tcpnet.Server_host.start ~server ~port () in
  let rec until tries =
    match Tcpnet.Pool.call pool ~timeout:0.5 ep read_query_payload with
    | Tcpnet.Pool.Reply _ -> true
    | _ ->
      if tries = 0 then false
      else begin
        Thread.delay 0.05;
        until (tries - 1)
      end
  in
  let reconnected = until 40 in
  let after = (Store.Metrics.read ()).Store.Metrics.tcp_reconnects in
  Tcpnet.Server_host.stop host2;
  Tcpnet.Pool.shutdown pool;
  Alcotest.(check bool) "calls succeed after restart" true reconnected;
  Alcotest.(check bool) "a reconnect was counted" true (after > before)

(* A refused dial is one RPC failure like any other. With
   [suspect_after:1] the first one suspects the endpoint; after that only
   the pool's probes dial, and each refused probe doubles the suspicion
   window from the base up to the cap. Each window is read from
   [Pool.health]: the failure that armed it happened between the last
   read showing the old [down_until] and the first showing the new one,
   so [down_until] minus those two read times brackets the window. *)
let test_suspicion_cap () =
  let base = 0.05 and cap = 0.2 in
  let pool =
    Tcpnet.Pool.create ~suspect_after:1 ~suspect_base:base ~suspect_max:cap ()
  in
  let ep =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false
    in
    Unix.close s (* bound but never listening: connects are refused *);
    ("127.0.0.1", port)
  in
  let read () =
    let t0 = Unix.gettimeofday () in
    let h =
      match Tcpnet.Pool.health pool with
      | [ h ] -> h
      | hs -> Alcotest.failf "expected one endpoint, got %d" (List.length hs)
    in
    (t0, h, Unix.gettimeofday ())
  in
  let t0 = Unix.gettimeofday () in
  (match Tcpnet.Pool.call pool ~timeout:0.5 ep read_query_payload with
  | Tcpnet.Pool.Dropped -> ()
  | _ -> Alcotest.fail "refused endpoint should drop");
  let _, first, t1 = read () in
  Alcotest.(check bool) "suspected after one refused dial" true
    (first.Tcpnet.Pool.state <> Tcpnet.Pool.Healthy);
  (* (lowest, highest) possible window per armed failure, oldest first *)
  let windows = ref [ (first.down_until -. t1, first.down_until -. t0) ] in
  let rec watch ~last_old (h : Tcpnet.Pool.health) =
    if List.length !windows < 5 then begin
      if Unix.gettimeofday () > t0 +. 10.0 then Alcotest.fail "probes stalled";
      let before, h', after = read () in
      if h'.down_until <> h.down_until then begin
        windows := (h'.down_until -. after, h'.down_until -. last_old) :: !windows;
        watch ~last_old:before h'
      end
      else begin
        Thread.delay 0.001;
        watch ~last_old:before h
      end
    end
  in
  watch ~last_old:t1 first;
  let last = match read () with _, h, _ -> h in
  Tcpnet.Pool.shutdown pool;
  List.iteri
    (fun i (lo, hi) ->
      let want = Float.min cap (base *. (2.0 ** float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "window %d is %.2f s (read %.4f..%.4f)" i want lo hi)
        true
        (lo <= want +. 1e-6 && want <= hi +. 1e-6);
      Alcotest.(check bool) "never exceeds the cap" true (lo <= cap +. 1e-6))
    (List.rev !windows);
  (* every window after the first was armed by a probe's refused dial *)
  Alcotest.(check bool) "probes dialled" true
    (last.probes >= 4 && last.consecutive_failures >= 5)

(* A dial gives up at its round's deadline. A listener whose one-slot
   accept queue is full drops SYNs, so a blocking connect would wait out
   the kernel's retries; meanwhile the live host, which already has a
   pooled connection and so is sent to first, answers. *)
let test_dial_deadline () =
  let keyring = Store.Keyring.create () in
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host = Tcpnet.Server_host.start ~server ~port:0 () in
  let live = ("127.0.0.1", Tcpnet.Server_host.port host) in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 0;
  let full =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> ("127.0.0.1", p)
    | Unix.ADDR_UNIX _ -> assert false
  in
  let filler = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect filler (Unix.ADDR_INET (Unix.inet_addr_loopback, snd full));
  let pool = Tcpnet.Pool.create () in
  Fun.protect
    ~finally:(fun () ->
      Tcpnet.Pool.shutdown pool;
      Tcpnet.Server_host.stop host;
      Unix.close filler;
      Unix.close listener)
  @@ fun () ->
  (match Tcpnet.Pool.call pool ~timeout:2.0 live read_query_payload with
  | Tcpnet.Pool.Reply _ -> ()
  | _ -> Alcotest.fail "live host should answer");
  let t0 = Unix.gettimeofday () in
  let replies =
    Tcpnet.Pool.call_many pool ~timeout:0.3 ~quorum:1
      [ (0, full); (1, live) ]
      read_query_payload
  in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list int)) "the live host's reply" [ 1 ] (List.map fst replies);
  Alcotest.(check bool) (Printf.sprintf "returned in %.2f s" took) true (took < 1.0);
  match
    List.find_opt
      (fun (h : Tcpnet.Pool.health) -> h.endpoint = full)
      (Tcpnet.Pool.health pool)
  with
  | Some h ->
    Alcotest.(check int) "the timed-out dial is a failure" 1 h.consecutive_failures
  | None -> Alcotest.fail "no health row for the full listener"

(* A pool works with descriptors above select's FD_SETSIZE (1024), as
   in a server holding over a thousand sockets: 1,100 open files push
   the pool's own and its dials' descriptors past it. The dial still
   connects, and the timekeeper still ends a round at its deadline. *)
let test_pool_high_fds () =
  let keyring = Store.Keyring.create () in
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host = Tcpnet.Server_host.start ~server ~port:0 () in
  let live = ("127.0.0.1", Tcpnet.Server_host.port host) in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 8;
  let silent =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> ("127.0.0.1", p)
    | Unix.ADDR_UNIX _ -> assert false
  in
  let held = List.init 1100 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0) in
  let pool = Tcpnet.Pool.create () in
  Fun.protect
    ~finally:(fun () ->
      Tcpnet.Pool.shutdown pool;
      List.iter Unix.close held;
      Unix.close listener;
      Tcpnet.Server_host.stop host)
  @@ fun () ->
  (match Tcpnet.Pool.call pool ~timeout:2.0 live read_query_payload with
  | Tcpnet.Pool.Reply _ -> ()
  | _ -> Alcotest.fail "a dial from a high descriptor should reach the host");
  (* The silent listener accepts (the kernel completes the handshake)
     but never answers: only the timekeeper can end this call. *)
  let result = ref None in
  let caller =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        ignore (Tcpnet.Pool.call pool ~timeout:0.3 silent read_query_payload);
        result := Some (Unix.gettimeofday () -. t0))
      ()
  in
  let rec await n =
    match !result with
    | Some took -> took
    | None when n = 0 -> Alcotest.fail "a 0.3 s call had not returned after 5 s"
    | None ->
      Thread.delay 0.05;
      await (n - 1)
  in
  let took = await 100 in
  Thread.join caller;
  Alcotest.(check bool) (Printf.sprintf "returned in %.2f s" took) true (took < 1.0)

let test_concurrent_quorum_clients () =
  with_cluster (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      let errors = ref [] in
      let errors_lock = Mutex.create () in
      let client name key items =
        Thread.create
          (fun () ->
            try
              Tcpnet.Live.run ~endpoints (fun () ->
                  let session = connect ~keyring ~n ~b name key in
                  List.iter
                    (fun item ->
                      ok (Store.Client.write session ~item (name ^ ":" ^ item)))
                    items;
                  List.iter
                    (fun item ->
                      Alcotest.(check string) "concurrent read" (name ^ ":" ^ item)
                        (ok (Store.Client.read session ~item)))
                    items;
                  ok (Store.Client.disconnect session))
            with e ->
              Mutex.lock errors_lock;
              errors := Printexc.to_string e :: !errors;
              Mutex.unlock errors_lock)
          ()
      in
      let items prefix = List.init 5 (fun i -> Printf.sprintf "%s%d" prefix i) in
      let threads =
        [
          client "alice" alice_key (items "a");
          client "bob" bob_key (items "b");
          client "alice" alice_key (items "a2-");
          client "bob" bob_key (items "b2-");
        ]
      in
      List.iter Thread.join threads;
      match !errors with
      | [] -> ()
      | e :: _ -> Alcotest.failf "concurrent client failed: %s" e)

(* --- robustness: hostile frames, health, chaos, Byzantine hosts ---------- *)

(* Regression for the gossip write-loss bug: writes popped off the
   gossip buffer used to be dropped forever when the push failed. With a
   dead peer the host must keep them in its backlog and deliver once the
   peer comes up. *)
let test_gossip_requeue_dead_peer () =
  let n = 2 and b = 0 in
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let server_a = Store.Server.create ~id:0 ~keyring ~n ~b () in
  let server_b = Store.Server.create ~id:1 ~keyring ~n ~b () in
  let peer_port = Ports.reserve () in
  let host_a =
    Tcpnet.Server_host.start
      ~gossip:
        {
          Tcpnet.Server_host.peers = [ ("127.0.0.1", peer_port) ];
          period = 0.05;
        }
      ~server:server_a ~port:0 ()
  in
  let uid = Store.Uid.make ~group:"requeue" ~item:"x" in
  let w =
    Store.Signing.sign_write ~key:alice_key ~writer:"alice" ~uid
      ~stamp:(Store.Stamp.scalar 7) "survives the partition"
  in
  let payload =
    Store.Payload.encode_envelope
      {
        Store.Payload.token = None; epoch = 0;
        request = Store.Payload.Write_req w;
      }
  in
  let pool = Tcpnet.Pool.create () in
  (match
     Tcpnet.Pool.call pool ~timeout:2.0
       ("127.0.0.1", Tcpnet.Server_host.port host_a)
       payload
   with
  | Tcpnet.Pool.Reply _ -> ()
  | _ -> Alcotest.fail "write to host A failed");
  (* Let several gossip rounds fail against the dead peer first. *)
  Thread.delay 0.3;
  Alcotest.(check bool) "peer still empty" true
    (Store.Server.current_write server_b uid = None);
  let host_b = Tcpnet.Server_host.start ~server:server_b ~port:peer_port () in
  let rec wait tries =
    if Store.Server.current_write server_b uid <> None then true
    else if tries = 0 then false
    else begin
      Thread.delay 0.1;
      wait (tries - 1)
    end
  in
  let delivered = wait 100 in
  Tcpnet.Server_host.stop host_a;
  Tcpnet.Server_host.stop host_b;
  Tcpnet.Pool.shutdown pool;
  Alcotest.(check bool) "requeued write delivered after peer recovery" true
    delivered

(* Live snapshots are consistent: two writer threads overwrite a few
   items through the host while a third thread snapshots the shard
   through [Server_host.snapshot]. The lock makes each blob one state,
   so every blob restores; [restore_result] refuses any that fails the
   server's invariants (a log entry not older than the current write is
   what a save racing an overwrite would leave). *)
let test_snapshot_under_writes () =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host = Tcpnet.Server_host.start ~server ~port:0 () in
  let ep = ("127.0.0.1", Tcpnet.Server_host.port host) in
  let pool = Tcpnet.Pool.create () in
  Fun.protect
    ~finally:(fun () ->
      Tcpnet.Pool.shutdown pool;
      Tcpnet.Server_host.stop host)
  @@ fun () ->
  let write item v =
    let uid = Store.Uid.make ~group:"snap" ~item in
    let w =
      Store.Signing.sign_write ~key:alice_key ~writer:"alice" ~uid
        ~stamp:(Store.Stamp.scalar v) (Printf.sprintf "%s=%d" item v)
    in
    Store.Payload.encode_envelope
      { Store.Payload.token = None; epoch = 0; request = Store.Payload.Write_req w }
  in
  (* Signing is the slow part: sign everything before the race. *)
  let writes item = List.init 150 (fun v -> write item (v + 1)) in
  let batches = [ writes "a"; writes "b" ] in
  let writing = Atomic.make (List.length batches) in
  let writers =
    List.map
      (fun batch ->
        Thread.create
          (fun () ->
            List.iter
              (fun payload ->
                match Tcpnet.Pool.call pool ~timeout:2.0 ep payload with
                | Tcpnet.Pool.Reply _ -> ()
                | _ -> Alcotest.fail "write through the host failed")
              batch;
            Atomic.decr writing)
          ())
      batches
  in
  let blobs = ref [] in
  while Atomic.get writing > 0 do
    blobs := Tcpnet.Server_host.snapshot host ~shard:0 :: !blobs;
    Thread.yield ()
  done;
  List.iter Thread.join writers;
  blobs := Tcpnet.Server_host.snapshot host ~shard:0 :: !blobs;
  let refused =
    List.filter_map
      (fun blob ->
        match Store.Server.restore_result ~id:0 ~keyring ~n:1 ~b:0 blob with
        | Ok _ -> None
        | Error msg -> Some msg)
      !blobs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d snapshots taken" (List.length !blobs))
    true
    (List.length !blobs > 10);
  Alcotest.(check (list string)) "every snapshot restores" [] refused;
  match Store.Server.restore_result ~id:0 ~keyring ~n:1 ~b:0 (List.hd !blobs) with
  | Ok s -> Alcotest.(check int) "the last one holds both items" 2 (Store.Server.item_count s)
  | Error e -> Alcotest.fail e

(* Per-endpoint health: consecutive failures trip a suspicion window
   (fail-fast), the window expiring admits a probe, and a success clears
   the state. *)
let test_pool_health_suspicion () =
  let port, teardown = blackhole () in
  let ep = ("127.0.0.1", port) in
  let pool =
    Tcpnet.Pool.create ~suspect_after:2 ~suspect_base:0.1 ~suspect_max:0.2 ()
  in
  for _ = 1 to 2 do
    match Tcpnet.Pool.call pool ~timeout:0.05 ep read_query_payload with
    | Tcpnet.Pool.Dropped -> ()
    | _ -> Alcotest.fail "blackhole call should drop"
  done;
  (match Tcpnet.Pool.health pool with
  | [ h ] ->
    Alcotest.(check bool) "failures counted" true (h.Tcpnet.Pool.consecutive_failures >= 2);
    Alcotest.(check bool) "suspected" true
      (h.Tcpnet.Pool.down_until > Unix.gettimeofday ());
    Alcotest.(check bool) "last error recorded" true
      (h.Tcpnet.Pool.last_error <> None)
  | hs -> Alcotest.failf "expected one endpoint, got %d" (List.length hs));
  (* Suspected: the next call fails fast, well inside its timeout. *)
  let t0 = Unix.gettimeofday () in
  (match Tcpnet.Pool.call pool ~timeout:1.0 ep read_query_payload with
  | Tcpnet.Pool.Dropped -> ()
  | _ -> Alcotest.fail "suspected endpoint should fail fast");
  Alcotest.(check bool) "fail-fast under suspicion" true
    (Unix.gettimeofday () -. t0 < 0.5);
  (* The same health is exposed through the pool's /metrics families. *)
  Alcotest.(check bool) "exposed as metrics" true
    (List.mem
       (Printf.sprintf "securestore_endpoint_health{endpoint=\"127.0.0.1:%d\"} 0" port)
       (String.split_on_char '\n'
          (Obs.Expo.render (Tcpnet.Pool.families pool))));
  (* Replace the blackhole with a live server on the same port: once the
     window expires the half-open probe succeeds and clears suspicion. *)
  teardown ();
  let keyring = Store.Keyring.create () in
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host = Tcpnet.Server_host.start ~server ~port () in
  Thread.delay 0.25 (* past suspect_max: the window has expired *);
  let rec until tries =
    match Tcpnet.Pool.call pool ~timeout:0.5 ep read_query_payload with
    | Tcpnet.Pool.Reply _ -> true
    | _ ->
      if tries = 0 then false
      else begin
        Thread.delay 0.1;
        until (tries - 1)
      end
  in
  let recovered = until 30 in
  Alcotest.(check bool) "half-open probe recovers" true recovered;
  (match Tcpnet.Pool.health pool with
  | [ h ] ->
    Alcotest.(check int) "failures cleared" 0 h.Tcpnet.Pool.consecutive_failures;
    Alcotest.(check (float 1e-9)) "suspicion cleared" 0. h.Tcpnet.Pool.down_until
  | hs -> Alcotest.failf "expected one endpoint, got %d" (List.length hs));
  Tcpnet.Server_host.stop host;
  Tcpnet.Pool.shutdown pool

(* Membership churn retires endpoints for good: eviction closes pooled
   connections, clears suspicion state and removes the endpoint's health
   and latency rows — and a later submission to the same address starts
   from a clean slate instead of sitting out a stale suspicion window
   inherited from the departed server. *)
let test_pool_evict () =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host1 = Tcpnet.Server_host.start ~server ~port:0 () in
  let port = Tcpnet.Server_host.port host1 in
  let ep = ("127.0.0.1", port) in
  (* A suspicion window far longer than the test: were eviction to leak
     it, the post-churn call below would fail fast rather than land. *)
  let pool =
    Tcpnet.Pool.create ~suspect_after:2 ~suspect_base:30.0 ~suspect_max:30.0 ()
  in
  (* Traced, so the reply leaves a latency sample. *)
  Obs.Span.set_enabled true;
  (match Tcpnet.Pool.call pool ~timeout:2.0 ep read_query_payload with
  | Tcpnet.Pool.Reply _ -> Obs.Span.set_enabled false
  | _ ->
    Obs.Span.set_enabled false;
    Alcotest.fail "first call should succeed");
  Alcotest.(check bool) "connection pooled" true
    (Tcpnet.Pool.connection_count pool ep >= 1);
  (* The server departs; unanswered calls drive the endpoint into
     suspicion, exactly what a decommissioned address looks like. *)
  Tcpnet.Server_host.stop host1;
  for _ = 1 to 3 do
    ignore (Tcpnet.Pool.call pool ~timeout:0.1 ep read_query_payload)
  done;
  (match Tcpnet.Pool.health pool with
  | [ h ] ->
    Alcotest.(check bool) "suspected before eviction" true
      (h.Tcpnet.Pool.down_until > Unix.gettimeofday ())
  | hs -> Alcotest.failf "expected one endpoint, got %d" (List.length hs));
  let rows family =
    let prefix =
      Printf.sprintf "%s{endpoint=\"127.0.0.1:%d\"" family port
    in
    List.length
      (List.filter
         (fun line ->
           String.length line >= String.length prefix
           && String.sub line 0 (String.length prefix) = prefix)
         (String.split_on_char '\n'
            (Obs.Expo.render (Tcpnet.Pool.families pool))))
  in
  let latency_rows () = rows "securestore_endpoint_rpc_duration_seconds_count" in
  Alcotest.(check int) "health row before eviction" 1
    (rows "securestore_endpoint_health");
  Alcotest.(check int) "latency row before eviction" 1 (latency_rows ());
  Tcpnet.Pool.evict pool ep;
  Alcotest.(check int) "connections closed" 0
    (Tcpnet.Pool.connection_count pool ep);
  Alcotest.(check int) "health row removed" 0
    (List.length (Tcpnet.Pool.health pool));
  Alcotest.(check int) "metrics health row removed" 0
    (rows "securestore_endpoint_health");
  Alcotest.(check int) "latency row removed" 0 (latency_rows ());
  (* A joining server reuses the address: with the old suspicion gone,
     traffic lands immediately instead of failing fast for 30 s. *)
  let host2 = Tcpnet.Server_host.start ~server ~port () in
  (match Tcpnet.Pool.call pool ~timeout:2.0 ep read_query_payload with
  | Tcpnet.Pool.Reply _ -> ()
  | _ -> Alcotest.fail "evicted endpoint should start from a clean slate");
  Tcpnet.Server_host.stop host2;
  Tcpnet.Pool.shutdown pool

(* A silent replica leaves the op path: once the pool suspects it, every
   first round is ranked around it and only the pool's own probes reach
   it, however often its window expires. A fault-free proxy in front of
   it counts what arrives. When it comes back, a probe clears it and the
   next write's first round includes it again. *)
let test_silent_replica_off_op_path () =
  let suspect_max = 0.2 in
  let pool =
    Tcpnet.Pool.create ~suspect_after:2 ~suspect_base:0.1 ~suspect_max ()
  in
  (* Gossip slower than the test: replica 0 can only hold a write that a
     client round delivered to it. *)
  with_cluster ~gossip_period:3600.0
    ~behavior:(fun i -> if i = 0 then Store.Faults.Crash else Store.Faults.Honest)
    (fun ~keyring ~endpoints ~hosts ~servers ~n ~b ->
      let port0 = Tcpnet.Server_host.port hosts.(0) in
      let proxy =
        Tcpnet.Chaos.start ~plan:(Tcpnet.Chaos.plan ~seed:0 ())
          ~target:("127.0.0.1", port0) ()
      in
      let ep0 = ("127.0.0.1", Tcpnet.Chaos.port proxy) in
      let endpoints id = if id = 0 then Some ep0 else endpoints id in
      let row () =
        List.find
          (fun (h : Tcpnet.Pool.health) -> h.endpoint = ep0)
          (Tcpnet.Pool.health pool)
      in
      let escalations () = (Store.Metrics.read ()).Store.Metrics.escalations in
      let forwarded () = (Tcpnet.Chaos.stats proxy).Tcpnet.Chaos.forwarded in
      Fun.protect ~finally:(fun () -> Tcpnet.Chaos.stop proxy) @@ fun () ->
      Tcpnet.Live.run ~pool ~endpoints (fun () ->
          let alice = connect ~timeout:0.3 ~keyring ~n ~b "alice" alice_key in
          let rec until_suspected i =
            if not (Tcpnet.Pool.suspected pool ep0) then begin
              if i > 20 then Alcotest.fail "replica 0 never suspected";
              ok (Store.Client.write alice ~item:"warm" (string_of_int i));
              until_suspected (i + 1)
            end
          in
          until_suspected 0;
          let esc0 = escalations () in
          let fwd0 = forwarded () and probes0 = (row ()).probes in
          let t0 = Unix.gettimeofday () in
          (* At least 200 ops, and long enough for the window to expire
             five times (a cycle is at most one window plus one probe). *)
          let rec run ops =
            if ops < 200 || Unix.gettimeofday () -. t0 < 5.0 *. (suspect_max +. 0.1)
            then begin
              let item = Printf.sprintf "k%d" (ops mod 16) in
              ok (Store.Client.write alice ~item (string_of_int ops));
              let v = ok (Store.Client.read alice ~item) in
              if v <> string_of_int ops then Alcotest.failf "read back %S" v;
              run (ops + 2)
            end
            else ops
          in
          let ops = run 0 in
          let esc = escalations () - esc0 in
          Alcotest.(check bool)
            (Printf.sprintf "%d escalations over %d ops" esc ops)
            true
            (float_of_int esc <= 0.05 *. float_of_int ops);
          let h = row () in
          Alcotest.(check bool)
            (Printf.sprintf "probes sent (%d)" h.probes) true (h.probes >= 3);
          Alcotest.(check bool) "still suspected" true
            (h.state = Tcpnet.Pool.Suspected || h.state = Tcpnet.Pool.Probing);
          (* One frame per probe; a probe counted just before the
             snapshot may land just after it. *)
          let fwd = forwarded () - fwd0 and probes = h.probes - probes0 in
          Alcotest.(check bool)
            (Printf.sprintf "only probes reach replica 0 (%d frames, %d probes)"
               fwd probes)
            true (fwd <= probes + 1);
          (* Replica 0 comes back honest on the same port. *)
          Tcpnet.Server_host.stop hosts.(0);
          hosts.(0) <- Tcpnet.Server_host.start ~server:servers.(0) ~port:port0 ();
          let back = Unix.gettimeofday () in
          let rec until_cleared () =
            if Tcpnet.Pool.suspected pool ep0 then
              if Unix.gettimeofday () -. back > 2.0 *. suspect_max then
                Alcotest.fail "no probe cleared the restarted replica"
              else begin
                Thread.delay 0.01;
                until_cleared ()
              end
          in
          until_cleared ();
          Alcotest.(check bool) "healthy row" true ((row ()).state = Tcpnet.Pool.Healthy);
          ok (Store.Client.write alice ~item:"after" "back");
          Alcotest.(check bool) "first round reaches replica 0" true
            (Store.Server.current_write servers.(0)
               (Store.Uid.make ~group:"net" ~item:"after")
            <> None)));
  Tcpnet.Pool.shutdown pool

(* Context reconstruction over the live transport: a session that dies
   without writing its context back is rebuilt from the servers' signed
   writes — with one Stale (frozen) server in the mix. *)
let test_live_context_reconstruction () =
  with_cluster
    ~behavior:(fun i -> if i = 3 then Store.Faults.Stale else Store.Faults.Honest)
    (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let config = Store.Client.default_config ~n ~b in
          let session ?recover () =
            match
              Store.Client.connect ?recover ~config ~uid:"alice" ~key:alice_key
                ~keyring ~group:"recon" ()
            with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect: %s" (Store.Client.error_to_string e)
          in
          let crashed = session () in
          List.iter
            (fun (item, v) -> ok (Store.Client.write crashed ~item v))
            [ ("a", "1"); ("b", "2"); ("c", "3") ];
          let old_ctx = Store.Client.context crashed in
          (* No disconnect: the session is simply dropped (crash). *)
          let revived = session ~recover:`Reconstruct () in
          let new_ctx = Store.Client.context revived in
          List.iter
            (fun item ->
              let uid = Store.Uid.make ~group:"recon" ~item in
              let want = Store.Context.find old_ctx uid in
              let got = Store.Context.find new_ctx uid in
              Alcotest.(check bool)
                (Printf.sprintf "context entry for %s rebuilt" item)
                true
                (Store.Stamp.compare got want = 0))
            [ "a"; "b"; "c" ];
          List.iter
            (fun (item, v) ->
              Alcotest.(check string) "reads correct after reconstruction" v
                (ok (Store.Client.read revived ~item)))
            [ ("a", "1"); ("b", "2"); ("c", "3") ]))

(* Hostile wire inputs must never crash the server or allocate
   unboundedly: oversized length prefixes, truncated pipelined headers,
   and out-of-range correlation ids all get a framed error (or a clean
   hangup) and the host keeps serving. *)
let test_frame_hostile_inputs () =
  with_cluster (fun ~keyring:_ ~endpoints:_ ~hosts ~servers:_ ~n:_ ~b:_ ->
      let port = Tcpnet.Server_host.port hosts.(0) in
      let dial () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
      in
      let header len =
        String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
      in
      (* Length prefix just over the cap: a framed "too large" error,
         then hangup — and crucially no 16 MiB allocation. *)
      let fd = dial () in
      ignore
        (Unix.write_substring fd (header (Tcpnet.Frame.max_frame + 1)) 0 4);
      (match Tcpnet.Frame.read_frame fd with
      | Some frame -> (
        match Tcpnet.Frame.parse_response frame with
        | Some (Tcpnet.Frame.Conn_error msg) ->
          Alcotest.(check bool) "mentions the size" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "expected framed error for oversized prefix")
      | None -> Alcotest.fail "server dropped oversized prefix silently");
      Alcotest.(check bool) "connection closed after oversize" true
        (Tcpnet.Frame.read_frame fd = None);
      (try Unix.close fd with _ -> ());
      (* Length prefix just under the cap with no body: the server just
         waits for the body; closing is a clean EOF, not a crash. *)
      let fd = dial () in
      ignore (Unix.write_substring fd (header Tcpnet.Frame.max_frame) 0 4);
      Unix.close fd;
      (* Truncated pipelined header inside a well-formed frame. *)
      let fd = dial () in
      Tcpnet.Frame.write_frame fd "\x01\x00";
      (match Tcpnet.Frame.read_frame fd with
      | Some frame -> (
        match Tcpnet.Frame.parse_response frame with
        | Some (Tcpnet.Frame.Conn_error _) -> ()
        | _ -> Alcotest.fail "expected framed error for truncated header")
      | None -> Alcotest.fail "server dropped truncated header silently");
      (* Malformed trace contexts: truncated extension, a length byte
         claiming over-long or short ids, a span id with the reserved
         top bit — each must come back as a framed error on a live
         connection, never a crash. *)
      let ctx =
        {
          Tcpnet.Frame.trace = String.make Tcpnet.Frame.trace_id_bytes 'a';
          span = 5;
          flags = 1;
        }
      in
      let traced =
        Tcpnet.Frame.encode_call ~id:2 ~trace:ctx read_query_payload
      in
      let expect_conn_error what frame =
        Tcpnet.Frame.write_frame fd frame;
        match Tcpnet.Frame.read_frame fd with
        | Some r -> (
          match Tcpnet.Frame.parse_response r with
          | Some (Tcpnet.Frame.Conn_error _) -> ()
          | _ -> Alcotest.failf "expected framed error for %s" what)
        | None -> Alcotest.failf "server dropped %s silently" what
      in
      expect_conn_error "truncated trace context" (String.sub traced 0 12);
      (* call header: kind, flags, id (2-5), shard (6-7), then the
         context: length byte (8), trace id (9-24), span id (25-32) *)
      let relen c =
        let b = Bytes.of_string traced in
        Bytes.set b 8 c;
        Bytes.to_string b
      in
      expect_conn_error "over-long trace id" (relen '\x30');
      expect_conn_error "short trace id" (relen '\x05');
      let evil_span = Bytes.of_string traced in
      Bytes.set evil_span 25
        (Char.chr (Char.code (Bytes.get evil_span 25) lor 0x80));
      expect_conn_error "span id top bit" (Bytes.to_string evil_span);
      (* Correlation id above max_id: the server must reject it at parse
         time — echoing it in a reply would be an encode error killing
         the connection thread. The connection keeps serving. *)
      let evil_id = "\x01\x00\xff\xff\xff\xff\x00\x00" ^ read_query_payload in
      Tcpnet.Frame.write_frame fd evil_id;
      (match Tcpnet.Frame.read_frame fd with
      | Some frame -> (
        match Tcpnet.Frame.parse_response frame with
        | Some (Tcpnet.Frame.Conn_error _) -> ()
        | _ -> Alcotest.fail "expected framed error for huge correlation id")
      | None -> Alcotest.fail "server dropped huge correlation id silently");
      Tcpnet.Frame.write_frame fd (Tcpnet.Frame.encode_call ~id:1 read_query_payload);
      (match Tcpnet.Frame.read_frame fd with
      | Some frame -> (
        match Tcpnet.Frame.parse_response frame with
        | Some (Tcpnet.Frame.Reply { id = 1; payload = Some _ }) -> ()
        | _ -> Alcotest.fail "expected reply after hostile frames")
      | None -> Alcotest.fail "connection died after hostile frames");
      try Unix.close fd with _ -> ())

(* The chaos schedule is a pure function of the seed. *)
let test_chaos_determinism () =
  let d seed = Tcpnet.Chaos.decision_digest (Tcpnet.Chaos.plan ~seed ()) ~frames:64 in
  Alcotest.(check string) "same seed, same schedule" (d 7) (d 7);
  Alcotest.(check bool) "different seed, different schedule" true (d 7 <> d 8)

let test_chaos_proxy_faults () =
  let keyring = Store.Keyring.create () in
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host = Tcpnet.Server_host.start ~server ~port:0 () in
  let target = ("127.0.0.1", Tcpnet.Server_host.port host) in
  (* Pass-through: a faultless plan must be invisible to the RPC layer. *)
  let clear = Tcpnet.Chaos.start ~plan:(Tcpnet.Chaos.plan ~seed:1 ()) ~target () in
  let pool = Tcpnet.Pool.create () in
  (match
     Tcpnet.Pool.call pool ~timeout:2.0
       ("127.0.0.1", Tcpnet.Chaos.port clear)
       read_query_payload
   with
  | Tcpnet.Pool.Reply _ -> ()
  | _ -> Alcotest.fail "pass-through proxy broke the call");
  (* The pump bumps its counter after the client already has the reply —
     give the thread a beat. *)
  let rec forwarded tries =
    let f = (Tcpnet.Chaos.stats clear).Tcpnet.Chaos.forwarded in
    if f >= 2 || tries = 0 then f
    else begin
      Thread.delay 0.02;
      forwarded (tries - 1)
    end
  in
  Alcotest.(check bool) "forwarded counted" true (forwarded 25 >= 2);
  Tcpnet.Chaos.stop clear;
  (* drop = 1.0: every frame vanishes; the call must time out cleanly. *)
  let dead =
    Tcpnet.Chaos.start ~plan:(Tcpnet.Chaos.plan ~seed:2 ~drop:1.0 ()) ~target ()
  in
  (match
     Tcpnet.Pool.call pool ~timeout:0.2
       ("127.0.0.1", Tcpnet.Chaos.port dead)
       read_query_payload
   with
  | Tcpnet.Pool.Dropped -> ()
  | _ -> Alcotest.fail "dropped frames should time the call out");
  Alcotest.(check bool) "drop counted" true
    ((Tcpnet.Chaos.stats dead).Tcpnet.Chaos.dropped >= 1);
  Tcpnet.Chaos.stop dead;
  Tcpnet.Pool.shutdown pool;
  Tcpnet.Server_host.stop host

(* Byzantine behaviours behind real sockets. A Crash host accepts the
   connection but answers nothing (the client runs into its deadline,
   exactly as in the simulator); a Corrupt_value host in the read set
   cannot make a client return a wrong value — the signature check
   rejects the corruption and the next replica serves the real one. *)
let test_byzantine_hosts () =
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let server = Store.Server.create ~id:0 ~keyring ~n:1 ~b:0 () in
  let host =
    Tcpnet.Server_host.start ~behavior:Store.Faults.Crash ~server ~port:0 ()
  in
  let pool = Tcpnet.Pool.create () in
  (match
     Tcpnet.Pool.call pool ~timeout:0.2
       ("127.0.0.1", Tcpnet.Server_host.port host)
       read_query_payload
   with
  | Tcpnet.Pool.Dropped -> ()
  | _ -> Alcotest.fail "a Crash host must be silent on the wire");
  Tcpnet.Pool.shutdown pool;
  Tcpnet.Server_host.stop host;
  (* Corrupt_value as server 0 — first in every preferred read set. *)
  with_cluster
    ~behavior:(fun i -> if i = 0 then Store.Faults.Corrupt_value else Store.Faults.Honest)
    (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = connect ~keyring ~n ~b "alice" alice_key in
          ok (Store.Client.write alice ~item:"x" "the real value");
          Alcotest.(check string) "corruption rejected, real value served"
            "the real value"
            (ok (Store.Client.read alice ~item:"x"))))

(* --- coded bulk transport over real sockets ------------------------------ *)

let coded_connect ~keyring ~n ~b ?(timeout = 2.0) ?(dispersal_threshold = 4096)
    name key =
  let config =
    {
      (Store.Client.default_config ~n ~b) with
      Store.Client.timeout;
      dispersal_threshold;
      dispersal_chunk = 16_384;
    }
  in
  match Store.Client.connect ~config ~uid:name ~key ~keyring ~group:"net" () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Store.Client.error_to_string e)

let bulk_value n = String.init n (fun i -> Char.chr ((i * 31 + i / 997) land 0xff))

let test_live_dispersal_roundtrip () =
  with_cluster (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = coded_connect ~keyring ~n ~b "alice" alice_key in
          (* fragments of ~50 KB stream as several 16 KB Frag_put chunks
             and come back as ranged Frag_gets *)
          let value = bulk_value 100_000 in
          ok (Store.Client.write alice ~item:"bulk" value);
          Alcotest.(check string) "writer reads back" value
            (ok (Store.Client.read alice ~item:"bulk"));
          let bob = coded_connect ~keyring ~n ~b "bob" bob_key in
          Alcotest.(check string) "bob reconstructs" value
            (ok (Store.Client.read bob ~item:"bulk"))))

let test_live_dispersal_under_chaos () =
  (* Server 1 sits behind a chaos proxy that drops and corrupts frames
     in both directions. The coded write still commits — the scatter
     needs k+b = 3 clean ack streams and the other three servers provide
     them — and readers reconstruct around the damaged holder: a
     corrupted fragment fails its descriptor digest and is replaced. *)
  with_cluster (fun ~keyring ~endpoints ~hosts:_ ~servers:_ ~n ~b ->
      let target =
        match endpoints 1 with Some e -> e | None -> Alcotest.fail "no endpoint"
      in
      let proxy =
        Tcpnet.Chaos.start
          ~plan:(Tcpnet.Chaos.plan ~seed:5 ~drop:0.2 ~corrupt:0.3 ())
          ~target ()
      in
      Fun.protect ~finally:(fun () -> Tcpnet.Chaos.stop proxy) @@ fun () ->
      let endpoints id =
        if id = 1 then Some ("127.0.0.1", Tcpnet.Chaos.port proxy)
        else endpoints id
      in
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = coded_connect ~timeout:0.5 ~keyring ~n ~b "alice" alice_key in
          let value = bulk_value 60_000 in
          ok (Store.Client.write alice ~item:"bulk" value);
          Alcotest.(check string) "reconstructs through chaos" value
            (ok (Store.Client.read alice ~item:"bulk"));
          let bob = coded_connect ~timeout:0.5 ~keyring ~n ~b "bob" bob_key in
          Alcotest.(check string) "bob too" value
            (ok (Store.Client.read bob ~item:"bulk"))))

(* Poll [probe] every 50 ms, failing after [tries] polls. *)
let await ?(tries = 100) what probe =
  let rec go tries =
    if probe () then ()
    else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go (tries - 1)
    end
  in
  go tries

let test_live_fragment_repair () =
  (* A full gossip mesh over real sockets: the metadata write reaches
     every server by anti-entropy, each holder's staged fragment turns
     verified, and when one holder loses its fragment the gossip loop's
     repair phase pulls peer fragments and recodes its own. *)
  with_cluster ~gossip_period:0.05
    (fun ~keyring ~endpoints ~hosts:_ ~servers ~n ~b ->
      let value = bulk_value 30_000 in
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = coded_connect ~keyring ~n ~b "alice" alice_key in
          ok (Store.Client.write alice ~item:"bulk" value));
      let uid = Store.Uid.make ~group:"net" ~item:"bulk" in
      await "gossip to verify every fragment" (fun () ->
          Array.for_all (fun s -> Store.Server.fragment_count s = 1) servers);
      let stamp =
        match Store.Server.current_write servers.(0) uid with
        | Some w -> w.Store.Payload.stamp
        | None -> Alcotest.fail "no metadata at server 0"
      in
      let repairs0 = Store.Metrics.frag_repairs () in
      Store.Server.drop_fragment servers.(2) uid ~stamp ~index:3;
      await "the gossip loop to repair the fragment" (fun () ->
          Store.Server.fragment servers.(2) uid ~stamp ~index:3 <> None);
      Alcotest.(check bool) "repair counted in metrics" true
        (Store.Metrics.frag_repairs () > repairs0);
      (* the restored holder serves reads again *)
      Tcpnet.Live.run ~endpoints (fun () ->
          let alice = coded_connect ~keyring ~n ~b "alice" alice_key in
          Alcotest.(check string) "read after repair" value
            (ok (Store.Client.read alice ~item:"bulk"))))

(* Coded bulk storage pays off at 1 MiB. On one gossiping n=4, b=1
   cluster alice stores a value replicated, then one dispersed (k = b+1
   = 2 of n), each read back and gossiped to every server before it is
   measured: replication ships and keeps n full copies, dispersal n
   half-size fragments, so both ratios should be near 2 or above. The
   oracle checks the history of both writes and read-backs. *)
let test_live_coded_savings () =
  let value = bulk_value 1_048_576 in
  let history = Check.History.create () in
  let store ~keyring ~endpoints ~servers ~n ~b ~dispersal_threshold item =
    let stored () =
      Array.fold_left (fun acc s -> acc + Store.Server.storage_bytes s) 0 servers
    in
    let m0 = Store.Metrics.read () and stored0 = stored () in
    Tcpnet.Live.run ~endpoints (fun () ->
        let alice =
          coded_connect ~timeout:5.0 ~dispersal_threshold ~keyring ~n ~b "alice"
            alice_key
        in
        ok (Store.Client.write alice ~item value);
        Alcotest.(check string) (item ^ " read back") value
          (ok (Store.Client.read alice ~item));
        ok (Store.Client.disconnect alice));
    let uid = Store.Uid.make ~group:"net" ~item in
    let dispersed = dispersal_threshold > 0 in
    await ~tries:400 ("gossip to disseminate " ^ item) (fun () ->
        Array.for_all
          (fun s ->
            Store.Server.current_write s uid <> None
            && ((not dispersed) || Store.Server.fragment_count s >= 1))
          servers);
    (* a final beat so in-flight gossip bytes are counted *)
    Thread.delay 0.1;
    let d = Store.Metrics.diff (Store.Metrics.read ()) m0 in
    (d.Store.Metrics.bytes, stored () - stored0)
  in
  let (rep_wire, rep_stored), (dis_wire, dis_stored) =
    with_cluster ~gossip_period:0.02
      (fun ~keyring ~endpoints ~hosts:_ ~servers ~n ~b ->
        Check.History.recording history (fun () ->
            let rep =
              store ~keyring ~endpoints ~servers ~n ~b ~dispersal_threshold:0
                "replicated"
            in
            let dis =
              store ~keyring ~endpoints ~servers ~n ~b ~dispersal_threshold:4096
                "dispersed"
            in
            (rep, dis)))
  in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let at_least what got =
    if got < 1.5 then Alcotest.failf "%s savings %.2fx < 1.5x" what got
  in
  at_least "storage" (ratio rep_stored dis_stored);
  at_least "transport" (ratio rep_wire dis_wire);
  Alcotest.(check bool) "history recorded" true (Check.History.length history > 0);
  Alcotest.(check (list string)) "oracle finds no violation" []
    (List.map Check.Oracle.violation_to_string
       (Check.Oracle.check (Check.History.events history)))

(* --- distributed tracing over real sockets -------------------------------- *)

(* Distinct server ids among a trace's server_request spans for one
   shard (each span is annotated "server=<id> shard=<shard>"). *)
let traced_servers spans shard =
  List.sort_uniq compare
    (List.filter_map
       (fun (c : Obs.Span.closed) ->
         if c.op <> "server_request" then None
         else
           List.find_map
             (fun a ->
               try
                 Scanf.sscanf (Obs.Span.attr_text a) "server=%d shard=%d"
                   (fun id sh -> if sh = shard then Some id else None)
               with Scanf.Scan_failure _ | End_of_file -> None)
             c.attrs)
       spans)

(* One Router transaction writing to both shards of a two-shard cluster
   stitches into one trace: a write quorum's worth of server spans per
   shard and a gossip round that joined it. Then an oracle violation —
   a canary (no freshness floor) reading from servers swapped to Stale —
   names a trace the flight recorder still holds. *)
let test_stitched_trace () =
  let n = 4 and b = 1 and shards = 2 in
  Obs.Span.reset_journal ();
  Obs.Span.reset_flight ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.set_sample_interval 8;
      Obs.Span.reset_journal ();
      Obs.Span.reset_flight ())
  @@ fun () ->
  (* head-sample every trace: the one transaction must be retained *)
  Obs.Span.set_sample_interval 1;
  let keyring = Store.Keyring.create () in
  Store.Keyring.register keyring "alice" alice_key.Crypto.Rsa.public;
  let servers =
    Array.init (shards * n) (fun gid -> Store.Server.create ~id:gid ~keyring ~n ~b ())
  in
  let eps = Array.init n (fun _ -> ("127.0.0.1", Ports.reserve ())) in
  let hosts =
    Array.init n (fun r ->
        let peers = List.filteri (fun j _ -> j <> r) (Array.to_list eps) in
        let specs =
          List.init shards (fun s ->
              {
                Tcpnet.Server_host.shard = s;
                server = servers.((s * n) + r);
                behavior = Store.Faults.Honest;
                peers;
              })
        in
        Tcpnet.Server_host.start_sharded ~gossip_period:0.05 ~shards:specs
          ~port:(snd eps.(r)) ())
  in
  let spans =
    Fun.protect ~finally:(fun () -> Array.iter Tcpnet.Server_host.stop hosts)
    @@ fun () ->
    let table = Store.Shardmap.make ~seed:"trace" ~shards () in
    let group_on s =
      List.find
        (fun g -> Store.Shardmap.shard_of_group table g = s)
        (List.init 16 (Printf.sprintf "tg%d"))
    in
    let endpoints gid = if gid >= 0 && gid < shards * n then Some eps.(gid mod n) else None in
    let config_of shard =
      {
        (Store.Client.default_config ~n ~b) with
        Store.Client.servers = Store.Router.shard_servers ~n shard;
        timeout = 2.0;
      }
    in
    Tcpnet.Live.run ~endpoints ~shard_of:(fun node -> Some (node / n)) @@ fun () ->
    let router =
      Store.Router.create ~table ~uid:"alice" ~key:alice_key ~keyring ~config_of ()
    in
    let trace =
      Obs.Span.with_op "sharded_txn" (fun () ->
          List.iter
            (fun g ->
              ok (Store.Router.write router ~uid:(Store.Uid.make ~group:g ~item:"k") g))
            [ group_on 0; group_on 1 ];
          match Obs.Span.current_ctx () with
          | Some c -> c.Obs.Span.trace
          | None -> Alcotest.fail "no trace context on the transaction root")
    in
    (* Each shard's next gossip round adopts the trace it last served;
       the disconnect's own requests would replace it, so wait first. *)
    await "a gossip round to join the trace" (fun () ->
        List.exists
          (fun (c : Obs.Span.closed) -> c.op = "gossip_round")
          (Obs.Span.trace_spans ~trace));
    ignore (Store.Router.disconnect router);
    Obs.Span.trace_spans ~trace
  in
  List.iter
    (fun shard ->
      let got = List.length (traced_servers spans shard) in
      if got < n - b then
        Alcotest.failf "shard %d: %d traced servers, want a write quorum (%d)"
          shard got (n - b))
    [ 0; 1 ];
  (* The canary: untraced by head sampling, so only the recording's
     forced retention keeps its trace. *)
  Obs.Span.set_sample_interval 8;
  Obs.Span.reset_flight ();
  let history = Check.History.create () in
  with_cluster (fun ~keyring ~endpoints ~hosts ~servers ~n ~b ->
      let config =
        {
          (Store.Client.default_config ~n ~b) with
          Store.Client.timeout = 0.5;
          read_retries = 1;
          write_retries = 1;
          canary_skip_freshness = true;
        }
      in
      Check.History.recording history @@ fun () ->
      Tcpnet.Live.run ~endpoints @@ fun () ->
      let canary =
        ok
          (Store.Client.connect ~config ~uid:"alice" ~key:alice_key ~keyring
             ~group:"flight" ())
      in
      ok (Store.Client.write canary ~item:"x" "v1");
      (* Freeze the two servers the canary reads from: they hold v1, ack
         v2 without storing it and serve v1 back. *)
      List.iter
        (fun i ->
          let port = Tcpnet.Server_host.port hosts.(i) in
          Tcpnet.Server_host.stop hosts.(i);
          hosts.(i) <-
            Tcpnet.Server_host.start ~behavior:Store.Faults.Stale
              ~server:servers.(i) ~port ())
        [ 0; 1 ];
      ok (Store.Client.write canary ~item:"x" "v2");
      Alcotest.(check string) "canary reads the stale value" "v1"
        (ok (Store.Client.read canary ~item:"x"));
      (* the Stale servers sit on the context write; the violation is
         already recorded *)
      ignore (Store.Client.disconnect canary));
  match Check.Oracle.check (Check.History.events history) with
  | [] -> Alcotest.fail "the stale read produced no oracle violation"
  | v :: _ -> (
    let id = v.Check.Oracle.first.Store.Trace.trace in
    match Obs.Jsonx.of_hex id with
    | Some raw when String.length raw = Obs.Span.trace_bytes ->
      Alcotest.(check bool) "pin finds the violation's trace" true
        (Obs.Span.pin ~trace:raw);
      Alcotest.(check bool) "the pinned trace has spans" true
        (Obs.Span.flight_lookup ~trace:raw <> [])
    | _ -> Alcotest.failf "violation trace id %S is not a 128-bit hex id" id)

(* --- chaos and churn soaks ----------------------------------------------- *)

(* One server slot per entry of [servers], each behind its own chaos
   proxy running [plans.(i)]. Clients and gossip alike reach server [i]
   only through proxy [i], so the faults hit gossip too; proxies need
   their targets and hosts need the proxies as peers, so the host ports
   are reserved first. Slots [0, started) start up front; a standby
   joins with [start_host] and a slot leaves with [retire]. *)
type chaos_cluster = {
  proxies : Tcpnet.Chaos.t array;
  proxy_eps : (string * int) array;
  hosts : Tcpnet.Server_host.t option array;
  start_host : int -> unit;
  retire : int -> unit;  (** stop the slot's host and proxy *)
  endpoints : int -> (string * int) option;
}

let with_chaos_cluster ?(behavior = fun _ -> Store.Faults.Honest) ?started
    ~plans ~servers ~gossip_period fn =
  let capacity = Array.length servers in
  let ports = Array.init capacity (fun _ -> Ports.reserve ()) in
  let proxies =
    Array.mapi
      (fun i plan -> Tcpnet.Chaos.start ~plan ~target:("127.0.0.1", ports.(i)) ())
      plans
  in
  let proxy_eps = Array.map (fun p -> ("127.0.0.1", Tcpnet.Chaos.port p)) proxies in
  let hosts = Array.make capacity None in
  let proxy_up = Array.make capacity true in
  let start_host i =
    let peers = List.filteri (fun j _ -> j <> i) (Array.to_list proxy_eps) in
    hosts.(i) <-
      Some
        (Tcpnet.Server_host.start
           ~gossip:{ Tcpnet.Server_host.peers; period = gossip_period }
           ~behavior:(behavior i) ~server:servers.(i) ~port:ports.(i) ())
  in
  let retire i =
    Option.iter Tcpnet.Server_host.stop hosts.(i);
    hosts.(i) <- None;
    if proxy_up.(i) then Tcpnet.Chaos.stop proxies.(i);
    proxy_up.(i) <- false
  in
  for i = 0 to Option.value started ~default:capacity - 1 do
    start_host i
  done;
  let endpoints id = if id >= 0 && id < capacity then Some proxy_eps.(id) else None in
  Fun.protect
    ~finally:(fun () -> Array.iteri (fun i _ -> retire i) servers)
    (fun () -> fn { proxies; proxy_eps; hosts; start_host; retire; endpoints })

(* The shared state of one soak. A writer writes "item#1", "item#2", ...
   round-robin over [soak_items], then "item#final" on each; a reader
   checks what it reads against what was attempted. *)
type soak = {
  seed : int;
  lock : Mutex.t;
  attempted : (string, unit) Hashtbl.t;
  mutable violations : string list;
  mutable ops : int;
  mutable ops_ok : int;
}

let soak_items = [| "k0"; "k1"; "k2"; "k3" |]

let new_soak seed =
  { seed; lock = Mutex.create (); attempted = Hashtbl.create 256; violations = [];
    ops = 0; ops_ok = 0 }

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let violate s fmt =
  Printf.ksprintf (fun m -> locked s (fun () -> s.violations <- m :: s.violations)) fmt

let soak_op s run =
  locked s (fun () -> s.ops <- s.ops + 1);
  if run () then locked s (fun () -> s.ops_ok <- s.ops_ok + 1)

(* With [must], a failed write is also a violation. *)
let soak_write ?(must = false) s client ~item value =
  locked s (fun () -> Hashtbl.replace s.attempted (item ^ "=" ^ value) ());
  soak_op s (fun () ->
      match Store.Client.write client ~item value with
      | Ok () -> true
      | Error e ->
        if must then
          violate s "write of %s=%s failed: %s" item value (Store.Client.error_to_string e);
        false)

(* A worker thread; an exception it raises is a violation. *)
let soak_worker s name fn =
  Thread.create
    (fun () ->
      try fn () with e -> violate s "%s worker died: %s" name (Printexc.to_string e))
    ()

(* Both soaks' clients retry hard and give up on an op after
   [op_deadline]: liveness under chaos may degrade, safety may not. *)
let soak_config ~n ~b ~op_deadline =
  {
    (Store.Client.default_config ~n ~b) with
    Store.Client.timeout = 0.3;
    read_retries = 3;
    write_retries = 3;
    retry_delay = 0.05;
    retry_backoff_max = 0.4;
    op_deadline;
  }

(* alice and bob with pairwise MAC secrets for server slots [0, servers). *)
let soak_keyring ~servers =
  let keyring = Store.Keyring.create () in
  List.iter
    (fun (client, key) ->
      Store.Keyring.register keyring client key.Crypto.Rsa.public;
      for server = 0 to servers - 1 do
        Store.Keyring.register_mac keyring ~client ~server
          (Crypto.Sha256.digest (Printf.sprintf "soak-mac!%s!%d" client server))
      done)
    [ ("alice", alice_key); ("bob", bob_key) ];
  keyring

let rec soak_connect ?(tries = 10) s ~keyring ~group config name key =
  match Store.Client.connect ~config ~uid:name ~key ~keyring ~group () with
  | Ok c -> c
  | Error _ when tries > 0 ->
    Thread.delay 0.2;
    soak_connect ~tries:(tries - 1) s ~keyring ~group config name key
  | Error e ->
    failwith
      (Printf.sprintf "seed %d: connect %s: %s" s.seed name
         (Store.Client.error_to_string e))

(* Write "item#i" for i = 1, 2, ... while [go i]. *)
let soak_writes s client ~go =
  let rec loop i =
    if go i then begin
      let item = soak_items.(i mod Array.length soak_items) in
      soak_write s client ~item (Printf.sprintf "%s#%d" item i);
      Thread.delay 0.03;
      loop (i + 1)
    end
  in
  loop 1

(* A failed final write is a violation, not just a lost op: convergence
   alone would pass one that reached a single replica and spread by gossip. *)
let soak_finals s client =
  Array.iter (fun item -> soak_write ~must:true s client ~item (item ^ "#final")) soak_items

(* Read round-robin until [stop ()]. Invariant 1: a read returns only a
   value the writer attempted. Invariant 2: within the session, an item's
   sequence numbers never go backwards. *)
let soak_reads s client ~stop =
  let last_seq = Hashtbl.create 4 in
  let i = ref 0 in
  while not (stop ()) do
    incr i;
    let item = soak_items.(!i mod Array.length soak_items) in
    soak_op s (fun () ->
        match Store.Client.read client ~item with
        | Error _ -> false
        | Ok v ->
          if not (locked s (fun () -> Hashtbl.mem s.attempted (item ^ "=" ^ v))) then
            violate s "read of %s returned un-written value %S" item v;
          (match String.split_on_char '#' v with
          | [ _; seq ] ->
            Option.iter
              (fun seq ->
                (match Hashtbl.find_opt last_seq item with
                | Some prev when seq < prev ->
                  violate s "read of %s went backwards: %d after %d" item seq prev
                | _ -> ());
                Hashtbl.replace last_seq item seq)
              (int_of_string_opt seq)
          | _ -> ());
          true);
    Thread.delay 0.02
  done

(* Invariant 3: within 15 s, [client] reads every item's final value. *)
let soak_converge s client =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go remaining =
    if remaining <> [] then
      if Unix.gettimeofday () > deadline then
        violate s "convergence timed out on: %s" (String.concat ", " remaining)
      else begin
        let remaining =
          List.filter
            (fun item ->
              match Store.Client.read client ~item with
              | Ok v -> v <> item ^ "#final"
              | Error _ -> true)
            remaining
        in
        if remaining <> [] then Thread.delay 0.1;
        go remaining
      end
  in
  go (Array.to_list soak_items)

let soak_check s =
  if s.violations <> [] then
    Alcotest.failf "seed %d: %d violation(s):\n%s" s.seed (List.length s.violations)
      (String.concat "\n" (List.rev s.violations))

(* Four seeded fault plans (drops, delay and jitter, mid-frame resets,
   two partition windows, corruption with slow-drip writes), server 3
   Downgrade (leaks MAC-held writes, strips batch proofs), a MAC-fast
   writer and a spreading per-write-signature reader. Invariants 1-3
   above, plus 4: no worker dies and the fd table grows by at most 40
   (the pool may dial a few connections per endpoint that the warmup did
   not, each spliced through a proxy). *)
let test_chaos_soak () =
  let seed = 42 and n = 4 and b = 1 in
  let s = new_soak seed in
  let keyring = soak_keyring ~servers:n in
  let servers = Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ()) in
  let plans =
    Tcpnet.Chaos.
      [|
        plan ~seed ~drop:0.04 ~delay:0.001 ~jitter:0.004 ~reset:0.02 ();
        plan ~seed:(seed + 1) ~drop:0.04 ~delay:0.001 ~jitter:0.004
          ~blackhole:[ (1.5, 2.5); (4.0, 4.8) ] ();
        plan ~seed:(seed + 2) ~drop:0.03 ~corrupt:0.06 ~drip_bytes:512
          ~drip_delay:0.0005 ();
        plan ~seed:(seed + 3) ~drop:0.03 ~delay:0.002 ();
      |]
  in
  with_chaos_cluster ~plans ~servers ~gossip_period:0.15
    ~behavior:(fun i -> if i = 3 then Store.Faults.Downgrade else Store.Faults.Honest)
  @@ fun c ->
  let endpoints = c.endpoints in
  let cfg = soak_config ~n ~b ~op_deadline:4.0 in
  let cfg_alice = { cfg with Store.Client.signing = Store.Client.Mac_fast } in
  let cfg_bob = { cfg with Store.Client.read_spread = true; seed } in
  let connect = soak_connect s ~keyring ~group:"chaos" in
  (* Warm the shared pool (timekeeper thread, self-pipe) before the fd
     baseline, so only connection churn counts as growth. *)
  Tcpnet.Live.run ~endpoints (fun () ->
      ignore (Store.Client.write (connect cfg_alice "alice" alice_key) ~item:"warmup" "w"));
  let fd_baseline = live_fds () in
  let writer_done = ref false in
  let writer =
    soak_worker s "writer" (fun () ->
        Tcpnet.Live.run ~endpoints (fun () ->
            let alice = connect cfg_alice "alice" alice_key in
            soak_writes s alice ~go:(fun i -> i <= 60);
            ignore (Store.Client.disconnect alice)))
  in
  let reader =
    soak_worker s "reader" (fun () ->
        Tcpnet.Live.run ~endpoints (fun () ->
            soak_reads s (connect cfg_bob "bob" bob_key) ~stop:(fun () -> !writer_done)))
  in
  Thread.join writer;
  writer_done := true;
  Thread.join reader;
  Array.iter Tcpnet.Chaos.heal c.proxies;
  let patient cfg = { cfg with Store.Client.op_deadline = 10.0 } in
  Tcpnet.Live.run ~endpoints (fun () ->
      let alice = connect (patient cfg_alice) "alice" alice_key in
      soak_finals s alice;
      (* Disconnect flushes the escalation queue: the final MAC-fast
         writes must be signed and announced before bob, who accepts
         only verifiable evidence, can converge on them. *)
      (match Store.Client.disconnect alice with
      | Ok () -> ()
      | Error e ->
        violate s "post-heal disconnect failed: %s" (Store.Client.error_to_string e));
      soak_converge s (connect (patient cfg_bob) "bob" bob_key));
  let fd_growth = live_fds () - fd_baseline in
  if fd_growth > 40 then violate s "fd table grew by %d (baseline %d)" fd_growth fd_baseline;
  let faults =
    Array.fold_left
      (fun acc p ->
        let st = Tcpnet.Chaos.stats p in
        acc + st.Tcpnet.Chaos.dropped + st.corrupted + st.resets + st.refused)
      0 c.proxies
  in
  if faults = 0 then violate s "the proxies injected no fault";
  soak_check s

(* Asynchronous reconfiguration under chaos (Kuznetsov-Tonkikh): an n=4,
   b=1 fleet has every server replaced, one at a time, by a fresh
   standby through four admin-signed epochs (v2..v5) while a writer and
   a reader keep operating in one session each. Per epoch: start the
   standby, announce the epoch, wait until every new member reports it,
   then drain the departing server, check its snapshot reloads with the
   epoch and the drain flag, and stop it. Clients cross the epochs by
   Stale_epoch adoption. Holds: invariants 1-3, availability >= 99%,
   the writer ends at v5, and the oracle finds nothing in the history. *)
let test_rolling_replacement () =
  let seed = 42 and n = 4 and b = 1 in
  let capacity = 2 * n in
  let s = new_soak seed in
  let admin_key = key_of "admin" in
  let keyring = soak_keyring ~servers:capacity in
  let sconfig =
    {
      (Store.Server.default_config ~n ~b) with
      Store.Server.epoch_admin = Some admin_key.Crypto.Rsa.public;
    }
  in
  let servers =
    Array.init capacity (fun id -> Store.Server.create ~config:sconfig ~id ~keyring ~n ~b ())
  in
  let genesis =
    match Store.Config_epoch.genesis ~servers:(List.init n Fun.id) ~b () with
    | Ok e -> Store.Config_epoch.sign e admin_key
    | Error m -> Alcotest.failf "seed %d: genesis: %s" seed m
  in
  (* Only the initial members hold the genesis; a standby learns the
     epoch that makes it a member from the announcement or from gossip. *)
  for id = 0 to n - 1 do
    Store.Server.set_epoch servers.(id) genesis
  done;
  let plans =
    Array.init capacity (fun i ->
        Tcpnet.Chaos.plan ~seed:(seed + i) ~drop:0.01 ~delay:0.0005 ~jitter:0.002 ())
  in
  with_chaos_cluster ~started:n ~plans ~servers ~gossip_period:0.1 @@ fun c ->
  let endpoints = c.endpoints in
  let cfg =
    {
      (soak_config ~n ~b ~op_deadline:8.0) with
      Store.Client.epoch_admin = Some admin_key.Crypto.Rsa.public;
    }
  in
  let cfg_bob = { cfg with Store.Client.read_spread = true; seed } in
  let connect = soak_connect s ~keyring ~group:"churn" in
  let epoch = ref genesis in
  let envelope request =
    Store.Payload.encode_envelope { Store.Payload.token = None; epoch = 0; request }
  in
  (* Epoch v(2+old) swaps server [old] for standby [n+old]. *)
  let replace old =
    let fresh = n + old and version = 2 + old in
    Sim.Runtime.sleep 0.8;
    c.start_host fresh;
    (* The pool has watched the standby's endpoint refuse connections all
       soak; forget that, so the join is not served a stale backoff. *)
    Tcpnet.Pool.evict (Tcpnet.Pool.shared ()) c.proxy_eps.(fresh);
    let members =
      fresh :: List.filter (fun id -> id <> old) (Store.Config_epoch.servers !epoch)
    in
    (match Store.Config_epoch.next !epoch ~servers:members ~b () with
    | Ok e -> epoch := Store.Config_epoch.sign e admin_key
    | Error m -> failwith (Printf.sprintf "seed %d: epoch v%d: %s" seed version m));
    let dsts = List.sort_uniq compare (old :: members) in
    ignore
      (Sim.Runtime.call_many ~timeout:1.0 ~quorum:(List.length dsts) dsts
         (envelope (Store.Payload.Epoch_announce !epoch)));
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait remaining =
      if remaining <> [] then
        if Unix.gettimeofday () > deadline then
          violate s "epoch v%d did not converge on servers: %s" version
            (String.concat "," (List.map string_of_int remaining))
        else begin
          let behind id =
            match
              Option.bind
                (Sim.Runtime.call_one ~timeout:0.5 id (envelope Store.Payload.Epoch_get))
                Store.Payload.decode_response
            with
            | Some (Store.Payload.Epoch_reply (Some got)) ->
              Store.Config_epoch.version got < version
            | _ -> true
          in
          let remaining = List.filter behind remaining in
          if remaining <> [] then Sim.Runtime.sleep 0.05;
          wait remaining
        end
    in
    wait members;
    Option.iter
      (fun host ->
        Tcpnet.Server_host.drain host;
        let path = Filename.temp_file "soak-snap" ".bin" in
        Store.Server.save_file servers.(old) ~path;
        (match
           Store.Server.load_result ~config:sconfig ~id:old ~keyring ~n ~b ~path ()
         with
        | Ok back
          when Store.Server.epoch_version back = Store.Server.epoch_version servers.(old)
               && Store.Server.draining back -> ()
        | Ok _ -> violate s "server %d: snapshot reloaded without its epoch or drain flag" old
        | Error m -> violate s "server %d: snapshot did not reload: %s" old m);
        Sys.remove path)
      c.hosts.(old);
    c.retire old;
    Tcpnet.Pool.evict (Tcpnet.Pool.shared ()) c.proxy_eps.(old)
  in
  let churn_done = ref false and writer_done = ref false in
  let final_epoch = ref 0 in
  let history = Check.History.create () in
  Check.History.recording history (fun () ->
      let controller =
        soak_worker s "controller" (fun () ->
            Fun.protect
              ~finally:(fun () -> churn_done := true)
              (fun () ->
                Tcpnet.Live.run ~endpoints (fun () ->
                    for old = 0 to n - 1 do
                      replace old
                    done)))
      in
      let writer =
        soak_worker s "writer" (fun () ->
            Tcpnet.Live.run ~endpoints (fun () ->
                let alice = connect cfg "alice" alice_key in
                soak_writes s alice ~go:(fun _ -> not !churn_done);
                soak_finals s alice;
                final_epoch :=
                  Option.fold ~none:0 ~some:Store.Config_epoch.version
                    (Store.Client.epoch alice);
                ignore (Store.Client.disconnect alice)))
      in
      let reader =
        soak_worker s "reader" (fun () ->
            Tcpnet.Live.run ~endpoints (fun () ->
                let bob = connect cfg_bob "bob" bob_key in
                soak_reads s bob ~stop:(fun () -> !writer_done);
                ignore (Store.Client.disconnect bob)))
      in
      Thread.join controller;
      Thread.join writer;
      writer_done := true;
      Thread.join reader;
      (* A fresh session configured with the final membership, as any new
         client would be, must read every item's final value. *)
      Array.iteri (fun i p -> if c.hosts.(i) <> None then Tcpnet.Chaos.heal p) c.proxies;
      let members = Store.Config_epoch.servers !epoch in
      Tcpnet.Live.run ~endpoints (fun () ->
          let bob =
            connect
              { cfg_bob with Store.Client.servers = members; op_deadline = 10.0 }
              "bob" bob_key
          in
          soak_converge s bob;
          ignore (Store.Client.disconnect bob)));
  List.iter
    (fun v -> violate s "oracle: %s" (Check.Oracle.violation_to_string v))
    (Check.Oracle.check (Check.History.events history));
  soak_check s;
  let availability = 100.0 *. float_of_int s.ops_ok /. float_of_int (max 1 s.ops) in
  if availability < 99.0 || !final_epoch <> n + 1 then
    Alcotest.failf "seed %d: %d/%d ops ok (%.2f%%, want >= 99%%), writer ended at v%d (want v%d)"
      seed s.ops_ok s.ops availability !final_epoch (n + 1)

(* The heaviest cases here spend most of their time in real sleeps
   (reconnect backoff, gossip requeue timers).  They run in CI and under
   SOAK=1 locally, and are skipped otherwise to keep the default
   [dune runtest] loop snappy. *)
let soak = Sys.getenv_opt "SOAK" = Some "1"

let soak_case name speed fn =
  Alcotest.test_case name speed (fun () -> if soak then fn () else Alcotest.skip ())

let () =
  Alcotest.run "tcpnet"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversize" `Quick test_frame_oversize_rejected;
          Alcotest.test_case "pipelined codec" `Quick test_pipelined_codec;
          Alcotest.test_case "traced codec" `Quick test_traced_codec;
          QCheck_alcotest.to_alcotest traced_codec_qcheck;
          QCheck_alcotest.to_alcotest header_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest header_hostile_qcheck;
        ] );
      ( "live",
        [
          Alcotest.test_case "write/read" `Quick test_live_write_read;
          Alcotest.test_case "other reader" `Quick test_live_other_reader;
          Alcotest.test_case "crash tolerated" `Quick test_live_crash_tolerated;
          Alcotest.test_case "multi-writer" `Quick test_live_multi_writer;
          Alcotest.test_case "gossip push" `Quick test_gossip_over_tcp;
          Alcotest.test_case "peerless host drops gossip" `Quick
            test_peerless_gossip_bounded;
          Alcotest.test_case "push size flat in items" `Quick test_push_size_flat_in_items;
        ] );
      ( "pool",
        [
          Alcotest.test_case "no fd leak on timeouts" `Quick
            test_no_fd_leak_on_timeouts;
          Alcotest.test_case "pipelined out-of-order" `Quick
            test_pipelined_out_of_order;
          Alcotest.test_case "framed errors" `Quick test_framed_errors;
          Alcotest.test_case "reconnect after restart" `Quick test_pool_reconnect;
          soak_case "suspicion window cap" `Quick test_suspicion_cap;
          Alcotest.test_case "dial deadline" `Quick test_dial_deadline;
          Alcotest.test_case "descriptors above 1024" `Quick test_pool_high_fds;
          Alcotest.test_case "concurrent quorum clients" `Quick
            test_concurrent_quorum_clients;
        ] );
      ( "robustness",
        [
          soak_case "gossip requeue to dead peer" `Quick
            test_gossip_requeue_dead_peer;
          soak_case "pool health and suspicion" `Quick
            test_pool_health_suspicion;
          Alcotest.test_case "evict retires endpoint" `Quick test_pool_evict;
          Alcotest.test_case "snapshots under writes restore" `Quick
            test_snapshot_under_writes;
          Alcotest.test_case "silent replica leaves the op path" `Quick
            test_silent_replica_off_op_path;
          Alcotest.test_case "live context reconstruction" `Quick
            test_live_context_reconstruction;
          Alcotest.test_case "hostile frames" `Quick test_frame_hostile_inputs;
          Alcotest.test_case "chaos determinism" `Quick test_chaos_determinism;
          Alcotest.test_case "chaos proxy faults" `Quick test_chaos_proxy_faults;
          Alcotest.test_case "byzantine hosts" `Quick test_byzantine_hosts;
        ] );
      ( "dispersal",
        [
          Alcotest.test_case "live roundtrip" `Quick test_live_dispersal_roundtrip;
          Alcotest.test_case "chaos holder" `Quick test_live_dispersal_under_chaos;
          Alcotest.test_case "gossip repair" `Quick test_live_fragment_repair;
          Alcotest.test_case "coded savings at 1 MiB" `Quick
            test_live_coded_savings;
        ] );
      ( "tracing",
        [ Alcotest.test_case "stitched trace and violation dump" `Quick test_stitched_trace ] );
      ( "soak",
        [
          soak_case "chaos soak" `Slow test_chaos_soak;
          Alcotest.test_case "rolling replacement" `Slow test_rolling_replacement;
        ] );
    ]
