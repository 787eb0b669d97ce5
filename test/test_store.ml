open Store

(* ------------------------------------------------------------------ *)
(* Fixture                                                            *)
(* ------------------------------------------------------------------ *)

let key_cache : (string, Crypto.Rsa.keypair) Hashtbl.t = Hashtbl.create 8

let key_of name =
  match Hashtbl.find_opt key_cache name with
  | Some k -> k
  | None ->
    let k = Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:("key-" ^ name)) in
    Hashtbl.replace key_cache name k;
    k

type world = {
  n : int;
  b : int;
  keyring : Keyring.t;
  servers : Server.t array;
  hmap : (now:float -> from:int -> string -> string option) array;
}

let clients = [ "alice"; "bob"; "carol"; "mallory" ]

let make_world ?(n = 4) ?(b = 1) ?server_config () =
  let keyring = Keyring.create () in
  List.iter
    (fun c ->
      Keyring.register keyring c (key_of c).Crypto.Rsa.public;
      for server = 0 to n - 1 do
        Keyring.register_mac keyring ~client:c ~server
          (Crypto.Sha256.digest (Printf.sprintf "mac!%s!%d" c server))
      done)
    clients;
  let servers =
    Array.init n (fun id ->
        Server.create ?config:server_config ~id ~keyring ~n ~b ())
  in
  let hmap = Array.map Server.handler servers in
  { n; b; keyring; servers; hmap }

let wrap w i behavior = w.hmap.(i) <- Faults.wrap behavior w.servers.(i)

let handlers w dst ~from request =
  if dst >= 0 && dst < w.n then w.hmap.(dst) ~now:0.0 ~from request else None

let in_world w fn = Sim.Direct.run ~handlers:(handlers w) fn

let connect ?(cfg = Fun.id) ?recover w name ~group =
  let config = cfg (Client.default_config ~n:w.n ~b:w.b) in
  match
    Client.connect ?recover ~config ~uid:name ~key:(key_of name)
      ~keyring:w.keyring ~group ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "connect %s failed: %s" name (Client.error_to_string e)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Client.error_to_string e)

let expect_error = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

let flood w = Gossip.flood ~servers:w.servers

let check_invariants servers =
  Array.iteri
    (fun i s ->
      match Server.invariants s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "server %d invariants: %s" i m)
    servers

(* ------------------------------------------------------------------ *)
(* Uid                                                                *)
(* ------------------------------------------------------------------ *)

let test_uid () =
  let u = Uid.make ~group:"taxes" ~item:"2025" in
  Alcotest.(check string) "to_string" "taxes/2025" (Uid.to_string u);
  (match Uid.of_string "taxes/2025" with
  | Some u' -> Alcotest.(check bool) "roundtrip" true (Uid.equal u u')
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "no slash" true (Uid.of_string "noslash" = None);
  Alcotest.(check bool) "empty item" true (Uid.of_string "g/" = None);
  Alcotest.check_raises "bad make"
    (Invalid_argument "Uid.make: parts must be non-empty and '/'-free")
    (fun () -> ignore (Uid.make ~group:"a/b" ~item:"c"))

(* ------------------------------------------------------------------ *)
(* Stamp                                                              *)
(* ------------------------------------------------------------------ *)

let test_stamp_order () =
  let s1 = Stamp.scalar 1 and s2 = Stamp.scalar 2 in
  Alcotest.(check bool) "scalar order" true (Stamp.newer s2 ~than:s1);
  Alcotest.(check bool) "zero below all" true (Stamp.newer s1 ~than:Stamp.zero);
  let m1 = Stamp.multi ~time:5 ~writer:"alice" ~value:"x" in
  let m2 = Stamp.multi ~time:5 ~writer:"bob" ~value:"y" in
  let m3 = Stamp.multi ~time:6 ~writer:"alice" ~value:"z" in
  Alcotest.(check bool) "time first" true (Stamp.newer m3 ~than:m2);
  Alcotest.(check bool) "writer breaks tie" true (Stamp.newer m2 ~than:m1);
  Alcotest.(check bool) "total" true (Stamp.compare m1 m2 = -Stamp.compare m2 m1)

let test_stamp_fork () =
  let a = Stamp.multi ~time:5 ~writer:"mallory" ~value:"one" in
  let b = Stamp.multi ~time:5 ~writer:"mallory" ~value:"two" in
  let c = Stamp.multi ~time:5 ~writer:"alice" ~value:"two" in
  Alcotest.(check bool) "fork detected" true (Stamp.is_fork a b);
  Alcotest.(check bool) "different writers no fork" false (Stamp.is_fork a c);
  Alcotest.(check bool) "same stamp no fork" false (Stamp.is_fork a a);
  Alcotest.(check bool) "digest binds value" true (Stamp.matches_value a "one");
  Alcotest.(check bool) "digest rejects other" false (Stamp.matches_value a "two")

let test_stamp_codec () =
  let roundtrip s =
    let encoded = Wire.Codec.encode Stamp.encode s in
    Alcotest.(check bool) "roundtrip" true
      (Stamp.equal s (Wire.Codec.decode Stamp.decode encoded))
  in
  roundtrip (Stamp.scalar 0);
  roundtrip (Stamp.scalar 123456789);
  roundtrip (Stamp.multi ~time:42 ~writer:"w" ~value:"v")

(* ------------------------------------------------------------------ *)
(* Context                                                            *)
(* ------------------------------------------------------------------ *)

let u1 = Uid.make ~group:"g" ~item:"x1"
let u2 = Uid.make ~group:"g" ~item:"x2"

let test_context_basics () =
  let c = Context.empty in
  Alcotest.(check bool) "empty find" true (Stamp.equal (Context.find c u1) Stamp.zero);
  let c = Context.set c u1 (Stamp.scalar 3) in
  let c = Context.observe c u1 (Stamp.scalar 2) in
  Alcotest.(check bool) "observe keeps max" true
    (Stamp.equal (Context.find c u1) (Stamp.scalar 3));
  let c = Context.observe c u1 (Stamp.scalar 7) in
  Alcotest.(check bool) "observe advances" true
    (Stamp.equal (Context.find c u1) (Stamp.scalar 7))

let test_context_merge_dominates () =
  let a = Context.of_bindings [ (u1, Stamp.scalar 5); (u2, Stamp.scalar 1) ] in
  let b = Context.of_bindings [ (u1, Stamp.scalar 3); (u2, Stamp.scalar 9) ] in
  let m = Context.merge a b in
  Alcotest.(check bool) "merge pointwise max" true
    (Stamp.equal (Context.find m u1) (Stamp.scalar 5)
    && Stamp.equal (Context.find m u2) (Stamp.scalar 9));
  Alcotest.(check bool) "merge dominates both" true
    (Context.dominates m a && Context.dominates m b);
  Alcotest.(check bool) "a does not dominate b" false (Context.dominates a b);
  Alcotest.(check bool) "empty dominated by all" true
    (Context.dominates a Context.empty)

let context_gen =
  QCheck.map
    (fun entries ->
      Context.of_bindings
        (List.map
           (fun (i, v) ->
             (Uid.make ~group:"g" ~item:("i" ^ string_of_int (i mod 8)), Stamp.scalar (abs v)))
           entries))
    QCheck.(small_list (pair small_nat int))

let prop_merge_commutes =
  QCheck.Test.make ~name:"context merge commutes" ~count:200
    (QCheck.pair context_gen context_gen)
    (fun (a, b) -> Context.equal (Context.merge a b) (Context.merge b a))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"context merge idempotent" ~count:200 context_gen
    (fun a -> Context.equal (Context.merge a a) a)

let prop_merge_dominates =
  QCheck.Test.make ~name:"merge dominates operands" ~count:200
    (QCheck.pair context_gen context_gen)
    (fun (a, b) ->
      let m = Context.merge a b in
      Context.dominates m a && Context.dominates m b)

let prop_context_codec =
  QCheck.Test.make ~name:"context codec roundtrip" ~count:200 context_gen
    (fun c ->
      let enc = Wire.Codec.encode Context.encode c in
      Context.equal c (Wire.Codec.decode Context.decode enc))

(* ------------------------------------------------------------------ *)
(* Quorums                                                            *)
(* ------------------------------------------------------------------ *)

let test_quorum_formulas () =
  Alcotest.(check int) "ctx quorum n=4 b=1" 3 (Quorums.context_quorum ~n:4 ~b:1);
  Alcotest.(check int) "ctx quorum n=7 b=2" 5 (Quorums.context_quorum ~n:7 ~b:2);
  Alcotest.(check int) "ctx quorum n=10 b=3" 7 (Quorums.context_quorum ~n:10 ~b:3);
  Alcotest.(check int) "masking n=7 b=2" 6 (Quorums.masking_quorum ~n:7 ~b:2);
  Alcotest.(check int) "write set b=2" 3 (Quorums.write_set ~b:2);
  Alcotest.(check int) "mw read b=2" 5 (Quorums.mw_read_quorum ~b:2);
  Alcotest.(check int) "majority n=7" 4 (Quorums.majority_quorum ~n:7);
  Alcotest.(check bool) "validate ok" true (Quorums.validate ~n:7 ~b:2 = Ok ());
  Alcotest.(check bool) "validate rejects" true
    (match Quorums.validate ~n:6 ~b:2 with Error _ -> true | Ok () -> false);
  Alcotest.(check int) "max_b 10" 3 (Quorums.max_b ~n:10)

let prop_context_overlap =
  (* The paper's core claim: two context quorums always share at least
     b+1 servers, hence at least one non-faulty one. *)
  QCheck.Test.make ~name:"context quorums overlap in >= b+1" ~count:500
    QCheck.(pair (int_range 1 60) (int_range 0 20))
    (fun (n, b) ->
      QCheck.assume (n >= (3 * b) + 1);
      Quorums.context_overlap ~n ~b >= b + 1
      && Quorums.context_quorum ~n ~b <= n - b (* reachable with b silent *))

let prop_masking_larger =
  QCheck.Test.make ~name:"masking quorum is never smaller" ~count:500
    QCheck.(pair (int_range 1 60) (int_range 0 20))
    (fun (n, b) ->
      QCheck.assume (n >= (3 * b) + 1);
      Quorums.masking_quorum ~n ~b >= Quorums.context_quorum ~n ~b)

(* ------------------------------------------------------------------ *)
(* Payload codec                                                      *)
(* ------------------------------------------------------------------ *)

let sample_write =
  {
    Payload.uid = u1;
    stamp = Stamp.scalar 9;
    wctx = Some (Context.of_bindings [ (u1, Stamp.scalar 9); (u2, Stamp.scalar 2) ]);
    value = "hello world";
    writer = "alice";
    evidence = Payload.Sig (String.make 64 '\x01');
    frags = None;
  }

let test_payload_roundtrips () =
  let requests =
    [
      Payload.Ctx_read { client = "alice"; group = "g" };
      Payload.Ctx_write
        {
          client = "alice";
          records =
            [ ("g", { Payload.seq = 3; ctx = Context.empty; evidence = Payload.Sig "sig" }) ];
        };
      Payload.Ctx_write { client = "alice"; records = [] };
      Payload.Read_query { uid = u1; ship = true };
      Payload.Value_read { uid = u2; stamp = Stamp.scalar 4 };
      Payload.Write_req sample_write;
      Payload.Read_query { uid = u1; ship = false };
      Payload.Group_query { group = "g" };
      Payload.Ctx_check { client = "alice"; group = "g"; known = String.make 16 'k' };
      Payload.Ctx_write
        {
          client = "alice";
          records =
            [
              ( "g",
                {
                  Payload.seq = 4;
                  ctx = Context.of_bindings [ (u1, Stamp.scalar 2) ];
                  evidence =
                    Payload.Batch
                      {
                        root = String.make 32 'r';
                        size = 3;
                        proof = { Crypto.Merkle.index = 2; path = [ (String.make 32 'p', `Left) ] };
                        root_sig = "rs";
                      };
                } );
              ("h", { Payload.seq = 1; ctx = Context.empty; evidence = Payload.Sig "" });
            ];
        };
      Payload.Gossip_push { writes = [ sample_write; sample_write ]; have = [ (u1, Stamp.scalar 9) ]; epoch = None };
    ]
  in
  List.iter
    (fun request ->
      let env = { Payload.token = Some "tok"; epoch = 0; request } in
      match Payload.decode_envelope (Payload.encode_envelope env) with
      | Some env' ->
        Alcotest.(check bool) "envelope roundtrip" true (env = env')
      | None -> Alcotest.fail "envelope decode failed")
    requests;
  let responses =
    [
      Payload.Ctx_reply None;
      Payload.Ctx_same;
      Payload.Ctx_written [];
      Payload.Ctx_written [ Payload.Stored; Payload.Refused "bad context signature"; Payload.Stored ];
      Payload.Ctx_reply (Some { Payload.seq = 1; ctx = Context.empty; evidence = Payload.Sig "s" });
      Payload.Read_reply { stamps = [ Stamp.scalar 2 ]; writer_faulty = true; write = None };
      Payload.Read_reply { stamps = []; writer_faulty = false; write = None };
      Payload.Value_reply (Some sample_write);
      Payload.Value_reply None;
      Payload.Ack;
      Payload.Read_reply
        { stamps = [ Stamp.scalar 3; Stamp.scalar 2 ]; writer_faulty = false; write = Some sample_write };
      Payload.Group_reply [ sample_write ];
      Payload.Denied "nope";
    ]
  in
  List.iter
    (fun response ->
      match Payload.decode_response (Payload.encode_response response) with
      | Some r -> Alcotest.(check bool) "response roundtrip" true (r = response)
      | None -> Alcotest.fail "response decode failed")
    responses;
  Alcotest.(check bool) "garbage rejected" true
    (Payload.decode_envelope "\xff\xff\xff" = None)

(* ------------------------------------------------------------------ *)
(* Access control                                                     *)
(* ------------------------------------------------------------------ *)

let test_access_control () =
  let svc = Access_control.create_service ~secret:"s3cret" in
  let token =
    Access_control.issue svc ~client:"alice" ~group:"g" ~rights:Access_control.Read_write
      ~expires:100.0
  in
  let check ?expect_client ~now ~token ~op () =
    Access_control.check svc ~now ~token ?expect_client ~group:"g" ~op ()
  in
  Alcotest.(check bool) "authorized" true
    (check ~now:1.0 ~token:(Some token) ~op:`Write ~expect_client:"alice" () = Authorized);
  Alcotest.(check bool) "read ok" true
    (check ~now:1.0 ~token:(Some token) ~op:`Read () = Authorized);
  Alcotest.(check bool) "expired" true
    (check ~now:200.0 ~token:(Some token) ~op:`Read () <> Authorized);
  Alcotest.(check bool) "missing" true
    (check ~now:1.0 ~token:None ~op:`Read () <> Authorized);
  Alcotest.(check bool) "wrong client" true
    (check ~now:1.0 ~token:(Some token) ~op:`Write ~expect_client:"bob" () <> Authorized);
  let ro =
    Access_control.issue svc ~client:"alice" ~group:"g" ~rights:Access_control.Read_only
      ~expires:100.0
  in
  Alcotest.(check bool) "read-only blocks writes" true
    (check ~now:1.0 ~token:(Some ro) ~op:`Write ~expect_client:"alice" () <> Authorized);
  let tampered = String.sub token 0 (String.length token - 2) ^ "zz" in
  Alcotest.(check bool) "tampered" true
    (check ~now:1.0 ~token:(Some tampered) ~op:`Read () <> Authorized);
  let other = Access_control.create_service ~secret:"other" in
  let foreign =
    Access_control.issue other ~client:"alice" ~group:"g"
      ~rights:Access_control.Read_write ~expires:100.0
  in
  Alcotest.(check bool) "foreign issuer" true
    (check ~now:1.0 ~token:(Some foreign) ~op:`Read () <> Authorized)

(* ------------------------------------------------------------------ *)
(* Keyring                                                            *)
(* ------------------------------------------------------------------ *)

let test_keyring () =
  let k = Keyring.create () in
  Keyring.register k "alice" (key_of "alice").Crypto.Rsa.public;
  Keyring.register k "alice" (key_of "alice").Crypto.Rsa.public (* idempotent *);
  Alcotest.(check bool) "known" true (Keyring.known k "alice");
  Alcotest.(check bool) "unknown" false (Keyring.known k "eve");
  Alcotest.check_raises "rebind rejected"
    (Invalid_argument "Keyring.register: uid already bound: alice") (fun () ->
      Keyring.register k "alice" (key_of "bob").Crypto.Rsa.public)

(* ------------------------------------------------------------------ *)
(* Single-writer protocol (Fig. 2)                                    *)
(* ------------------------------------------------------------------ *)

let test_write_read_roundtrip () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"med" in
      ok (Client.write alice ~item:"records" "blood type O+");
      Alcotest.(check string) "read back" "blood type O+"
        (ok (Client.read alice ~item:"records")));
  (* The write reached exactly b+1 servers; the rest are empty. *)
  let uid = Uid.make ~group:"med" ~item:"records" in
  let have =
    Array.fold_left
      (fun acc s -> acc + if Server.current_write s uid <> None then 1 else 0)
      0 w.servers
  in
  Alcotest.(check int) "b+1 copies before gossip" (w.b + 1) have

let test_read_other_client () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"news" in
      ok (Client.write alice ~item:"letter" "school closed friday");
      let bob = connect w "bob" ~group:"news" in
      Alcotest.(check string) "single writer, many readers" "school closed friday"
        (ok (Client.read bob ~item:"letter")))

let test_read_not_found () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      match expect_error (Client.read alice ~item:"ghost") with
      | Client.Not_found _ -> ()
      | e -> Alcotest.failf "expected Not_found, got %s" (Client.error_to_string e))

let test_overwrite_returns_latest () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.write alice ~item:"x" "v2");
      ok (Client.write alice ~item:"x" "v3");
      Alcotest.(check string) "latest" "v3" (ok (Client.read alice ~item:"x")))

(* A reader whose preferred servers are behind must not regress below its
   context: the read expands to more servers (Fig. 2's "contact
   additional servers"). *)
let test_mrc_expansion_beats_stale_servers () =
  let w = make_world () in
  let stale_first cfg = { cfg with Client.servers = [ 2; 3; 0; 1 ] } in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.disconnect alice));
  flood w;
  (* Everyone has v1. Now v2 lands only on servers 0 and 1. *)
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v2");
      ok (Client.disconnect alice));
  in_world w (fun () ->
      (* Bob first reads v2 via servers 0,1 then prefers stale 2,3: MRC
         must still return v2. *)
      let bob = connect w "bob" ~group:"g" in
      Alcotest.(check string) "sees v2" "v2" (ok (Client.read bob ~item:"x")));
  in_world w (fun () ->
      let bob = connect w "bob" ~group:"g" ~cfg:stale_first in
      Alcotest.(check string) "fresh client on stale servers gets v1 (allowed)"
        "v1"
        (ok (Client.read bob ~item:"x")));
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      (* Alice's own context demands v2 even on stale-first order. *)
      let alice_stale = connect w "alice" ~group:"g" ~cfg:stale_first in
      ignore alice;
      Alcotest.(check string) "context forces expansion" "v2"
        (ok (Client.read alice_stale ~item:"x")))

let test_session_context_roundtrip () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.disconnect alice));
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      Alcotest.(check bool) "context restored" true
        (Stamp.compare
           (Context.find (Client.context alice) (Uid.make ~group:"g" ~item:"x"))
           Stamp.zero
        > 0);
      (* Read-your-writes across sessions. *)
      Alcotest.(check string) "read your writes" "v1"
        (ok (Client.read alice ~item:"x")));
  in_world w (fun () ->
      (* Sessions are independent: a third connect/disconnect cycle works. *)
      let alice = connect w "alice" ~group:"g" in
      ok (Client.disconnect alice))

let test_disconnected_session_rejects_ops () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.disconnect alice);
      (match Client.read alice ~item:"x" with
      | Error Client.Disconnected -> ()
      | _ -> Alcotest.fail "expected Disconnected");
      match Client.write alice ~item:"x" "v" with
      | Error Client.Disconnected -> ()
      | _ -> Alcotest.fail "expected Disconnected")

let test_context_reconstruction () =
  let w = make_world () in
  (* Session crashes without disconnect: context write-back never runs. *)
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.write alice ~item:"y" "w1"));
  flood w;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~recover:`Reconstruct in
      let ctx = Client.context alice in
      Alcotest.(check int) "both items recovered" 2 (Context.cardinal ctx);
      Alcotest.(check string) "reads fresh" "v1" (ok (Client.read alice ~item:"x"));
      (* Timestamps must continue above recovered ones. *)
      ok (Client.write alice ~item:"x" "v2");
      Alcotest.(check string) "new write wins" "v2" (ok (Client.read alice ~item:"x")))

(* ------------------------------------------------------------------ *)
(* Causal consistency                                                 *)
(* ------------------------------------------------------------------ *)

let cc cfg = { cfg with Client.consistency = Client.CC }

let test_cc_pulls_dependencies () =
  let w = make_world () in
  (* x1=v1 known everywhere; then x1=v2 and a dependent write x2=w2 land
     only on servers 0,1. A reader that sees w2 via gossip on server 2
     must then refuse x1=v1. *)
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~cfg:cc in
      ok (Client.write alice ~item:"x1" "v1"));
  flood w;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~cfg:cc ~recover:`Reconstruct in
      ok (Client.write alice ~item:"x1" "v2");
      let bob = connect w "bob" ~group:"g" ~cfg:cc in
      Alcotest.(check string) "bob reads v2" "v2" (ok (Client.read bob ~item:"x1"));
      ok (Client.write bob ~item:"x2" "based-on-v2"));
  (* Push only bob's x2 write to server 2 (guard off: accepted). *)
  let x2 = Uid.make ~group:"g" ~item:"x2" in
  let x2_write =
    match Server.current_write w.servers.(0) x2 with
    | Some wr -> wr
    | None -> Alcotest.fail "x2 missing at server 0"
  in
  ignore
    (Server.handle w.servers.(2) ~now:0.0 ~from:0
       { Payload.token = None; epoch = 0; request = Payload.Gossip_push { writes = [ x2_write ]; have = []; epoch = None } });
  in_world w (fun () ->
      let carol =
        connect w "carol" ~group:"g"
          ~cfg:(fun c -> { (cc c) with Client.servers = [ 2; 3; 0; 1 ] })
      in
      Alcotest.(check string) "carol reads x2 from server 2" "based-on-v2"
        (ok (Client.read carol ~item:"x2"));
      (* CC: carol's context now requires x1 >= v2's stamp; servers 2,3
         only have v1, so the read must expand and return v2. *)
      Alcotest.(check string) "cc forbids causally overwritten v1" "v2"
        (ok (Client.read carol ~item:"x1")))

let test_mrc_does_not_pull_dependencies () =
  (* Identical setup but MRC: carol may legitimately read the stale v1. *)
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x1" "v1"));
  flood w;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~recover:`Reconstruct in
      ok (Client.write alice ~item:"x1" "v2");
      let bob = connect w "bob" ~group:"g" in
      Alcotest.(check string) "bob reads v2" "v2" (ok (Client.read bob ~item:"x1"));
      ok (Client.write bob ~item:"x2" "based-on-v2"));
  let x2 = Uid.make ~group:"g" ~item:"x2" in
  let x2_write = Option.get (Server.current_write w.servers.(0) x2) in
  ignore
    (Server.handle w.servers.(2) ~now:0.0 ~from:0
       { Payload.token = None; epoch = 0; request = Payload.Gossip_push { writes = [ x2_write ]; have = []; epoch = None } });
  in_world w (fun () ->
      let carol =
        connect w "carol" ~group:"g"
          ~cfg:(fun c -> { c with Client.servers = [ 2; 3; 0; 1 ] })
      in
      Alcotest.(check string) "carol reads x2" "based-on-v2"
        (ok (Client.read carol ~item:"x2"));
      Alcotest.(check string) "mrc happily returns v1" "v1"
        (ok (Client.read carol ~item:"x1")))

(* ------------------------------------------------------------------ *)
(* Byzantine servers                                                  *)
(* ------------------------------------------------------------------ *)

let test_corrupt_value_detected () =
  let w = make_world () in
  wrap w 0 Faults.Corrupt_value;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "precious");
      (* Server 0 is polled first and serves garbage; the signature check
         fails and the read falls through to server 1. *)
      Alcotest.(check string) "survives corruption" "precious"
        (ok (Client.read alice ~item:"x")))

let test_equivocating_meta_rejected () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1"));
  flood w;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~recover:`Reconstruct in
      ok (Client.write alice ~item:"x" "v2"));
  (* Server 0 now claims an enormous timestamp but can only serve what it
     has. Readers with a fresh context must not regress. *)
  wrap w 0 Faults.Equivocate;
  in_world w (fun () ->
      let bob = connect w "bob" ~group:"g" in
      Alcotest.(check string) "reads true latest" "v2" (ok (Client.read bob ~item:"x")))

let test_crash_and_silent_servers () =
  let w = make_world ~n:4 ~b:1 () in
  wrap w 3 Faults.Crash;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      Alcotest.(check string) "one crash tolerated" "v1"
        (ok (Client.read alice ~item:"x"));
      ok (Client.disconnect alice));
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      Alcotest.(check string) "context survives crash" "v1"
        (ok (Client.read alice ~item:"x")))

let test_stale_server_context () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.disconnect alice));
  wrap w 0 Faults.Stale;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v2");
      ok (Client.disconnect alice));
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      (* Server 0 returns the seq-1 context; the client picks the latest
         validly-signed one (seq 2) and so must read v2. *)
      Alcotest.(check string) "latest context wins" "v2"
        (ok (Client.read alice ~item:"x")))

let test_forged_write_rejected_by_servers () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let forged = Faults.forge_write ~keyring:w.keyring ~uid ~value:"evil" ~writer:"alice" in
  (match
     Server.handle w.servers.(0) ~now:0.0 ~from:9
       { Payload.token = None; epoch = 0; request = Payload.Gossip_push { writes = [ forged ]; have = []; epoch = None } }
   with
  | Some Payload.Ack -> ()
  | _ -> Alcotest.fail "gossip should be acked");
  Alcotest.(check bool) "forgery not stored" true
    (Server.current_write w.servers.(0) uid = None)

let test_unknown_writer_rejected () =
  let w = make_world () in
  in_world w (fun () ->
      let eve_key = Crypto.Rsa.generate ~bits:512 (Crypto.Prng.create ~seed:"eve") in
      let config = Client.default_config ~n:w.n ~b:w.b in
      match
        Client.connect ~config ~uid:"eve" ~key:eve_key ~keyring:w.keyring ~group:"g" ()
      with
      | Error _ -> ()
      | Ok eve -> (
        match Client.write eve ~item:"x" "sneaky" with
        | Error Client.Write_rejected -> ()
        | Error e -> Alcotest.failf "expected rejection, got %s" (Client.error_to_string e)
        | Ok () -> Alcotest.fail "unregistered writer accepted"))

(* ------------------------------------------------------------------ *)
(* Multi-writer protocol (section 5.3)                                *)
(* ------------------------------------------------------------------ *)

let mw cfg = { cfg with Client.mode = Client.Multi_writer }
let mw_guarded_world ?(n = 4) ?(b = 1) () =
  let config =
    { (Server.default_config ~n ~b) with Server.malicious_client_guard = true }
  in
  make_world ~n ~b ~server_config:config ()

let test_multi_writer_two_clients () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"plan" ~cfg:mw in
      let bob = connect w "bob" ~group:"plan" ~cfg:mw in
      ok (Client.write alice ~item:"doc" "alice-draft");
      ok (Client.write bob ~item:"doc" "bob-draft");
      (* Both observers converge on the same winner. *)
      let carol = connect w "carol" ~group:"plan" ~cfg:mw in
      let v1 = ok (Client.read carol ~item:"doc") in
      let mallory = connect w "mallory" ~group:"plan" ~cfg:mw in
      let v2 = ok (Client.read mallory ~item:"doc") in
      Alcotest.(check string) "agreement" v1 v2;
      Alcotest.(check string) "later timestamp wins" "bob-draft" v1)

let test_multi_writer_monotonic_per_reader () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"plan" ~cfg:mw in
      let carol = connect w "carol" ~group:"plan" ~cfg:mw in
      ok (Client.write alice ~item:"doc" "v1");
      let first = ok (Client.read carol ~item:"doc") in
      Alcotest.(check string) "first" "v1" first;
      let bob = connect w "bob" ~group:"plan" ~cfg:mw in
      ok (Client.write bob ~item:"doc" "v2");
      let second = ok (Client.read carol ~item:"doc") in
      Alcotest.(check string) "no regression" "v2" second)

let test_fork_detection () =
  let w = make_world () in
  (* Mallory signs two different values under one timestamp and sends one
     to some servers, the other to the rest. *)
  let uid = Uid.make ~group:"plan" ~item:"doc" in
  let stamp1 = Stamp.multi ~time:77 ~writer:"mallory" ~value:"one" in
  let stamp2 = Stamp.multi ~time:77 ~writer:"mallory" ~value:"two" in
  let mk stamp value =
    Signing.sign_write ~key:(key_of "mallory") ~writer:"mallory" ~uid ~stamp value
  in
  let w1 = mk stamp1 "one" and w2 = mk stamp2 "two" in
  let push i write =
    ignore
      (Server.handle w.servers.(i) ~now:0.0 ~from:(-1)
         { Payload.token = None; epoch = 0; request = Payload.Write_req write })
  in
  Array.iteri (fun i _ -> push i w1) w.servers;
  Array.iteri (fun i _ -> push i w2) w.servers;
  Alcotest.(check bool) "servers flag mallory" true
    (Array.for_all (fun s -> Server.is_writer_faulty s "mallory") w.servers);
  in_world w (fun () ->
      let carol = connect w "carol" ~group:"plan" ~cfg:mw in
      match expect_error (Client.read carol ~item:"doc") with
      | Client.Writer_faulty _ -> ()
      | e -> Alcotest.failf "expected Writer_faulty, got %s" (Client.error_to_string e))

let test_malicious_context_held () =
  let w = mw_guarded_world () in
  let uid = Uid.make ~group:"plan" ~item:"doc" in
  (* Mallory's write names a causal predecessor that does not exist
     anywhere (spurious huge timestamp on item "dep"). *)
  let dep = Uid.make ~group:"plan" ~item:"dep" in
  let bogus_ctx =
    Context.of_bindings
      [ (dep, Stamp.multi ~time:999999999 ~writer:"mallory" ~value:"?") ]
  in
  let stamp = Stamp.multi ~time:10 ~writer:"mallory" ~value:"poison" in
  let poisoned =
    Signing.sign_write ~key:(key_of "mallory") ~writer:"mallory" ~uid ~stamp
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
  Alcotest.(check bool) "held, not announced" true
    (Array.for_all
       (fun s -> Server.current_write s uid = None && Server.pending_count s uid = 1)
       w.servers);
  (* Readers never see the poisoned write, and their contexts are not
     polluted by its spurious timestamps. *)
  in_world w (fun () ->
      let carol =
        connect w "carol" ~group:"plan" ~cfg:(fun c -> { (mw c) with Client.read_retries = 0 })
      in
      (match Client.read carol ~item:"doc" with
      | Error (Client.Not_found _) -> ()
      | Error e -> Alcotest.failf "unexpected error %s" (Client.error_to_string e)
      | Ok v -> Alcotest.failf "poisoned value visible: %s" v);
      Alcotest.(check bool) "context clean" true
        (Stamp.equal (Context.find (Client.context carol) dep) Stamp.zero));
  check_invariants w.servers

let test_guard_releases_when_deps_arrive () =
  let w = mw_guarded_world () in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"plan" ~cfg:(fun c -> cc (mw c))
      in
      ok (Client.write alice ~item:"dep" "base");
      (* CC write of doc depends on dep, which every server has: it must
         be announced immediately. *)
      ok (Client.write alice ~item:"doc" "final");
      let bob = connect w "bob" ~group:"plan" ~cfg:(fun c -> cc (mw c)) in
      Alcotest.(check string) "visible" "final" (ok (Client.read bob ~item:"doc")));
  check_invariants w.servers

let test_guard_holds_out_of_order_gossip () =
  let w = mw_guarded_world () in
  let dep = Uid.make ~group:"plan" ~item:"dep" in
  let doc = Uid.make ~group:"plan" ~item:"doc" in
  let dep_stamp = Stamp.multi ~time:5 ~writer:"alice" ~value:"base" in
  let dep_write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:dep
      ~stamp:dep_stamp "base"
  in
  let doc_ctx = Context.of_bindings [ (dep, dep_stamp) ] in
  let doc_write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:doc
      ~stamp:(Stamp.multi ~time:6 ~writer:"alice" ~value:"final")
      ~wctx:doc_ctx "final"
  in
  let push i write =
    ignore
      (Server.handle w.servers.(i) ~now:0.0 ~from:(-1)
         { Payload.token = None; epoch = 0; request = Payload.Write_req write })
  in
  (* doc arrives before dep: held. *)
  push 0 doc_write;
  Alcotest.(check int) "held" 1 (Server.pending_count w.servers.(0) doc);
  Alcotest.(check bool) "not announced" true
    (Server.current_write w.servers.(0) doc = None);
  (* dep arrives: doc is released. *)
  push 0 dep_write;
  Alcotest.(check int) "drained" 0 (Server.pending_count w.servers.(0) doc);
  Alcotest.(check bool) "announced now" true
    (Server.current_write w.servers.(0) doc <> None);
  check_invariants w.servers

let test_eager_report_masked_by_vouching () =
  let w = mw_guarded_world () in
  wrap w 0 Faults.Eager_report;
  let doc = Uid.make ~group:"plan" ~item:"doc" in
  let dep = Uid.make ~group:"plan" ~item:"dep" in
  let bogus_ctx =
    Context.of_bindings [ (dep, Stamp.multi ~time:424242 ~writer:"mallory" ~value:"?") ]
  in
  let poisoned =
    Signing.sign_write ~key:(key_of "mallory") ~writer:"mallory" ~uid:doc
      ~stamp:(Stamp.multi ~time:9 ~writer:"mallory" ~value:"poison")
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
  in_world w (fun () ->
      let carol =
        connect w "carol" ~group:"plan"
          ~cfg:(fun c -> { (mw c) with Client.read_retries = 0 })
      in
      (* Only the eager server vouches for the held write: b+1 = 2
         matching servers are required, so it is not accepted. *)
      match Client.read carol ~item:"doc" with
      | Error (Client.Not_found _) -> ()
      | Error e -> Alcotest.failf "unexpected error %s" (Client.error_to_string e)
      | Ok v -> Alcotest.failf "eager report leaked: %s" v);
  check_invariants w.servers

let test_log_keeps_overwritten_value () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"plan" ~cfg:mw in
      ok (Client.write alice ~item:"doc" "v1");
      ok (Client.write alice ~item:"doc" "v2"));
  let doc = Uid.make ~group:"plan" ~item:"doc" in
  let log = Server.log_writes w.servers.(0) doc in
  Alcotest.(check int) "current + overwritten" 2 (List.length log);
  Alcotest.(check string) "newest first" "v2" (List.hd log).Payload.value

(* ------------------------------------------------------------------ *)
(* One-round reads                                                    *)
(* ------------------------------------------------------------------ *)

let test_one_read_roundtrip () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "vv");
      Alcotest.(check string) "inline read" "vv" (ok (Client.read alice ~item:"x")))

let test_one_read_one_round_cost () =
  List.iter
    (fun (n, b) ->
      let w = make_world ~n ~b () in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" in
          ok (Client.write alice ~item:"x" "v");
          Metrics.reset ();
          ok (Result.map ignore (Client.read alice ~item:"x"));
          let m = Metrics.read () in
          (* One round: b+1 requests + b+1 full-write replies. *)
          Alcotest.(check int)
            (Printf.sprintf "inline read msgs (n=%d b=%d)" n b)
            (2 * (b + 1))
            m.Metrics.messages;
          Alcotest.(check int) "one verification" 1 m.Metrics.verifies))
    [ (4, 1); (7, 2); (10, 3) ]

let test_one_read_falls_back () =
  (* Preferred servers are stale: the first round misses, the standard
     expansion path still finds the fresh value. *)
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.disconnect alice));
  flood w;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v2");
      ok (Client.disconnect alice));
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.servers = [ 2; 3; 0; 1 ] })
      in
      Alcotest.(check string) "fallback finds fresh" "v2"
        (ok (Client.read alice ~item:"x")))

let test_one_read_survives_corruption () =
  let w = make_world () in
  wrap w 0 Faults.Corrupt_value;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "precious");
      Alcotest.(check string) "corrupt inline reply skipped" "precious"
        (ok (Client.read alice ~item:"x")))

(* ------------------------------------------------------------------ *)
(* Timestamp jitter (update-count privacy, section 5.2)               *)
(* ------------------------------------------------------------------ *)

let test_timestamp_jitter () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.timestamp_jitter = 1000 })
      in
      for i = 1 to 5 do
        ok (Client.write alice ~item:"x" (string_of_int i))
      done;
      Alcotest.(check string) "still reads latest" "5" (ok (Client.read alice ~item:"x")));
  (* With jitter, the final timestamp must exceed the write count by far,
     so a server cannot infer how many updates happened. *)
  match Server.current_write w.servers.(0) uid with
  | Some writes ->
    Alcotest.(check bool) "timestamp >> update count" true
      (Stamp.time writes.Payload.stamp > 50)
  | None -> Alcotest.fail "missing write"

let test_jitter_monotonic =
  QCheck.Test.make ~name:"jittered stamps stay strictly increasing" ~count:50
    QCheck.small_nat
    (fun seed ->
      let w = make_world () in
      in_world w (fun () ->
          let alice =
            connect w "alice" ~group:"g"
              ~cfg:(fun c -> { c with Client.timestamp_jitter = 17; seed })
          in
          let uid = Uid.make ~group:"g" ~item:"x" in
          let stamps = ref [] in
          for i = 1 to 10 do
            ok (Client.write alice ~item:"x" (string_of_int i));
            stamps := Context.find (Client.context alice) uid :: !stamps
          done;
          let rec strictly_increasing = function
            | a :: (b :: _ as rest) ->
              Stamp.compare b a < 0 && strictly_increasing rest
            | _ -> true
          in
          (* stamps list is newest-first *)
          strictly_increasing !stamps))

(* ------------------------------------------------------------------ *)
(* Log erasure (section 5.3: drop once newer value is at 2b+1)        *)
(* ------------------------------------------------------------------ *)

let test_log_erasure_via_gossip () =
  let w = make_world ~n:4 ~b:1 () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.write alice ~item:"x" "v2"));
  (* Before dissemination: v1 still retained in the log at server 0. *)
  Alcotest.(check int) "log keeps v1" 2 (List.length (Server.log_writes w.servers.(0) uid));
  flood w;
  (* After full dissemination every server knows >= 2b+1 = 3 servers hold
     v2, so v1 is erased from logs. *)
  Alcotest.(check bool) "holder evidence collected" true
    (Array.exists
       (fun s ->
         match Server.current_write s uid with
         | Some w' -> Server.holder_count s uid w'.Payload.stamp >= 3
         | None -> false)
       w.servers);
  Alcotest.(check bool) "old value erased somewhere" true
    (Array.exists (fun s -> List.length (Server.log_writes s uid) = 1) w.servers)

let test_erased_write_not_readmitted () =
  let w = make_world ~n:4 ~b:1 () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.write alice ~item:"x" "v2"));
  let v1_write =
    match Server.log_writes w.servers.(0) uid with
    | [ _; v1 ] -> v1
    | _ -> Alcotest.fail "expected two log entries"
  in
  flood w;
  (* Find a server that erased v1 and replay v1 at it: the watermark must
     reject the stale resurrection. *)
  let victim =
    match
      Array.find_opt (fun s -> List.length (Server.log_writes s uid) = 1) w.servers
    with
    | Some s -> s
    | None -> Alcotest.fail "no server erased v1"
  in
  ignore
    (Server.handle victim ~now:0.0 ~from:9
       {
         Payload.token = None; epoch = 0;
         request = Payload.Gossip_push { writes = [ v1_write ]; have = []; epoch = None };
       });
  Alcotest.(check int) "replayed v1 stays out" 1
    (List.length (Server.log_writes victim uid))

(* ------------------------------------------------------------------ *)
(* Authorization end to end                                           *)
(* ------------------------------------------------------------------ *)

let test_auth_enforced () =
  let svc = Access_control.create_service ~secret:"store-secret" in
  let n = 4 and b = 1 in
  let config = { (Server.default_config ~n ~b) with Server.auth = Some svc } in
  let w = make_world ~n ~b ~server_config:config () in
  let token rights =
    Access_control.issue svc ~client:"alice" ~group:"g" ~rights ~expires:1e9
  in
  in_world w (fun () ->
      (* No token: context read returns Denied everywhere -> no quorum of
         usable replies, but connect still succeeds with an empty context
         only if Denied counts as a reply... it must NOT grant access. *)
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.token = Some (token Access_control.Read_write) })
      in
      ok (Client.write alice ~item:"x" "v1");
      Alcotest.(check string) "authorized client works" "v1"
        (ok (Client.read alice ~item:"x"));
      ok (Client.disconnect alice));
  in_world w (fun () ->
      let reader =
        connect w "bob" ~group:"g"
          ~cfg:(fun c ->
            let t =
              Access_control.issue svc ~client:"bob" ~group:"g"
                ~rights:Access_control.Read_only ~expires:1e9
            in
            { c with Client.token = Some t })
      in
      Alcotest.(check string) "read-only can read" "v1" (ok (Client.read reader ~item:"x"));
      match Client.write reader ~item:"x" "vandalism" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "read-only token allowed a write");
  in_world w (fun () ->
      let intruder =
        connect w "carol" ~group:"g" ~cfg:(fun c -> { c with Client.read_retries = 0 })
      in
      match Client.read intruder ~item:"x" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unauthenticated read succeeded")

(* ------------------------------------------------------------------ *)
(* First rounds ranked by transport health                            *)
(* ------------------------------------------------------------------ *)

(* Answer the transport-health effect the way a live transport with the
   [suspected] servers failing fast would; every other effect goes on to
   the interpreter underneath. *)
let with_suspected suspected fn =
  let open Effect.Deep in
  match_with fn ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sim.Runtime.Rank dsts ->
            Some
              (fun (k : (a, _) continuation) ->
                continue k
                  (List.partition (fun d -> not (List.mem d suspected)) dsts))
          | _ -> None);
    }

let test_ranked_first_round () =
  let w = make_world () in
  let uid item = Uid.make ~group:"g" ~item in
  let holds i item = Server.current_write w.servers.(i) (uid item) <> None in
  in_world w (fun () ->
      let c = connect w "alice" ~group:"g" in
      Alcotest.(check (list int)) "identity when all healthy" [ 0; 1 ]
        (Client.server_set c 2);
      Alcotest.(check (list int)) "every server, in order" [ 0; 1; 2; 3 ]
        (Client.server_set c 4);
      with_suspected [ 0 ] (fun () ->
          Alcotest.(check (list int)) "suspected node skipped" [ 1; 2 ]
            (Client.server_set c 2);
          Alcotest.(check (list int)) "suspected node last" [ 1; 2; 3; 0 ]
            (Client.server_set c 4);
          (* The write's first round is that set: replica 0 never sees it. *)
          ok (Client.write c ~item:"x" "v");
          Alcotest.(check (list bool)) "write reached 1 and 2 only"
            [ false; true; true; false ]
            (List.init 4 (fun i -> holds i "x")));
      with_suspected [ 2; 0 ] (fun () ->
          Alcotest.(check (list int)) "stable on both sides" [ 1; 3; 0; 2 ]
            (Client.server_set c 4)));
  (* Spreading shuffles the healthy servers and keeps suspected ones
     last. *)
  in_world w (fun () ->
      let c =
        connect w "bob" ~group:"g" ~cfg:(fun c -> { c with Client.read_spread = true })
      in
      with_suspected [ 0 ] (fun () ->
          let firsts = Hashtbl.create 3 in
          for _ = 1 to 60 do
            match Client.server_set c 4 with
            | [ a; b; c; 0 ] ->
              Alcotest.(check (list int)) "a permutation of the healthy" [ 1; 2; 3 ]
                (List.sort compare [ a; b; c ]);
              Hashtbl.replace firsts a ()
            | set ->
              Alcotest.failf "suspected not last: [%s]"
                (String.concat ";" (List.map string_of_int set))
          done;
          Alcotest.(check int) "the healthy part is shuffled" 3 (Hashtbl.length firsts)));
  (* Evidence decides membership and its order; health ranks after it. *)
  let evidence = Fault_evidence.create ~servers:[ 0; 1; 2; 3 ] ~b:1 in
  Fault_evidence.report_proof evidence ~server:1 Fault_evidence.Invalid_signature;
  in_world w (fun () ->
      let c =
        connect w "carol" ~group:"g" ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      with_suspected [ 0 ] (fun () ->
          Alcotest.(check (list int)) "proven-faulty excluded" [ 2; 3 ]
            (Client.server_set c 2);
          Alcotest.(check (list int)) "excluded even at full size" [ 2; 3; 0 ]
            (Client.server_set c 4)))

(* ------------------------------------------------------------------ *)
(* Dynamic quorums via fault evidence                                 *)
(* ------------------------------------------------------------------ *)

let test_evidence_unit () =
  let e = Fault_evidence.create ~servers:[ 0; 1; 2; 3 ] ~b:1 in
  Alcotest.(check int) "initial b" 1 (Fault_evidence.effective_b e);
  Fault_evidence.report_suspicion e ~server:2;
  Alcotest.(check (list int)) "suspected demoted" [ 0; 1; 3; 2 ]
    (Fault_evidence.preferred_servers e);
  Fault_evidence.clear_suspicion e ~server:2;
  Alcotest.(check (list int)) "cleared" [ 0; 1; 2; 3 ] (Fault_evidence.preferred_servers e);
  Fault_evidence.report_proof e ~server:0 Fault_evidence.Invalid_signature;
  Fault_evidence.report_proof e ~server:0 Fault_evidence.Stamp_regression (* idempotent *);
  Alcotest.(check int) "b drops" 0 (Fault_evidence.effective_b e);
  Alcotest.(check (list int)) "proven excluded" [ 1; 2; 3 ]
    (Fault_evidence.preferred_servers e);
  Alcotest.(check bool) "proof kind kept" true
    (Fault_evidence.proof_of e 0 = Some Fault_evidence.Invalid_signature);
  Alcotest.(check (list int)) "proven list" [ 0 ] (Fault_evidence.proven e)

let test_evidence_proves_corrupt_server () =
  let w = make_world ~n:4 ~b:1 () in
  wrap w 0 Faults.Corrupt_value;
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      ok (Client.write alice ~item:"x" "v1");
      (* The read encounters the corrupted reply, proves server 0 faulty,
         and still succeeds via an honest server. *)
      Alcotest.(check string) "read ok" "v1" (ok (Client.read alice ~item:"x"));
      Alcotest.(check bool) "server 0 proven" true (Fault_evidence.is_proven evidence 0);
      Alcotest.(check int) "effective b now 0" 0 (Fault_evidence.effective_b evidence);
      (* Subsequent reads shrink: only b_eff+1 = 1 server polled, and it
         is never the proven-faulty one. *)
      Metrics.reset ();
      Alcotest.(check string) "shrunk read" "v1" (ok (Client.read alice ~item:"x"));
      let m = Metrics.read () in
      Alcotest.(check int) "one-server read round"
        (Quorums.messages (Quorums.cost Read_hit ~n:4 ~b:0 Single_writer))
        m.Metrics.messages)

let test_evidence_shrinks_context_quorum () =
  let w = make_world ~n:4 ~b:1 () in
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  Fault_evidence.report_proof evidence ~server:3 Fault_evidence.Forged_context;
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      ok (Client.write alice ~item:"x" "v1");
      Metrics.reset ();
      ok (Client.disconnect alice);
      let m = Metrics.read () in
      (* q drops from ceil((4+1+1)/2)=3 to ceil((4+0+1)/2)=3... for n=4
         the rounding hides it; what must hold is that the proven server
         was never contacted and the session still works. *)
      Alcotest.(check bool) "quorum reachable without proven server" true
        (m.Metrics.messages
        <= Quorums.messages (Quorums.cost Context_store ~n:4 ~b:1 Single_writer)));
  (* Larger n shows the shrink: q 7 -> 6 for n=10, b 3 -> 2, counted
     over the nine servers not proven faulty. *)
  let w = make_world ~n:10 ~b:3 () in
  let evidence = Fault_evidence.create ~servers:(List.init 10 Fun.id) ~b:3 in
  Fault_evidence.report_proof evidence ~server:9 Fault_evidence.Forged_context;
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      ok (Client.write alice ~item:"x" "v1");
      Metrics.reset ();
      ok (Client.disconnect alice);
      Alcotest.(check int) "ctx quorum shrinks to 2*ceil((9+2+1)/2)=12"
        (Quorums.messages (Quorums.cost Context_store ~n:9 ~b:2 Single_writer))
        (Metrics.read ()).Metrics.messages)

let test_evidence_never_goes_negative () =
  let e = Fault_evidence.create ~servers:[ 0; 1; 2; 3 ] ~b:1 in
  Fault_evidence.report_proof e ~server:0 Fault_evidence.Invalid_signature;
  Fault_evidence.report_proof e ~server:1 Fault_evidence.Invalid_signature;
  Alcotest.(check int) "clamped at 0" 0 (Fault_evidence.effective_b e)

(* ------------------------------------------------------------------ *)
(* Coded bulk transport (the live dispersal path in Client)           *)
(* ------------------------------------------------------------------ *)

(* A tiny threshold and chunk so modest test values still exercise the
   full streaming machinery: multi-round Frag_put scatter and ranged
   Frag_get gather. *)
let coded_cfg c =
  { c with Client.dispersal_threshold = 256; dispersal_chunk = 1024 }

let big_value n = String.init n (fun i -> Char.chr ((i * 131 + i / 251) land 0xff))

let current_write_exn w i uid =
  match Server.current_write w.servers.(i) uid with
  | Some mw -> mw
  | None -> Alcotest.failf "server %d has no metadata for %s" i (Uid.to_string uid)

let prop_dispersal_plan_decode =
  QCheck.Test.make ~name:"dispersal plan/decode any-k-subset roundtrip" ~count:80
    QCheck.(triple (string_of_size Gen.(0 -- 400)) (int_range 1 5) (int_range 0 4))
    (fun (value, k, extra) ->
      let n = k + extra in
      let stripe = k * 16 in
      let meta, frags = Dispersal.plan ~k ~n ~stripe value in
      let indexed = Array.to_list (Array.mapi (fun i f -> (i + 1, f)) frags) in
      (* the last k fragments suffice, and extras never hurt *)
      let subset = List.filteri (fun i _ -> i >= n - k) indexed in
      Dispersal.meta_ok meta
      && meta.Payload.total_length = String.length value
      && List.for_all2
           (fun d f -> d = Crypto.Sha256.digest f)
           meta.Payload.digests (Array.to_list frags)
      && Dispersal.decode_fragments meta subset = Some value
      && Dispersal.decode_fragments meta indexed = Some value
      && (k = 1 || Dispersal.decode_fragments meta (List.tl subset) = None))

(* The property's shrunk counterexample, pinned: an empty value dispersed
   2-of-2 decodes from both fragments and from neither one alone. *)
let test_dispersal_empty_value_needs_k () =
  let meta, frags = Dispersal.plan ~k:2 ~n:2 ~stripe:32 "" in
  let indexed = [ (1, frags.(0)); (2, frags.(1)) ] in
  Alcotest.(check (option string)) "k fragments" (Some "")
    (Dispersal.decode_fragments meta indexed);
  Alcotest.(check (option string)) "k-1 fragments" None
    (Dispersal.decode_fragments meta (List.tl indexed));
  Alcotest.(check (option string)) "no fragments" None
    (Dispersal.decode_fragments meta [])

let prop_dispersal_refragment =
  QCheck.Test.make ~name:"dispersal refragment rebuilds any index" ~count:60
    QCheck.(pair (string_of_size Gen.(1 -- 300)) (int_range 1 4))
    (fun (value, k) ->
      let n = k + 2 in
      let meta, frags = Dispersal.plan ~k ~n ~stripe:(k * 32) value in
      Array.for_all
        (fun i -> Dispersal.refragment meta ~index:(i + 1) value = frags.(i))
        (Array.init n Fun.id))

let prop_dispersal_corrupt_fragment_detected =
  QCheck.Test.make ~name:"dispersal digest catches a flipped byte" ~count:60
    QCheck.(pair (string_of_size Gen.(1 -- 200)) (int_range 1 4))
    (fun (value, k) ->
      let n = k + 1 in
      let meta, frags = Dispersal.plan ~k ~n ~stripe:(k * 16) value in
      let f = frags.(0) in
      let bad = Bytes.of_string f in
      Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
      List.hd meta.Payload.digests <> Crypto.Sha256.digest (Bytes.to_string bad))

let test_coded_write_read_roundtrip () =
  let w = make_world () in
  let value = big_value 10_000 in
  let dw0 = Metrics.dispersed_writes () and dr0 = Metrics.dispersed_reads () in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"g" in
      ok (Client.write alice ~item:"blob" value);
      Alcotest.(check string) "writer reads back" value
        (ok (Client.read alice ~item:"blob"));
      (* a different client reconstructs too, end to end *)
      let bob = connect ~cfg:coded_cfg w "bob" ~group:"g" in
      Alcotest.(check string) "other client reconstructs" value
        (ok (Client.read bob ~item:"blob")));
  Alcotest.(check bool) "dispersal counters moved" true
    (Metrics.dispersed_writes () > dw0 && Metrics.dispersed_reads () > dr0);
  (* the metadata write lands on the b+1 write set first; gossip carries
     it to the rest, whose staged fragments only then turn verified *)
  flood w;
  let uid = Uid.make ~group:"g" ~item:"blob" in
  let mw = current_write_exn w 0 uid in
  Alcotest.(check int) "metadata value is a digest root" 32
    (String.length mw.Payload.value);
  (match mw.Payload.frags with
  | Some meta ->
    Alcotest.(check int) "k = b+1" 2 meta.Payload.k;
    Alcotest.(check int) "descriptor covers the membership" 4 meta.Payload.m;
    Alcotest.(check int) "descriptor length" (String.length value)
      meta.Payload.total_length;
    Alcotest.(check string) "value field is the digest root"
      (Dispersal.meta_root meta) mw.Payload.value
  | None -> Alcotest.fail "write was not dispersed");
  Array.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "server %d holds one verified fragment" (Server.id s))
        1 (Server.fragment_count s))
    w.servers

let test_coded_threshold_gate () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"g" in
      ok (Client.write alice ~item:"small" (String.make 255 'x'));
      ok (Client.write alice ~item:"large" (String.make 256 'y')));
  let small = current_write_exn w 0 (Uid.make ~group:"g" ~item:"small") in
  Alcotest.(check bool) "below threshold stays replicated" true
    (small.Payload.frags = None && small.Payload.value = String.make 255 'x');
  let large = current_write_exn w 0 (Uid.make ~group:"g" ~item:"large") in
  Alcotest.(check bool) "at threshold goes dispersed" true
    (large.Payload.frags <> None)

let test_coded_storage_savings () =
  let value = big_value 32_768 in
  let stored cfg =
    let w = make_world () in
    in_world w (fun () ->
        let alice = connect ~cfg w "alice" ~group:"g" in
        ok (Client.write alice ~item:"blob" value));
    flood w;
    Array.fold_left (fun acc s -> acc + Server.storage_bytes s) 0 w.servers
  in
  let coded = stored coded_cfg in
  let replicated = stored Fun.id in
  Alcotest.(check bool)
    (Printf.sprintf "coded stores %d vs replicated %d (want >= 1.5x less)"
       coded replicated)
    true
    (coded * 3 <= replicated * 2)

let test_coded_read_survives_faulty_holders () =
  let w = make_world () in
  let value = big_value 5_000 in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"g" in
      ok (Client.write alice ~item:"blob" value);
      flood w;
      (* b = 1 holder flips bits in every reply: its fragment fails the
         descriptor digest, the reader strikes it and tops up *)
      wrap w 1 Faults.Corrupt_value;
      let bob = connect ~cfg:coded_cfg w "bob" ~group:"g" in
      Alcotest.(check string) "reconstructs past a corrupting holder" value
        (ok (Client.read bob ~item:"blob"));
      (* a crashed holder on top of that still leaves k = 2 honest ones,
         but exceeds what the b = 1 write quorum promises; drop the
         corrupter back to honest first to stay in the threat model *)
      wrap w 1 Faults.Honest;
      wrap w 2 Faults.Crash;
      let carol = connect ~cfg:coded_cfg w "carol" ~group:"g" in
      Alcotest.(check string) "reconstructs past a crashed holder" value
        (ok (Client.read carol ~item:"blob")))

let test_coded_not_enough_fragments () =
  let w = make_world () in
  let value = big_value 4_000 in
  let uid = Uid.make ~group:"g" ~item:"blob" in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"g" in
      ok (Client.write alice ~item:"blob" value);
      flood w;
      let stamp = (current_write_exn w 0 uid).Payload.stamp in
      (* losing b holders' fragments is survivable *)
      Server.drop_fragment w.servers.(3) uid ~stamp ~index:4;
      Alcotest.(check string) "survives b fragment losses" value
        (ok (Client.read alice ~item:"blob"));
      (* past b+1 losses only one fragment remains: k = 2 is unreachable,
         and the reader says so rather than serving garbage *)
      Server.drop_fragment w.servers.(2) uid ~stamp ~index:3;
      Server.drop_fragment w.servers.(1) uid ~stamp ~index:2;
      match expect_error (Client.read alice ~item:"blob") with
      | Client.Not_enough_fragments { needed; got; _ } ->
        Alcotest.(check int) "needed" 2 needed;
        Alcotest.(check int) "got" 1 got
      | e -> Alcotest.failf "unexpected: %s" (Client.error_to_string e))

let test_coded_orphans_stay_invisible () =
  let w = make_world () in
  let value = big_value 2_000 in
  let uid = Uid.make ~group:"g" ~item:"orphan" in
  let meta, fragments = Dispersal.plan ~k:2 ~n:4 value in
  let root = Dispersal.meta_root meta in
  let stamp = Stamp.multi ~time:1 ~writer:"alice" ~value:root in
  (* scatter fragments with NO metadata write: the crashed-writer case *)
  Array.iteri
    (fun i data ->
      let request =
        Payload.Frag_put
          { uid; stamp; writer = "alice"; index = i + 1; seq = 0; last = true; data }
      in
      match
        Server.handle w.servers.(i) ~now:0.0 ~from:(-1)
          { Payload.token = None; epoch = 0; request }
      with
      | Some Payload.Ack -> ()
      | _ -> Alcotest.failf "fragment %d not acknowledged" (i + 1))
    fragments;
  Array.iter
    (fun s ->
      Alcotest.(check int) "no verified fragment" 0 (Server.fragment_count s);
      Alcotest.(check int) "one sealed orphan" 1 (Server.orphan_fragment_count s))
    w.servers;
  (* orphans are never served *)
  (match
     Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
       {
         Payload.token = None;
         epoch = 0;
         request = Payload.Frag_get { uid; stamp; index = 1; off = 0; len = 100 };
       }
   with
  | Some (Payload.Frag_reply None) -> ()
  | _ -> Alcotest.fail "orphan fragment was served");
  (* and without the metadata quorum the item simply does not exist:
     the metadata write is the sole commit point *)
  in_world w (fun () ->
      let bob = connect ~cfg:coded_cfg w "bob" ~group:"g" in
      match expect_error (Client.read bob ~item:"orphan") with
      | Client.Not_found _ -> ()
      | e -> Alcotest.failf "unexpected: %s" (Client.error_to_string e))

let test_coded_fragment_repair () =
  let w = make_world () in
  let value = big_value 6_000 in
  let uid = Uid.make ~group:"g" ~item:"blob" in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"g" in
      ok (Client.write alice ~item:"blob" value));
  flood w;
  let mw = current_write_exn w 0 uid in
  let stamp = mw.Payload.stamp in
  let meta = Option.get mw.Payload.frags in
  (* one holder loses its disk *)
  let dropped = Server.drop_all_fragments w.servers.(2) in
  Alcotest.(check int) "one fragment dropped" 1 dropped;
  Alcotest.(check int) "worklist sees it" 1
    (List.length (Server.missing_fragments w.servers.(2)));
  let repairs0 = Metrics.frag_repairs () in
  Alcotest.(check int) "anti-entropy restores exactly it" 1
    (Gossip.repair_once ~servers:w.servers ());
  Alcotest.(check int) "repair counted in metrics" (repairs0 + 1)
    (Metrics.frag_repairs ());
  Alcotest.(check int) "worklist drained" 0
    (List.length (Server.missing_fragments w.servers.(2)));
  (match Server.fragment w.servers.(2) uid ~stamp ~index:3 with
  | Some f ->
    Alcotest.(check string) "restored bytes match the descriptor"
      (List.nth meta.Payload.digests 2)
      (Crypto.Sha256.digest f)
  | None -> Alcotest.fail "fragment not restored");
  (* the repaired holder carries real weight: kill the two never-dropped
     odd holders and the read must still succeed through it *)
  in_world w (fun () ->
      wrap w 1 Faults.Crash;
      Server.drop_fragment w.servers.(3) uid ~stamp ~index:4;
      let bob = connect ~cfg:coded_cfg w "bob" ~group:"g" in
      Alcotest.(check string) "read through the repaired fragment" value
        (ok (Client.read bob ~item:"blob")))

let test_coded_snapshot_keeps_fragments () =
  let w = make_world () in
  let value = big_value 3_000 in
  let uid = Uid.make ~group:"g" ~item:"blob" in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"g" in
      ok (Client.write alice ~item:"blob" value));
  flood w;
  let stamp = (current_write_exn w 1 uid).Payload.stamp in
  let original = Option.get (Server.fragment w.servers.(1) uid ~stamp ~index:2) in
  let blob = Server.snapshot w.servers.(1) in
  (match Server.restore ~id:1 ~keyring:w.keyring ~n:w.n ~b:w.b blob with
  | Some restored ->
    Alcotest.(check int) "fragment survives restart" 1
      (Server.fragment_count restored);
    Alcotest.(check (option string)) "same bytes" (Some original)
      (Server.fragment restored uid ~stamp ~index:2);
    (* the restored server serves reads: swap it into the world *)
    w.servers.(1) <- restored;
    w.hmap.(1) <- Server.handler restored
  | None -> Alcotest.fail "restore failed");
  in_world w (fun () ->
      wrap w 0 Faults.Crash;
      Server.drop_fragment w.servers.(3) uid ~stamp ~index:4;
      let bob = connect ~cfg:coded_cfg w "bob" ~group:"g" in
      Alcotest.(check string) "read leans on the restored fragment" value
        (ok (Client.read bob ~item:"blob")));
  check_invariants w.servers

(* ------------------------------------------------------------------ *)
(* Gossip                                                             *)
(* ------------------------------------------------------------------ *)

let test_gossip_flood_converges () =
  let w = make_world ~n:7 ~b:2 () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1"));
  let uid = Uid.make ~group:"g" ~item:"x" in
  let have () =
    Array.fold_left
      (fun acc s -> acc + if Server.current_write s uid <> None then 1 else 0)
      0 w.servers
  in
  Alcotest.(check int) "b+1 before" 3 (have ());
  flood w;
  Alcotest.(check int) "all after flood" 7 (have ())

let test_gossip_exchange_progress () =
  let w = make_world ~n:7 ~b:2 () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1"));
  let rng = Sim.Srng.create 99 in
  let pushed = Gossip.exchange_once ~servers:w.servers ~rng () in
  Alcotest.(check bool) "first round pushes" true (pushed > 0)

(* ------------------------------------------------------------------ *)
(* Confidentiality                                                    *)
(* ------------------------------------------------------------------ *)

let test_confidential_roundtrip () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"med" in
      let sealed = Confidential.make ~client:alice ~key:"family-secret" () in
      ok (Confidential.write sealed ~item:"records" "diagnosis: healthy");
      Alcotest.(check string) "decrypts" "diagnosis: healthy"
        (ok (Confidential.read sealed ~item:"records")));
  (* Servers hold only ciphertext. *)
  let uid = Uid.make ~group:"med" ~item:"records" in
  let stored = Option.get (Server.current_write w.servers.(0) uid) in
  Alcotest.(check bool) "ciphertext at rest" false
    (stored.Payload.value = "diagnosis: healthy");
  Alcotest.(check bool) "plaintext not a substring" true
    (String.length stored.Payload.value > String.length "diagnosis: healthy")

let test_confidential_wrong_key () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"med" in
      let sealed = Confidential.make ~client:alice ~key:"right" () in
      ok (Confidential.write sealed ~item:"r" "secret");
      let bob = connect w "bob" ~group:"med" in
      let snooping = Confidential.make ~client:bob ~key:"wrong" () in
      match Confidential.read_opt snooping ~item:"r" with
      | Ok None -> ()
      | Ok (Some v) -> Alcotest.failf "wrong key decrypted: %s" v
      | Error e -> Alcotest.failf "unexpected error: %s" (Client.error_to_string e))

let test_key_rotation () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"med" in
      let sealed = Confidential.make ~client:alice ~key:"k1" () in
      ok (Confidential.write sealed ~item:"a" "va");
      ok (Confidential.write sealed ~item:"b" "vb");
      ok (Confidential.rotate_key sealed ~new_key:"k2" ~items:[ "a"; "b" ]);
      Alcotest.(check string) "a readable after rotation" "va"
        (ok (Confidential.read sealed ~item:"a"));
      Alcotest.(check string) "b readable after rotation" "vb"
        (ok (Confidential.read sealed ~item:"b"));
      (* Old key no longer decrypts current state. *)
      let old = Confidential.make ~client:alice ~key:"k1" () in
      match Confidential.read_opt old ~item:"a" with
      | Ok None -> ()
      | _ -> Alcotest.fail "old key still decrypts")

(* Encrypt, then disperse: Confidential over a coded client at n=7,
   b=2. Servers hold only coded ciphertext, a read survives one crashed
   and one corrupting server, and a wrong key reads nothing. *)
let test_confidential_dispersed () =
  let w = make_world ~n:7 ~b:2 () in
  let secret = "leave everything to the cat" in
  let value =
    String.concat "\n" (List.init 40 (fun i -> Printf.sprintf "clause %d: %s" i secret))
  in
  let uid = Uid.make ~group:"vault" ~item:"will" in
  let contains hay =
    let nl = String.length secret and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = secret || go (i + 1)) in
    go 0
  in
  in_world w (fun () ->
      let alice = connect ~cfg:coded_cfg w "alice" ~group:"vault" in
      let sealed = Confidential.make ~client:alice ~key:"vault-key" () in
      ok (Confidential.write sealed ~item:"will" value));
  flood w;
  Array.iter
    (fun s ->
      let i = Server.id s in
      let mw = current_write_exn w i uid in
      Alcotest.(check bool) (Printf.sprintf "server %d: dispersed" i) true
        (mw.Payload.frags <> None);
      Alcotest.(check bool) (Printf.sprintf "server %d: metadata opaque" i) false
        (contains mw.Payload.value);
      match Server.fragment s uid ~stamp:mw.Payload.stamp ~index:(i + 1) with
      | Some f ->
        Alcotest.(check bool) (Printf.sprintf "server %d: fragment opaque" i) false
          (contains f);
        Alcotest.(check bool) (Printf.sprintf "server %d: about 1/k" i) true
          (String.length f < String.length value / 2)
      | None -> Alcotest.failf "server %d holds no fragment" i)
    w.servers;
  wrap w 2 Faults.Crash;
  wrap w 5 Faults.Corrupt_value;
  in_world w (fun () ->
      let bob = connect ~cfg:coded_cfg w "bob" ~group:"vault" in
      Alcotest.(check bool) "reassembles ciphertext, not plaintext" true
        (ok (Client.read bob ~item:"will") <> value);
      let sealed = Confidential.make ~client:bob ~key:"vault-key" () in
      Alcotest.(check string) "reads back past a crashed and a corrupting server"
        value
        (ok (Confidential.read sealed ~item:"will"));
      let snooping = Confidential.make ~client:bob ~key:"wrong" () in
      match Confidential.read_opt snooping ~item:"will" with
      | Ok None -> ()
      | Ok (Some v) -> Alcotest.failf "wrong key decrypted: %s" v
      | Error e -> Alcotest.failf "unexpected error: %s" (Client.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Audit                                                              *)
(* ------------------------------------------------------------------ *)

let test_audit_proofs () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.write alice ~item:"x" "v2");
      ok (Client.write alice ~item:"y" "w1"));
  let server = w.servers.(0) in
  let writes = Server.audit_log server in
  Alcotest.(check int) "three announced writes" 3 (List.length writes);
  let target = List.nth writes 1 in
  (match Audit.prove_write server target with
  | None -> Alcotest.fail "no proof"
  | Some (proof, commitment) ->
    Alcotest.(check bool) "proof verifies" true
      (Audit.check_proof commitment target proof);
    let other = List.nth writes 0 in
    Alcotest.(check bool) "proof rejects other write" false
      (Audit.check_proof commitment other proof));
  flood w;
  Alcotest.(check bool) "logs agree after flood" true (Audit.roots_agree w.servers);
  check_invariants w.servers

let test_audit_detects_divergence () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1"));
  (* No flood: only b+1 servers saw the write. *)
  Alcotest.(check bool) "divergence visible" false (Audit.roots_agree w.servers);
  check_invariants w.servers

(* An equivocating writer hands different values under one stamp to
   different servers. Cross-server root comparison exposes the split,
   and inclusion proofs localize it: each server can prove exactly what
   it was given, so the conflicting pair of proofs convicts the writer
   (or the server that fabricated an entry). *)
let test_audit_localizes_equivocation () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let stamp = Stamp.scalar 1 in
  let key = key_of "mallory" in
  let wa = Signing.sign_write ~key ~writer:"mallory" ~uid ~stamp "va" in
  let wb = Signing.sign_write ~key ~writer:"mallory" ~uid ~stamp "vb" in
  let deliver i wr =
    match
      Server.handle w.servers.(i) ~now:0.0 ~from:(-9)
        { Payload.token = None; epoch = 0; request = Payload.Write_req wr }
    with
    | Some Payload.Ack -> ()
    | _ -> Alcotest.failf "server %d rejected the write" i
  in
  List.iter (fun i -> deliver i wa) [ 0; 1; 3 ];
  deliver 2 wb;
  Alcotest.(check bool) "equivocation splits the roots" false
    (Audit.roots_agree w.servers);
  Alcotest.(check bool) "the honest majority agrees" true
    (Audit.roots_agree [| w.servers.(0); w.servers.(1); w.servers.(3) |]);
  (* Localization: server 2 proves it was given vb; a server that never
     saw vb cannot produce a proof for it. *)
  (match Audit.prove_write w.servers.(2) wb with
  | None -> Alcotest.fail "server 2 cannot prove its own entry"
  | Some (proof, commitment) ->
    Alcotest.(check bool) "divergent entry provable where it lives" true
      (Audit.check_proof commitment wb proof);
    Alcotest.(check bool) "proof does not transfer to the other value" false
      (Audit.check_proof commitment wa proof));
  Alcotest.(check bool) "no proof of vb from an honest server" true
    (Audit.prove_write w.servers.(0) wb = None);
  check_invariants w.servers

(* A tamperer that advertises a sky-high stamp in read replies but, when
   the client fetches that stamp, hands over its genuine (stale) freshest
   write.  The signed value is older than the claim, which is exactly the
   stamp-regression misbehaviour the client can prove.  A shipped write
   stays genuine.  Everything else (writes, gossip ingestion) passes
   through to the real server. *)
let stamp_regression_tamperer server ~now ~from payload =
  match Payload.decode_envelope payload with
  | None -> None
  | Some env ->
    let freshest uid =
      match
        Server.handle server ~now ~from
          { env with Payload.request = Payload.Read_query { uid; ship = false } }
      with
      | Some (Payload.Read_reply { stamps = s :: _; _ }) -> Some s
      | _ -> None
    in
    let resp =
      match env.Payload.request with
      | Payload.Read_query _ ->
        (match Server.handle server ~now ~from env with
        | Some (Payload.Read_reply ({ stamps = _ :: _; _ } as r)) ->
          Some
            (Payload.Read_reply { r with stamps = [ Stamp.scalar 1_000_000_000 ] })
        | r -> r)
      | Payload.Value_read { uid; stamp = _ } ->
        (match freshest uid with
        | Some s ->
          Server.handle server ~now ~from
            { env with Payload.request = Payload.Value_read { uid; stamp = s } }
        | None -> Some (Payload.Value_reply None))
      | _ -> Server.handle server ~now ~from env
    in
    Option.map Payload.encode_response resp

(* A tampering server rolled back to stale state that inflates its meta
   claims: the client proves the misbehaviour (stamp regression), the
   evidence store excludes the server, and auditing first exposes the
   rollback and then confirms gossip repaired it. *)
let test_evidence_and_audit_catch_rollback () =
  let w = make_world () in
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      ok (Client.write alice ~item:"x" "v1");
      let stale = Server.snapshot w.servers.(0) in
      ok (Client.write alice ~item:"x" "v2");
      flood w;
      (* Roll server 0 back to the v1-only state and make it lie about
         freshness: its meta replies now claim a stamp it cannot back. *)
      (match
         Server.restore ~id:0 ~keyring:w.keyring ~n:w.n ~b:w.b stale
       with
      | None -> Alcotest.fail "snapshot did not restore"
      | Some rolled_back ->
        w.servers.(0) <- rolled_back;
        w.hmap.(0) <- stamp_regression_tamperer rolled_back);
      Alcotest.(check bool) "audit exposes the rollback" false
        (Audit.roots_agree w.servers);
      (* Alice's context demands v2; server 0's inflated claim sorts
         first, the fetch comes back too old, and that mismatch is a
         proof of misbehaviour. The read still succeeds elsewhere. *)
      Alcotest.(check string) "read survives the tamperer" "v2"
        (ok (Client.read alice ~item:"x"));
      Alcotest.(check bool) "server 0 proven faulty" true
        (Fault_evidence.is_proven evidence 0);
      Alcotest.(check bool) "proof is a stamp regression" true
        (Fault_evidence.proof_of evidence 0
        = Some Fault_evidence.Stamp_regression);
      Alcotest.(check int) "effective b drops" 0
        (Fault_evidence.effective_b evidence);
      Alcotest.(check bool) "reads now avoid the proven server" true
        (not (List.mem 0 (Fault_evidence.preferred_servers evidence))));
  (* Anti-entropy repair (section 5.2): an honest peer forwards its whole
     signed write for the item; the rolled-back server re-verifies the
     client signature and reinstalls v2 (the tamperer corrupts replies,
     not ingestion), and the audit roots re-converge. *)
  let uid = Uid.make ~group:"g" ~item:"x" in
  (match Server.current_write w.servers.(1) uid with
  | None -> Alcotest.fail "honest server lost v2"
  | Some w2 ->
    ignore
      (Server.handle w.servers.(0) ~now:0.0 ~from:1
         {
           Payload.token = None; epoch = 0;
           request = Payload.Gossip_push { writes = [ w2 ]; have = []; epoch = None };
         }));
  Alcotest.(check bool) "audit confirms repair after re-push" true
    (Audit.roots_agree w.servers);
  check_invariants w.servers

(* ------------------------------------------------------------------ *)
(* Section 6's costs (Quorums.cost)                                   *)
(* ------------------------------------------------------------------ *)

(* One session writes, reads, closes and reconnects; then a second
   session reads through a stale shipper, the first server the write
   skipped. Each op's measured counts must be [Quorums.cost]'s, whatever
   the consistency level and data class. With b = 0 the shipper is the
   whole read set, so a stale one leaves no stamp to fetch: no miss. *)
let prop_op_costs =
  let gen =
    QCheck.Gen.(
      int_range 0 4 >>= fun b ->
      int_range ((3 * b) + 1) 13 >>= fun n ->
      oneofl [ Client.MRC; Client.CC ] >>= fun consistency ->
      oneofl [ Client.Single_writer; Client.Multi_writer ] >|= fun mode ->
      (n, b, consistency, mode))
  in
  let print (n, b, consistency, mode) =
    Printf.sprintf "n=%d b=%d %s %s" n b
      (if consistency = Client.CC then "CC" else "MRC")
      (if mode = Client.Multi_writer then "multi-writer" else "single-writer")
  in
  QCheck.Test.make ~name:"ops cost what Quorums.cost says" ~count:500
    (QCheck.make ~print gen)
    (fun (n, b, consistency, mode) ->
      let w = make_world ~n ~b () in
      let cfg c = { c with Client.consistency; mode } in
      let costs name op fn =
        Metrics.reset ();
        ignore (fn ());
        let m = Metrics.read () and c = Quorums.cost op ~n ~b mode in
        let show = Printf.sprintf "msgs %d signs %d verifies %d+%d (server+client) digests %d" in
        let measured = show m.messages m.signs m.server_verifies m.verifies m.digests
        and expected =
          show (Quorums.messages c) c.signs c.server_verifies c.client_verifies c.digests
        in
        measured = expected
        || QCheck.Test.fail_reportf "%s: measured %s, expected %s" name measured expected
      in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" ~cfg in
          let miss () =
            let stale = (Quorums.cost Write ~n ~b mode).requests in
            let servers = stale :: List.filter (( <> ) stale) (List.init n Fun.id) in
            let bob = connect w "bob" ~group:"g" ~cfg:(fun c -> { (cfg c) with Client.servers }) in
            costs "read miss" Read_miss (fun () -> ok (Client.read bob ~item:"x"))
          in
          costs "write" Write (fun () -> ok (Client.write alice ~item:"x" "v"))
          && costs "read hit" Read_hit (fun () -> ok (Client.read alice ~item:"x"))
          && costs "context store" Context_store (fun () -> ok (Client.disconnect alice))
          && costs "context read" Context_read (fun () -> connect w "alice" ~group:"g" ~cfg)
          && (b = 0 || miss ())))

(* The same counts at fixed sizes, each against the section 6 formula
   written out, so a change to [Quorums.cost] itself shows here too. *)

let snapshot_around fn =
  Metrics.reset ();
  let v = fn () in
  (v, Metrics.read ())

let check_cost label op ~n ~b data_class (m : Metrics.snapshot) =
  let c = Quorums.cost op ~n ~b data_class in
  Alcotest.(check int) (label ^ ": messages = Quorums.cost") (Quorums.messages c) m.messages;
  Alcotest.(check int) (label ^ ": signs = Quorums.cost") c.signs m.signs;
  Alcotest.(check int) (label ^ ": server verifies = Quorums.cost") c.server_verifies
    m.server_verifies;
  Alcotest.(check int) (label ^ ": client verifies = Quorums.cost") c.client_verifies
    m.verifies

let test_costs_context_ops () =
  List.iter
    (fun (n, b) ->
      let w = make_world ~n ~b () in
      let q = Quorums.context_quorum ~n ~b in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" in
          ok (Client.write alice ~item:"x" "v");
          let _, m = snapshot_around (fun () -> ok (Client.disconnect alice)) in
          Alcotest.(check int)
            (Printf.sprintf "ctx store msgs n=%d b=%d" n b)
            (2 * q) m.Metrics.messages;
          Alcotest.(check int) "one signature" 1 m.Metrics.signs;
          Alcotest.(check int) "q server verifies" q m.Metrics.server_verifies;
          check_cost "ctx store" Context_store ~n ~b Single_writer m);
      in_world w (fun () ->
          let (_ : Client.t), m = snapshot_around (fun () -> connect w "alice" ~group:"g") in
          Alcotest.(check int)
            (Printf.sprintf "ctx read msgs n=%d b=%d" n b)
            (2 * q) m.Metrics.messages;
          Alcotest.(check int) "best case one verification" 1 m.Metrics.verifies;
          check_cost "ctx read" Context_read ~n ~b Single_writer m))
    [ (4, 1); (7, 2); (10, 3); (13, 4) ]

let test_costs_data_write () =
  List.iter
    (fun (n, b) ->
      let w = make_world ~n ~b () in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" in
          let _, m = snapshot_around (fun () -> ok (Client.write alice ~item:"x" "v")) in
          (* b+1 requests, each acknowledged. *)
          Alcotest.(check int)
            (Printf.sprintf "write msgs = 2(b+1) (n=%d b=%d)" n b)
            (2 * (b + 1))
            m.Metrics.messages;
          Alcotest.(check int) "one signature" 1 m.Metrics.signs;
          Alcotest.(check int) "b+1 server verifies" (b + 1) m.Metrics.server_verifies;
          check_cost "write" Write ~n ~b Single_writer m))
    [ (4, 1); (7, 2); (10, 3) ]

let test_costs_data_read () =
  List.iter
    (fun (n, b) ->
      let w = make_world ~n ~b () in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" in
          ok (Client.write alice ~item:"x" "v");
          let _, m = snapshot_around (fun () -> ok (Client.read alice ~item:"x")) in
          (* One round: b+1 requests, b+1 replies, one carrying the value. *)
          Alcotest.(check int)
            (Printf.sprintf "read msgs (n=%d b=%d)" n b)
            (2 * (b + 1))
            m.Metrics.messages;
          Alcotest.(check int) "one client verification" 1 m.Metrics.verifies;
          Alcotest.(check int) "no signing on read" 0 m.Metrics.signs;
          check_cost "read" Read_hit ~n ~b Single_writer m))
    [ (4, 1); (7, 2); (10, 3) ]

let test_costs_multi_writer () =
  List.iter
    (fun (n, b) ->
      let w = make_world ~n ~b () in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" ~cfg:mw in
          let _, mw_write =
            snapshot_around (fun () -> ok (Client.write alice ~item:"x" "v"))
          in
          Alcotest.(check int)
            (Printf.sprintf "mw write msgs = 2(2b+1) (n=%d b=%d)" n b)
            (2 * ((2 * b) + 1))
            mw_write.Metrics.messages;
          check_cost "mw write" Write ~n ~b Multi_writer mw_write;
          let _, mw_read = snapshot_around (fun () -> ok (Client.read alice ~item:"x")) in
          Alcotest.(check int)
            (Printf.sprintf "mw read msgs = 2(2b+1) (n=%d b=%d)" n b)
            (2 * ((2 * b) + 1))
            mw_read.Metrics.messages;
          Alcotest.(check int) "no client verify on vouched read" 0
            mw_read.Metrics.verifies;
          check_cost "mw read" Read_hit ~n ~b Multi_writer mw_read))
    [ (4, 1); (7, 2); (10, 3) ]

(* ------------------------------------------------------------------ *)
(* Property: MRC monotonicity under random schedules & faults         *)
(* ------------------------------------------------------------------ *)

let prop_mrc_monotonic =
  QCheck.Test.make ~name:"MRC never regresses (random schedules, 1 byzantine)"
    ~count:30
    QCheck.(pair int (int_range 0 5))
    (fun (seed, byz_choice) ->
      let w = make_world ~n:4 ~b:1 () in
      let behavior =
        List.nth
          [
            Faults.Honest; Faults.Crash; Faults.Stale; Faults.Corrupt_value;
            Faults.Corrupt_meta; Faults.Equivocate;
          ]
          byz_choice
      in
      wrap w 0 behavior;
      let rng = Sim.Srng.create seed in
      let ok_or_none = function Ok v -> Some v | Error _ -> None in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" in
          let bob =
            connect w "bob" ~group:"g"
              ~cfg:(fun c -> { c with Client.read_spread = true; seed })
          in
          let version = ref 0 in
          let last_seen = ref (-1) in
          let sound = ref true in
          for _ = 1 to 25 do
            match Sim.Srng.int_below rng 3 with
            | 0 ->
              incr version;
              ignore (ok_or_none (Client.write alice ~item:"x" (string_of_int !version)))
            | 1 ->
              ignore (Gossip.exchange_once ~servers:w.servers ~rng ())
            | _ -> (
              match ok_or_none (Client.read bob ~item:"x") with
              | Some v ->
                let v = int_of_string v in
                if v < !last_seen then sound := false;
                last_seen := max !last_seen v
              | None -> ())
          done;
          !sound))

(* A refused write leaves the session's context as it was, under either
   consistency level and on either write path: a reader whose token
   forbids writes still reads what it read before the refusal. Setting
   the CC context before the write landed made that second read demand a
   stamp no server holds. *)
let test_refused_write_leaves_context () =
  let svc = Access_control.create_service ~secret:"store-secret" in
  let n = 4 and b = 1 in
  let config = { (Server.default_config ~n ~b) with Server.auth = Some svc } in
  let w = make_world ~n ~b ~server_config:config () in
  let with_token client rights c =
    let token = Access_control.issue svc ~client ~group:"g" ~rights ~expires:1e9 in
    { (coded_cfg c) with Client.token = Some token }
  in
  let blob = big_value 4096 in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~cfg:(with_token "alice" Access_control.Read_write) in
      ok (Client.write alice ~item:"r" "v1");
      ok (Client.write alice ~item:"d" blob);
      ok (Client.disconnect alice));
  flood w;
  List.iter
    (fun (level, consistency) ->
      in_world w (fun () ->
          let reader =
            connect w "bob" ~group:"g" ~cfg:(fun c ->
                { (with_token "bob" Access_control.Read_only c) with Client.consistency })
          in
          List.iter
            (fun (item, value, refused) ->
              let label what = Printf.sprintf "%s %s: %s" level item what in
              Alcotest.(check string) (label "first read") value (ok (Client.read reader ~item));
              (match Client.write reader ~item refused with
              | Error _ -> ()
              | Ok () -> Alcotest.fail (label "read-only token allowed a write"));
              Alcotest.(check string) (label "read after the refusal") value
                (ok (Client.read reader ~item)))
            [ ("r", "v1", "v9"); ("d", blob, String.make 4096 'z') ]))
    [ ("cc", Client.CC); ("mrc", Client.MRC) ]

(* perfbench's per-layer metrics (client.write.sign_us,
   dispersal.frag_scatter_ms, ...) read these phase names off the
   client's spans, by their last path component. Nothing else checks
   them, so pin them here: a write path that renamed or moved one would
   zero a metric without failing anything. *)
let test_span_vocabulary () =
  let w = make_world () in
  let last_component name =
    match String.rindex_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let expect label ~op wanted (c : Obs.Span.closed) =
    Alcotest.(check string) (label ^ ": op") op c.Obs.Span.op;
    let got = List.map (fun p -> last_component p.Obs.Span.pname) c.Obs.Span.phases in
    List.iter
      (fun phase ->
        Alcotest.(check bool) (Printf.sprintf "%s: %s phase" label phase) true
          (List.mem phase got))
      wanted
  in
  let count phase (c : Obs.Span.closed) =
    List.length
      (List.filter (fun p -> last_component p.Obs.Span.pname = phase) c.Obs.Span.phases)
  in
  let newest k = Obs.Span.recent ~limit:k () in
  let last () = List.hd (newest 1) in
  let session name signing =
    connect w name ~group:"g" ~cfg:(fun c ->
        { (coded_cfg c) with Client.signing; escalate_every = 100 })
  in
  let blob = big_value 4096 in
  Obs.Span.reset_stats ();
  Obs.Span.reset_journal ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset_journal ();
      Obs.Span.reset_stats ())
  @@ fun () ->
  in_world w (fun () ->
      let alice = session "alice" Client.Per_write_sig in
      ok (Client.write alice ~item:"x" "v1");
      expect "signed write" ~op:"write" [ "sign"; "write_quorum" ] (last ());
      ok (Client.write alice ~item:"blob" blob);
      expect "dispersed write" ~op:"write"
        [ "encode"; "frag_scatter"; "sign"; "write_quorum" ]
        (last ());
      ignore (ok (Client.read alice ~item:"x"));
      expect "read" ~op:"read" [ "meta_poll"; "verify" ] (last ());
      ignore (ok (Client.read alice ~item:"blob"));
      expect "dispersed read" ~op:"read"
        [ "meta_poll"; "verify"; "frag_gather"; "decode" ]
        (last ());
      (* A miss: the write reached servers 0 and 1, so a session whose
         shipper is server 2 runs Fig. 2's fetch. *)
      let missing =
        connect w "alice" ~group:"g" ~cfg:(fun c ->
            { (coded_cfg c) with Client.servers = [ 2; 0; 1; 3 ] })
      in
      ignore (ok (Client.read missing ~item:"x"));
      expect "miss read" ~op:"read" [ "meta_poll"; "value_fetch"; "verify" ]
        (last ());
      ok (Client.disconnect alice);
      expect "disconnect" ~op:"disconnect" [ "sign" ] (last ());
      Alcotest.(check (pair int int)) "one-group close: one sign, one ctx_write" (1, 1)
        (count "sign" (last ()), count "ctx_write" (last ()));
      let carol = session "carol" Client.Mac_fast in
      ok (Client.write carol ~item:"z" "v1");
      expect "mac write" ~op:"write" [ "mac"; "write_quorum" ] (last ());
      ok (Client.disconnect carol);
      match newest 2 with
      | [ disconnect; escalation ] ->
        expect "escalation" ~op:"escalate_evidence" [ "batch_sign"; "upgrade" ]
          escalation;
        expect "disconnect after escalation" ~op:"disconnect" [ "sign" ] disconnect
      | _ -> Alcotest.fail "expected the escalation and the disconnect");
  (* A router close: one context round per shard with dirty sessions. *)
  let sharded = make_world ~n:8 () in
  Array.iteri
    (fun id _ ->
      sharded.servers.(id) <- Server.create ~id ~keyring:sharded.keyring ~n:4 ~b:1 ();
      sharded.hmap.(id) <- Server.handler sharded.servers.(id))
    sharded.servers;
  let table = Shardmap.make ~seed:"spans" ~shards:2 () in
  let groups = List.init 8 (fun i -> Printf.sprintf "r%d" i) in
  let shards = List.sort_uniq compare (List.map (Shardmap.shard_of_group table) groups) in
  Alcotest.(check (list int)) "groups on both shards" [ 0; 1 ] shards;
  in_world sharded (fun () ->
      let router =
        Router.create ~table ~uid:"alice" ~key:(key_of "alice") ~keyring:sharded.keyring
          ~config_of:(fun shard ->
            {
              (Client.default_config ~n:4 ~b:1) with
              Client.servers = Router.shard_servers ~n:4 shard;
            })
          ()
      in
      List.iter
        (fun g -> ok (Router.write router ~uid:(Uid.make ~group:g ~item:"x") "v"))
        groups;
      ok (Router.disconnect router);
      let close = last () in
      expect "router close" ~op:"disconnect" [ "sign"; "ctx_write" ] close;
      Alcotest.(check (pair int int)) "router close: one sign, one ctx_write per shard"
        (1, List.length shards)
        (count "sign" close, count "ctx_write" close))

(* ------------------------------------------------------------------ *)
(* Server unit behaviours                                             *)
(* ------------------------------------------------------------------ *)

let direct_write w i write =
  Server.handle w.servers.(i) ~now:0.0 ~from:(-1)
    { Payload.token = None; epoch = 0; request = Payload.Write_req write }

let test_server_rejects_duplicates () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "v"
  in
  Alcotest.(check bool) "first accepted" true
    (direct_write w 0 write = Some Payload.Ack);
  (* An identical resend is a client retry after a lost ack: it must be
     acknowledged (idempotently), not rejected, and stored only once. *)
  Alcotest.(check bool) "identical retry acked" true
    (direct_write w 0 write = Some Payload.Ack);
  Alcotest.(check int) "stored once" 1 (List.length (Server.log_writes w.servers.(0) uid));
  (* A *different* body under the same stamp is not a retry. *)
  let forged =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "forged"
  in
  Alcotest.(check bool) "same-stamp different-body rejected" true
    (direct_write w 0 forged
    = Some (Payload.Denied "write rejected"));
  Alcotest.(check int) "still stored once" 1
    (List.length (Server.log_writes w.servers.(0) uid))

let test_server_rejects_stamp_kind_mix () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let scalar_write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "v"
  in
  let multi_write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.multi ~time:9 ~writer:"alice" ~value:"w") "w"
  in
  ignore (direct_write w 0 scalar_write);
  Alcotest.(check bool) "kind mix rejected" true
    (direct_write w 0 multi_write
    = Some (Payload.Denied "write rejected"));
  match Server.current_write w.servers.(0) uid with
  | Some stored -> Alcotest.(check string) "scalar value kept" "v" stored.Payload.value
  | None -> Alcotest.fail "lost the original"

let test_server_ctx_seq_ordering () =
  let w = make_world () in
  let record seq =
    Signing.sign_context ~key:(key_of "alice") ~client:"alice" ~group:"g" ~seq
      Context.empty
  in
  let send r =
    Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
      {
        Payload.token = None; epoch = 0;
        request = Payload.Ctx_write { client = "alice"; records = [ ("g", r) ] };
      }
  in
  ignore (send (record 5));
  ignore (send (record 3)) (* stale: must not overwrite *);
  let got =
    Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
      { Payload.token = None; epoch = 0; request = Payload.Ctx_read { client = "alice"; group = "g" } }
  in
  (match got with
  | Some (Payload.Ctx_reply (Some r)) -> Alcotest.(check int) "kept newest seq" 5 r.Payload.seq
  | _ -> Alcotest.fail "no context");
  (* Forged context: rejected before storage. *)
  let forged = { (record 9) with Payload.evidence = Payload.Sig (String.make 64 'x') } in
  (match send forged with
  | Some (Payload.Ctx_written [ Payload.Refused _ ]) -> ()
  | _ -> Alcotest.fail "forged context accepted");
  match
    Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
      { Payload.token = None; epoch = 0; request = Payload.Ctx_read { client = "alice"; group = "g" } }
  with
  | Some (Payload.Ctx_reply (Some r)) -> Alcotest.(check int) "still seq 5" 5 r.Payload.seq
  | _ -> Alcotest.fail "context lost"

let test_client_no_quorum_when_majority_down () =
  let w = make_world ~n:4 ~b:1 () in
  (* Take down 3 of 4 servers: the context quorum of 3 is unreachable. *)
  for i = 1 to 3 do
    wrap w i Faults.Crash
  done;
  in_world w (fun () ->
      let config = Client.default_config ~n:4 ~b:1 in
      let config = { config with Client.timeout = 0.05 } in
      match
        Client.connect ~config ~uid:"alice" ~key:(key_of "alice")
          ~keyring:w.keyring ~group:"g" ()
      with
      | Error (Client.No_quorum { wanted = 3; _ }) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Client.error_to_string e)
      | Ok _ -> Alcotest.fail "connected without a quorum")

(* ------------------------------------------------------------------ *)
(* Persistence                                                        *)
(* ------------------------------------------------------------------ *)

let test_snapshot_restore () =
  let w = make_world ~n:4 ~b:1 () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      ok (Client.write alice ~item:"x" "v2");
      ok (Client.write alice ~item:"y" "w1");
      ok (Client.disconnect alice));
  let blob = Server.snapshot w.servers.(0) in
  (match Server.restore ~id:0 ~keyring:w.keyring ~n:4 ~b:1 blob with
  | None -> Alcotest.fail "restore failed"
  | Some restored ->
    let uid = Uid.make ~group:"g" ~item:"x" in
    (match (Server.current_write restored uid, Server.current_write w.servers.(0) uid) with
    | Some a, Some b -> Alcotest.(check bool) "current preserved" true (a = b)
    | _ -> Alcotest.fail "current write lost");
    Alcotest.(check int) "log preserved" 2
      (List.length (Server.log_writes restored uid));
    Alcotest.(check int) "items preserved" 2 (Server.item_count restored);
    Alcotest.(check int) "audit preserved"
      (List.length (Server.audit_log w.servers.(0)))
      (List.length (Server.audit_log restored));
    check_invariants [| restored |];
    (* A restored server keeps serving the protocol: swap it in and read. *)
    w.hmap.(0) <- Server.handler restored;
    in_world w (fun () ->
        let alice = connect w "alice" ~group:"g" in
        Alcotest.(check string) "serves after restart" "v2"
          (ok (Client.read alice ~item:"x"))));
  (* Corrupt snapshots are rejected, not crashed on. *)
  Alcotest.(check bool) "garbage rejected" true
    (Server.restore ~id:0 ~keyring:w.keyring ~n:4 ~b:1 "junk" = None);
  Alcotest.(check bool) "wrong id rejected" true
    (Server.restore ~id:3 ~keyring:w.keyring ~n:4 ~b:1 blob = None)

let test_save_load_file () =
  let w = make_world ~n:4 ~b:1 () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "persisted"));
  let path = Filename.temp_file "securestore" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Server.save_file w.servers.(0) ~path;
      match Server.load_file ~id:0 ~keyring:w.keyring ~n:4 ~b:1 ~path () with
      | None -> Alcotest.fail "load_file failed"
      | Some restored ->
        let uid = Uid.make ~group:"g" ~item:"x" in
        (match Server.current_write restored uid with
        | Some wr ->
          Alcotest.(check string) "value survives" "persisted" wr.Payload.value;
          check_invariants [| restored |]
        | None -> Alcotest.fail "item lost"));
  Alcotest.(check bool) "missing file" true
    (Server.load_file ~id:0 ~keyring:w.keyring ~n:4 ~b:1 ~path:"/nonexistent/x" ()
    = None)

let test_snapshot_preserves_held_writes () =
  let w = mw_guarded_world () in
  let doc = Uid.make ~group:"plan" ~item:"doc" in
  let dep = Uid.make ~group:"plan" ~item:"dep" in
  let dep_stamp = Stamp.multi ~time:5 ~writer:"alice" ~value:"base" in
  let doc_write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:doc
      ~stamp:(Stamp.multi ~time:6 ~writer:"alice" ~value:"final")
      ~wctx:(Context.of_bindings [ (dep, dep_stamp) ])
      "final"
  in
  ignore
    (Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
       { Payload.token = None; epoch = 0; request = Payload.Write_req doc_write });
  Alcotest.(check int) "held before snapshot" 1 (Server.pending_count w.servers.(0) doc);
  let config =
    { (Server.default_config ~n:4 ~b:1) with Server.malicious_client_guard = true }
  in
  match Server.restore ~config ~id:0 ~keyring:w.keyring ~n:4 ~b:1 (Server.snapshot w.servers.(0)) with
  | None -> Alcotest.fail "restore failed"
  | Some restored ->
    Alcotest.(check int) "still held after restart" 1 (Server.pending_count restored doc);
    (* The dependency arriving after restart releases the held write. *)
    let dep_write =
      Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:dep
        ~stamp:dep_stamp "base"
    in
    ignore
      (Server.handle restored ~now:0.0 ~from:(-1)
         { Payload.token = None; epoch = 0; request = Payload.Write_req dep_write });
    Alcotest.(check bool) "released after restart" true
      (Server.current_write restored doc <> None);
    check_invariants [| restored |]

(* ------------------------------------------------------------------ *)
(* Config epochs & reconfiguration                                    *)
(* ------------------------------------------------------------------ *)

let force = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* A restore applies the restoring config: a smaller [log_depth] cuts
   each log as that server's next write would, and another admin key is
   a configuration change, not a torn state. Neither refuses the blob. *)
let test_snapshot_restores_under_new_config () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      for i = 1 to 5 do
        ok (Client.write alice ~item:"x" (Printf.sprintf "v%d" i))
      done;
      ok (Client.disconnect alice));
  let uid = Uid.make ~group:"g" ~item:"x" in
  Alcotest.(check int) "current and four logged" 5
    (List.length (Server.log_writes w.servers.(0) uid));
  Server.set_epoch w.servers.(0)
    (Config_epoch.sign
       (force (Config_epoch.genesis ~servers:[ 0; 1; 2; 3 ] ~b:1 ()))
       (key_of "admin"));
  let blob = Server.snapshot w.servers.(0) in
  let restore config =
    match Server.restore_result ~config ~id:0 ~keyring:w.keyring ~n:4 ~b:1 blob with
    | Ok t -> t
    | Error msg -> Alcotest.failf "restore refused: %s" msg
  in
  let shallow = restore { (Server.default_config ~n:4 ~b:1) with log_depth = 2 } in
  Alcotest.(check int) "item back" 1 (Server.item_count shallow);
  Alcotest.(check (list string)) "newest writes kept" [ "v5"; "v4"; "v3" ]
    (List.map (fun (w : Payload.write) -> w.value) (Server.log_writes shallow uid));
  check_invariants [| shallow |];
  let rekeyed =
    restore
      {
        (Server.default_config ~n:4 ~b:1) with
        epoch_admin = Some (key_of "mallory").Crypto.Rsa.public;
      }
  in
  Alcotest.(check int) "item back under another admin" 1 (Server.item_count rekeyed);
  Alcotest.(check int) "epoch kept" 1 (Server.epoch_version rekeyed)

let test_epoch_chain_and_codec () =
  let admin = key_of "admin" in
  let g = force (Config_epoch.genesis ~servers:[ 3; 0; 1; 2; 1 ] ~b:1 ()) in
  Alcotest.(check int) "genesis version" 1 (Config_epoch.version g);
  Alcotest.(check (list int)) "servers sorted + deduped" [ 0; 1; 2; 3 ]
    (Config_epoch.servers g);
  Alcotest.(check bool) "genesis validates" true (Config_epoch.validate g = Ok ());
  Alcotest.(check bool) "too few servers refused" true
    (match Config_epoch.genesis ~servers:[ 0; 1 ] ~b:1 () with
    | Error _ -> true
    | Ok _ -> false);
  let g = Config_epoch.sign g admin in
  Alcotest.(check bool) "signature verifies" true
    (Config_epoch.verify g admin.Crypto.Rsa.public);
  Alcotest.(check bool) "wrong key refused" false
    (Config_epoch.verify g (key_of "mallory").Crypto.Rsa.public);
  let e2 = Config_epoch.sign (force (Config_epoch.next g ~servers:[ 1; 2; 3; 4 ] ~b:1 ())) admin in
  Alcotest.(check int) "successor version" 2 (Config_epoch.version e2);
  Alcotest.(check bool) "chains to predecessor" true (Config_epoch.follows ~prev:g e2);
  Alcotest.(check bool) "does not chain to itself" false
    (Config_epoch.follows ~prev:e2 e2);
  (* The digest covers every field but the signature: flipping the fault
     bound invalidates the admin signature. *)
  Alcotest.(check bool) "tamper breaks signature" false
    (Config_epoch.verify { e2 with Config_epoch.b = 0 } admin.Crypto.Rsa.public);
  (* Wire round-trip preserves the chain and the signature. *)
  match Config_epoch.of_string (Config_epoch.to_string e2) with
  | None -> Alcotest.fail "codec round-trip failed"
  | Some back ->
    Alcotest.(check bool) "round-trip equal" true (back = e2);
    Alcotest.(check bool) "round-trip still chains" true
      (Config_epoch.follows ~prev:g back);
    Alcotest.(check bool) "garbage decodes to None" true
      (Config_epoch.of_string "not an epoch" = None)

(* A server with an installed epoch answers requests from a superseded
   epoch with [Stale_epoch], piggybacking the newer config — except
   membership traffic, which is the repair channel itself. *)
let test_epoch_stale_gate () =
  let w = make_world () in
  let g = force (Config_epoch.genesis ~servers:[ 0; 1; 2; 3 ] ~b:1 ()) in
  Server.set_epoch w.servers.(0) g;
  Alcotest.(check int) "installed" 1 (Server.epoch_version w.servers.(0));
  let uid = Uid.make ~group:"g" ~item:"x" in
  let write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "v"
  in
  let env epoch request = { Payload.token = None; epoch; request } in
  let handle e = Server.handle w.servers.(0) ~now:0.0 ~from:(-1) e in
  (* A pre-epoch (version 0) envelope is superseded. *)
  (match handle (env 0 (Payload.Write_req write)) with
  | Some (Payload.Stale_epoch cur) ->
    Alcotest.(check int) "piggybacked config" 1 (Config_epoch.version cur)
  | _ -> Alcotest.fail "expected Stale_epoch");
  Alcotest.(check bool) "nothing stored" true
    (Server.current_write w.servers.(0) uid = None);
  (* The same request at the current epoch is served. *)
  Alcotest.(check bool) "current-epoch write accepted" true
    (handle (env 1 (Payload.Write_req write))
    = Some Payload.Ack);
  (match handle (env 1 (Payload.Read_query { uid; ship = true })) with
  | Some (Payload.Read_reply { write = Some stored; _ }) ->
    Alcotest.(check string) "readable" "v" stored.Payload.value
  | _ -> Alcotest.fail "read failed at current epoch");
  (* Epoch discovery is never gated: that is how laggards repair. *)
  match handle (env 0 Payload.Epoch_get) with
  | Some (Payload.Epoch_reply (Some e)) ->
    Alcotest.(check int) "discovery answers" 1 (Config_epoch.version e)
  | _ -> Alcotest.fail "Epoch_get was gated"

(* The announced-transition rule: direct successors must hash-chain;
   version jumps are accepted on the admin signature alone; anything
   unsigned, older, or mis-chained is refused; and adopting an epoch
   that drops this server starts its drain. *)
let test_epoch_adoption_rules () =
  let admin = key_of "admin" in
  let config =
    { (Server.default_config ~n:4 ~b:1) with
      Server.epoch_admin = Some admin.Crypto.Rsa.public
    }
  in
  let w = make_world ~server_config:config () in
  let s = w.servers.(0) in
  let g =
    Config_epoch.sign (force (Config_epoch.genesis ~servers:[ 0; 1; 2; 3 ] ~b:1 ())) admin
  in
  Server.set_epoch s g;
  let e2 = force (Config_epoch.next g ~servers:[ 0; 1; 2; 3; 4 ] ~b:1 ()) in
  Alcotest.(check bool) "unsigned refused" true
    (Server.try_adopt_epoch s e2 = Error "epoch not signed by admin");
  let e2 = Config_epoch.sign e2 admin in
  Alcotest.(check bool) "signed successor adopted" true
    (Server.try_adopt_epoch s e2 = Ok ());
  Alcotest.(check int) "at version 2" 2 (Server.epoch_version s);
  Alcotest.(check bool) "replayed older epoch refused" true
    (Server.try_adopt_epoch s g = Error "epoch not newer");
  (* A version-3 epoch chained to a *different* version-2 epoch: signed,
     but it does not follow what this server holds. *)
  let alt2 = force (Config_epoch.next g ~servers:[ 0; 1; 2; 3 ] ~b:1 ()) in
  let forked = Config_epoch.sign (force (Config_epoch.next alt2 ~servers:[ 0; 1; 2; 3 ] ~b:1 ())) admin in
  Alcotest.(check bool) "mis-chained successor refused" true
    (Server.try_adopt_epoch s forked
    = Error "epoch does not chain to predecessor");
  Alcotest.(check int) "still at version 2" 2 (Server.epoch_version s);
  (* A version jump (2 -> 4, e.g. after missing an announcement) is
     accepted on the admin signature alone. *)
  let e3 = Config_epoch.sign (force (Config_epoch.next e2 ~servers:[ 0; 1; 2; 3; 4 ] ~b:1 ())) admin in
  let e4 = Config_epoch.sign (force (Config_epoch.next e3 ~servers:[ 0; 1; 2; 3; 4 ] ~b:1 ())) admin in
  Alcotest.(check bool) "signed version jump adopted" true
    (Server.try_adopt_epoch s e4 = Ok ());
  Alcotest.(check int) "at version 4" 4 (Server.epoch_version s);
  Alcotest.(check bool) "still serving" false (Server.draining s);
  (* An epoch that drops this server from the membership drains it. *)
  let e5 = Config_epoch.sign (force (Config_epoch.next e4 ~servers:[ 1; 2; 3; 4 ] ~b:1 ())) admin in
  Alcotest.(check bool) "departure adopted" true (Server.try_adopt_epoch s e5 = Ok ());
  Alcotest.(check bool) "draining after departure" true (Server.draining s);
  (* Re-admission in a later epoch clears the drain — a remove-then-
     re-add cycle must not leave the server permanently write-refusing
     (the flag is persisted in snapshots, so it would even survive
     restarts). *)
  let e6 = Config_epoch.sign (force (Config_epoch.next e5 ~servers:[ 0; 1; 2; 3; 4 ] ~b:1 ())) admin in
  Alcotest.(check bool) "re-admission adopted" true
    (Server.try_adopt_epoch s e6 = Ok ());
  Alcotest.(check bool) "drain cleared on rejoin" false (Server.draining s)

(* Epochs travel over unauthenticated channels (gossip has no token,
   announcements are epoch-exempt), so a server with no pinned admin
   key must refuse every announced transition — otherwise anyone who
   can reach the port could push a config excluding the server and flip
   it into draining, with the flag persisted across restarts. *)
let test_epoch_requires_admin_key () =
  let w = make_world () in
  let s = w.servers.(0) in
  let admin = key_of "admin" in
  let e =
    Config_epoch.sign (force (Config_epoch.genesis ~servers:[ 1; 2; 3; 4 ] ~b:1 ())) admin
  in
  Alcotest.(check bool) "direct adoption refused" true
    (Server.try_adopt_epoch s e = Error "no admin key");
  (match
     Server.handle s ~now:0.0 ~from:(-1)
       { Payload.token = None; epoch = 0; request = Payload.Epoch_announce e }
   with
  | Some (Payload.Denied "no admin key") -> ()
  | _ -> Alcotest.fail "announcement was not refused");
  (* The gossip piggyback is the same unauthenticated channel. *)
  ignore
    (Server.handle s ~now:0.0 ~from:1
       {
         Payload.token = None; epoch = 0;
         request = Payload.Gossip_push { writes = []; have = []; epoch = Some e };
       });
  Alcotest.(check int) "no epoch installed" 0 (Server.epoch_version s);
  Alcotest.(check bool) "not draining" false (Server.draining s)

(* A client with no pinned admin key is a static deployment: a single
   Byzantine server's [Stale_epoch] must not replace its server set and
   fault bound. Server 0 claims a fabricated membership of just itself;
   the client must ignore it and keep its quorum math over the
   configured servers. *)
let test_client_ignores_epoch_without_admin_key () =
  let w = make_world () in
  let evil = force (Config_epoch.genesis ~servers:[ 0 ] ~b:0 ()) in
  Server.set_epoch w.servers.(0) evil;
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      Alcotest.(check bool) "no epoch adopted at connect" true
        (Client.epoch alice = None);
      ok (Client.write alice ~item:"x" "v1");
      Alcotest.(check bool) "no epoch adopted mid-session" true
        (Client.epoch alice = None);
      Alcotest.(check string) "reads use the real quorum" "v1"
        (ok (Client.read alice ~item:"x")))

(* A draining server refuses new client writes but keeps serving reads,
   so departing replicas stay useful while their state drains out. *)
let test_drain_denies_new_writes () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let before =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "kept"
  in
  Alcotest.(check bool) "write before drain" true
    (direct_write w 0 before = Some Payload.Ack);
  Server.begin_drain w.servers.(0);
  let after =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 6) "refused"
  in
  Alcotest.(check bool) "new write denied" true
    (direct_write w 0 after
    = Some (Payload.Denied "draining"));
  (* Context records are not gossiped on the write path, so one stored
     on a departing server would be lost at handoff: also denied. *)
  let record =
    Signing.sign_context ~key:(key_of "alice") ~client:"alice" ~group:"g"
      ~seq:1 Context.empty
  in
  (match
     Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
       {
         Payload.token = None; epoch = 0;
         request = Payload.Ctx_write { client = "alice"; records = [ ("g", record) ] };
       }
   with
  | Some (Payload.Denied "draining") -> ()
  | _ -> Alcotest.fail "context write accepted while draining");
  match
    Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
      { Payload.token = None; epoch = 0; request = Payload.Read_query { uid; ship = true } }
  with
  | Some (Payload.Read_reply { write = Some stored; _ }) ->
    Alcotest.(check string) "reads still served" "kept" stored.Payload.value
  | _ -> Alcotest.fail "draining server stopped serving reads"

(* Graceful departure round-trip: a drained server's snapshot carries
   its epoch and drain flag, and no acknowledged write is lost across
   the save/restart. *)
let test_drain_restart_preserves_writes () =
  let admin = key_of "admin" in
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "survives"
  in
  Alcotest.(check bool) "acked" true
    (direct_write w 0 write = Some Payload.Ack);
  let e =
    Config_epoch.sign (force (Config_epoch.genesis ~servers:[ 0; 1; 2; 3 ] ~b:1 ())) admin
  in
  Server.set_epoch w.servers.(0) e;
  Server.begin_drain w.servers.(0);
  let path = Filename.temp_file "securestore" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Server.save_file w.servers.(0) ~path;
      match Server.load_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 ~path () with
      | Error msg -> Alcotest.failf "reload failed: %s" msg
      | Ok restored ->
        Alcotest.(check int) "epoch survives restart" 1
          (Server.epoch_version restored);
        Alcotest.(check bool) "drain flag survives restart" true
          (Server.draining restored);
        (match Server.current_write restored uid with
        | Some stored ->
          Alcotest.(check string) "no write lost" "survives" stored.Payload.value
        | None -> Alcotest.fail "acknowledged write lost across drain-restart");
        check_invariants [| restored |])

(* Crash-safety of the snapshot file format itself: a truncated or
   bit-flipped blob is refused with a clear reason, never loaded as
   silently wrong state and never a decoder crash. *)
let test_snapshot_corruption_rejected () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "v"
  in
  ignore (direct_write w 0 write);
  let blob = Server.snapshot w.servers.(0) in
  let expect_corrupt label blob =
    match Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 blob with
    | Ok _ -> Alcotest.failf "%s: corrupt snapshot loaded" label
    | Error msg ->
      Alcotest.(check bool)
        (label ^ " refused with a clear reason")
        true
        (String.length msg >= 16 && String.sub msg 0 16 = "corrupt snapshot")
  in
  Alcotest.(check bool) "intact blob loads" true
    (Result.is_ok (Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 blob));
  (* Truncation: a crash mid-write leaves a short file. *)
  expect_corrupt "truncated" (String.sub blob 0 (String.length blob / 2));
  expect_corrupt "trailer cut" (String.sub blob 0 (String.length blob - 1));
  (* A single flipped byte in the middle fails the integrity trailer. *)
  let flipped = Bytes.of_string blob in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  expect_corrupt "bit flip" (Bytes.to_string flipped);
  (* And via the file path used by the real server binary. *)
  let path = Filename.temp_file "securestore" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (String.sub blob 0 (String.length blob / 3));
      close_out oc;
      match Server.load_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 ~path () with
      | Ok _ -> Alcotest.fail "truncated file loaded"
      | Error msg ->
        Alcotest.(check bool) "file load refused" true
          (String.length msg >= 16 && String.sub msg 0 16 = "corrupt snapshot"));
  check_invariants w.servers

(* Keytree + Confidential integration: the section 5.2 story for shared
   readers. The owner manages the reader group with an LKH key tree;
   evicting a reader rotates the group key and re-encrypts the data, so
   the evicted reader keeps access to nothing new. *)
let test_group_key_rotation_end_to_end () =
  let w = make_world () in
  let mgr = Crypto.Keytree.create_manager ~capacity:4 ~seed:"readers" in
  let leaf name = Crypto.Sha256.digest ("reader-leaf:" ^ name) in
  let bob_view = Crypto.Keytree.create_member ~name:"bob" ~leaf_key:(leaf "bob") in
  let carol_view = Crypto.Keytree.create_member ~name:"carol" ~leaf_key:(leaf "carol") in
  let broadcast msgs =
    Crypto.Keytree.apply bob_view msgs;
    Crypto.Keytree.apply carol_view msgs
  in
  broadcast (Crypto.Keytree.join mgr ~name:"bob" ~leaf_key:(leaf "bob"));
  broadcast (Crypto.Keytree.join mgr ~name:"carol" ~leaf_key:(leaf "carol"));
  (* Alice publishes under the group key; both readers decrypt. *)
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"news" in
      let sealed =
        Confidential.make ~client:alice ~key:(Crypto.Keytree.group_key mgr) ()
      in
      ok (Confidential.write sealed ~item:"letter" "issue 1");
      let read_as view name =
        match Crypto.Keytree.member_group_key view with
        | None -> Alcotest.failf "%s has no group key" name
        | Some key ->
          let session = connect w name ~group:"news" in
          Confidential.read (Confidential.make ~client:session ~key ()) ~item:"letter"
      in
      Alcotest.(check string) "bob decrypts" "issue 1" (ok (read_as bob_view "bob"));
      Alcotest.(check string) "carol decrypts" "issue 1" (ok (read_as carol_view "carol"));
      (* Bob is evicted: rekey the group, rotate the data to the new key. *)
      let msgs = Crypto.Keytree.leave mgr ~name:"bob" in
      broadcast msgs;
      ok
        (Confidential.rotate_key sealed ~new_key:(Crypto.Keytree.group_key mgr)
           ~items:[ "letter" ]);
      ok (Confidential.write sealed ~item:"letter" "issue 2 (members only)");
      Alcotest.(check string) "carol follows the rotation" "issue 2 (members only)"
        (ok (read_as carol_view "carol"));
      (* Bob's stale key no longer decrypts anything current. *)
      let bob_key = Option.get (Crypto.Keytree.member_group_key bob_view) in
      Alcotest.(check bool) "bob's key is stale" false
        (bob_key = Crypto.Keytree.group_key mgr);
      let bob_session = connect w "bob" ~group:"news" in
      match
        Confidential.read_opt
          (Confidential.make ~client:bob_session ~key:bob_key ())
          ~item:"letter"
      with
      | Ok None -> ()
      | Ok (Some v) -> Alcotest.failf "evicted reader decrypted: %s" v
      | Error e -> Alcotest.failf "unexpected: %s" (Client.error_to_string e))

(* Partitions: a client that can reach too few servers cannot assemble a
   context quorum; when the partition heals the same store works again.
   Runs under the discrete-event engine (partitions are a network
   property, not a server one). *)
let test_partition_and_heal () =
  let w = make_world ~n:4 ~b:1 () in
  let engine = Sim.Engine.create ~seed:3 () in
  Array.iteri
    (fun i _ ->
      Sim.Engine.add_server engine i (fun ~now ~from payload ->
          w.hmap.(i) ~now ~from payload))
    w.servers;
  (* Cut servers 2 and 3 off from everyone. *)
  Sim.Engine.set_reachable engine (fun src dst ->
      let cut x = x = 2 || x = 3 in
      not (cut src || cut dst));
  let phase1 = ref None and phase2 = ref None in
  Sim.Engine.spawn engine (fun () ->
      let config =
        { (Client.default_config ~n:4 ~b:1) with Client.timeout = 0.2 }
      in
      (match
         Client.connect ~config ~uid:"alice" ~key:(key_of "alice")
           ~keyring:w.keyring ~group:"g" ()
       with
      | Error (Client.No_quorum _) -> phase1 := Some `No_quorum
      | Error _ -> phase1 := Some `Other
      | Ok _ -> phase1 := Some `Connected);
      (* Heal and retry. *)
      Sim.Engine.set_reachable engine (fun _ _ -> true);
      match
        Client.connect ~config ~uid:"alice" ~key:(key_of "alice")
          ~keyring:w.keyring ~group:"g" ()
      with
      | Ok session -> (
        match Client.write session ~item:"x" "post-heal" with
        | Ok () -> phase2 := Some `Wrote
        | Error _ -> phase2 := Some `Write_failed)
      | Error _ -> phase2 := Some `Connect_failed);
  Sim.Engine.run engine;
  Alcotest.(check bool) "partitioned connect refused" true (!phase1 = Some `No_quorum);
  Alcotest.(check bool) "healed store works" true (!phase2 = Some `Wrote)

(* CC safety: whenever a reader obtains y (which the writer produced
   after writing version i of x), any later read of x must return
   version >= i — no causally overwritten value is ever readable,
   whatever the schedule and despite one Byzantine server. *)
let prop_cc_no_overwritten_reads =
  QCheck.Test.make ~name:"CC never serves causally overwritten values"
    ~count:25
    QCheck.(pair int (int_range 0 5))
    (fun (seed, byz_choice) ->
      let w = make_world ~n:4 ~b:1 () in
      let behavior =
        List.nth
          [
            Faults.Honest; Faults.Crash; Faults.Stale; Faults.Corrupt_value;
            Faults.Corrupt_meta; Faults.Equivocate;
          ]
          byz_choice
      in
      wrap w 0 behavior;
      let rng = Sim.Srng.create seed in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" ~cfg:cc in
          let bob =
            connect w "bob" ~group:"g"
              ~cfg:(fun c -> { (cc c) with Client.read_spread = true; seed })
          in
          let version = ref 0 in
          let sound = ref true in
          for _ = 1 to 20 do
            match Sim.Srng.int_below rng 3 with
            | 0 ->
              (* A causally linked pair: x := i, then y := "i" (y's
                 context names x's fresh stamp). *)
              incr version;
              (match Client.write alice ~item:"x" (string_of_int !version) with
              | Ok () -> (
                match Client.write alice ~item:"y" (string_of_int !version) with
                | Ok () -> ()
                | Error _ -> ())
              | Error _ -> decr version)
            | 1 -> ignore (Gossip.exchange_once ~servers:w.servers ~rng ())
            | _ -> (
              match Client.read bob ~item:"y" with
              | Ok y_version -> (
                let depends_on = int_of_string y_version in
                match Client.read bob ~item:"x" with
                | Ok x_version ->
                  if int_of_string x_version < depends_on then sound := false
                | Error _ -> ())
              | Error _ -> ())
          done;
          !sound))

(* ------------------------------------------------------------------ *)
(* Signature-verification cache                                       *)
(* ------------------------------------------------------------------ *)

let sc_keyring () =
  let keyring = Keyring.create () in
  Keyring.register keyring "alice" (key_of "alice").Crypto.Rsa.public;
  keyring

let signed_write ~item value =
  let uid = Uid.make ~group:"sc" ~item in
  Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
    ~stamp:(Stamp.scalar 1) value

let flip_byte s i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) s

let test_sigcache_lru () =
  let c = Sigcache.create ~capacity:2 in
  Sigcache.add c "a" true;
  Sigcache.add c "b" false;
  Alcotest.(check (option bool)) "a hit" (Some true) (Sigcache.find c "a");
  (* b is now least-recently used; inserting a third key evicts it. *)
  Sigcache.add c "c" true;
  Alcotest.(check (option bool)) "b evicted" None (Sigcache.find c "b");
  Alcotest.(check (option bool)) "a kept" (Some true) (Sigcache.find c "a");
  Alcotest.(check (option bool)) "c kept" (Some true) (Sigcache.find c "c");
  Alcotest.(check int) "size bounded" 2 (Sigcache.size c);
  Alcotest.(check int) "hits" 3 (Sigcache.hits c);
  Alcotest.(check int) "misses" 1 (Sigcache.misses c);
  Sigcache.clear c;
  Alcotest.(check int) "cleared" 0 (Sigcache.size c);
  Alcotest.(check int) "counters cleared" 0 (Sigcache.hits c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Sigcache.create: capacity must be positive") (fun () ->
      ignore (Sigcache.create ~capacity:0))

let test_sigcache_hit_consistency () =
  Signing.reset_sigcache ();
  let keyring = sc_keyring () in
  let w = signed_write ~item:"x" "v" in
  Metrics.reset ();
  Alcotest.(check bool) "cold verify ok" true (Signing.verify_write keyring w);
  Alcotest.(check bool) "warm verify same verdict" true
    (Signing.verify_write keyring w);
  Alcotest.(check bool) "server verify also hits" true
    (Signing.server_verify_write keyring w);
  let m = Metrics.read () in
  Alcotest.(check int) "paper-model client verifies" 2 m.Metrics.verifies;
  Alcotest.(check int) "paper-model server verifies" 1 m.Metrics.server_verifies;
  Alcotest.(check int) "one miss" 1 m.Metrics.sigcache_misses;
  Alcotest.(check int) "two hits" 2 m.Metrics.sigcache_hits;
  Alcotest.(check int) "one actual RSA op" 1 (Metrics.rsa_verifies m)

let test_sigcache_forged_never_valid () =
  Signing.reset_sigcache ();
  let keyring = sc_keyring () in
  let w = signed_write ~item:"y" "v" in
  let forged =
    match w.Payload.evidence with
    | Payload.Sig s -> { w with Payload.evidence = Payload.Sig (flip_byte s 7) }
    | _ -> Alcotest.fail "expected Sig evidence"
  in
  (* Repeated verification of a forgery stays false: its cached verdict
     is keyed by the forged bytes themselves. *)
  for _ = 1 to 3 do
    Alcotest.(check bool) "forged rejected" false
      (Signing.verify_write keyring forged)
  done;
  Alcotest.(check bool) "genuine write unaffected" true
    (Signing.verify_write keyring w);
  (* Tampering with an already-cached-valid write cannot reuse its
     verdict: the digest key binds the message bytes too. *)
  let tampered = { w with Payload.value = "other" } in
  Alcotest.(check bool) "tampered value rejected" false
    (Signing.verify_write keyring tampered);
  (* And the quiet diagnostic path leaves the counters alone. *)
  Metrics.reset ();
  Alcotest.(check bool) "quiet check" false (Signing.check_write_quiet keyring forged);
  let m = Metrics.read () in
  Alcotest.(check int) "quiet: no hit counted" 0 m.Metrics.sigcache_hits;
  Alcotest.(check int) "quiet: no miss counted" 0 m.Metrics.sigcache_misses

let prop_sigcache_bounded =
  QCheck.Test.make ~name:"sigcache bounded, last insert resident" ~count:100
    QCheck.(pair (int_range 1 8) (small_list small_nat))
    (fun (capacity, keys) ->
      let c = Sigcache.create ~capacity in
      List.iter (fun k -> Sigcache.add c (string_of_int k) (k mod 2 = 0)) keys;
      Sigcache.size c <= capacity
      &&
      match List.rev keys with
      | [] -> Sigcache.size c = 0
      | last :: _ ->
        Sigcache.find c (string_of_int last) = Some (last mod 2 = 0))

let prop_sigcache_verdict_stable =
  QCheck.Test.make ~name:"cached verdict = cold verdict" ~count:30
    QCheck.(pair string bool)
    (fun (value, corrupt) ->
      Signing.reset_sigcache ();
      let keyring = sc_keyring () in
      let w = signed_write ~item:"p" value in
      let w =
        match (corrupt, w.Payload.evidence) with
        | true, Payload.Sig s ->
          { w with Payload.evidence = Payload.Sig (flip_byte s 3) }
        | _ -> w
      in
      let cold = Signing.verify_write keyring w in
      let warm = Signing.verify_write keyring w in
      cold = warm && warm = not corrupt)

(* ------------------------------------------------------------------ *)
(* Write-path fast path: MAC vectors and their batch escalation      *)
(* ------------------------------------------------------------------ *)

let mac_fast cfg =
  { cfg with Client.signing = Client.Mac_fast; escalate_every = 100 }

let mac_write_exn w ~writer ~item ~stamp value =
  let uid = Uid.make ~group:"g" ~item in
  match
    Signing.mac_write w.keyring ~writer ~uid ~stamp
      ~servers:(List.init w.n Fun.id) value
  with
  | Some mw -> mw
  | None -> Alcotest.fail "MAC keys missing in fixture"

let send_upgrade w i (mw : Payload.write) evidence =
  Server.handle w.servers.(i) ~now:0.0 ~from:(-1)
    {
      Payload.token = None; epoch = 0;
      request =
        Payload.Evidence_upgrade
          {
            uid = mw.Payload.uid;
            stamp = mw.Payload.stamp;
            writer = mw.Payload.writer;
            evidence;
          };
    }

(* Re-sign [writes] as one Merkle batch (what the client's escalation
   queue does). *)
let batch_evidence_of ~key writes = Signbatch.sign_writes ~key writes

(* The MAC path admits a write through the same guards as the signed
   one: a stamp of the other kind than the item's current write is
   refused, not held where no upgrade could ever announce it. *)
let test_mac_write_stamp_kind_mix_refused () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let scalar_write =
    Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid
      ~stamp:(Stamp.scalar 5) "v"
  in
  ignore (direct_write w 0 scalar_write);
  let mw =
    mac_write_exn w ~writer:"alice" ~item:"x"
      ~stamp:(Stamp.multi ~time:9 ~writer:"alice" ~value:"w") "w"
  in
  Alcotest.(check bool) "mac kind mix rejected" true
    (direct_write w 0 mw = Some (Payload.Denied "write rejected"));
  Alcotest.(check int) "nothing held" 0 (Server.maced_count w.servers.(0) uid)

let test_mac_write_held_and_upgraded () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let mw = mac_write_exn w ~writer:"alice" ~item:"x" ~stamp:(Stamp.scalar 5) "v" in
  Alcotest.(check bool) "mac write acked" true
    (direct_write w 0 mw = Some Payload.Ack);
  Alcotest.(check bool) "invisible to reads" true
    (Server.current_write w.servers.(0) uid = None);
  Alcotest.(check int) "held in mac slot" 1 (Server.maced_count w.servers.(0) uid);
  Alcotest.(check bool) "identical mac retry acked" true
    (direct_write w 0 mw = Some Payload.Ack);
  Alcotest.(check int) "held once" 1 (Server.maced_count w.servers.(0) uid);
  match batch_evidence_of ~key:(key_of "alice") [ mw ] with
  | [ upgraded ] ->
    (* Bad evidence cannot announce the write, and the hold survives so a
       corrected retry can. *)
    let bad =
      match upgraded.Payload.evidence with
      | Payload.Batch be ->
        Payload.Batch { be with Payload.root_sig = flip_byte be.Payload.root_sig 5 }
      | _ -> Alcotest.fail "expected batch evidence"
    in
    Alcotest.(check bool) "forged upgrade denied" true
      (send_upgrade w 0 mw bad = Some (Payload.Denied "upgrade rejected"));
    Alcotest.(check int) "still held" 1 (Server.maced_count w.servers.(0) uid);
    (* Upgrading under the wrong writer name is refused outright. *)
    Alcotest.(check bool) "writer mismatch denied" true
      (send_upgrade w 0 { mw with Payload.writer = "bob" }
         upgraded.Payload.evidence
      = Some (Payload.Denied "writer mismatch"));
    (* The genuine upgrade announces the write and drains the hold. *)
    Alcotest.(check bool) "upgrade acked" true
      (send_upgrade w 0 mw upgraded.Payload.evidence = Some Payload.Ack);
    Alcotest.(check int) "hold drained" 0 (Server.maced_count w.servers.(0) uid);
    (match Server.current_write w.servers.(0) uid with
    | Some stored ->
      Alcotest.(check string) "announced value" "v" stored.Payload.value;
      Alcotest.(check bool) "carries batch evidence" true
        (match stored.Payload.evidence with Payload.Batch _ -> true | _ -> false)
    | None -> Alcotest.fail "upgrade did not announce the write");
    (* Re-sending the upgrade after announcement is an idempotent Ack;
       an upgrade for a stamp this server never saw is not. *)
    Alcotest.(check bool) "re-upgrade idempotent" true
      (send_upgrade w 0 mw upgraded.Payload.evidence = Some Payload.Ack);
    let ghost =
      mac_write_exn w ~writer:"alice" ~item:"x" ~stamp:(Stamp.scalar 99) "ghost"
    in
    Alcotest.(check bool) "unknown stamp denied" true
      (send_upgrade w 0 ghost upgraded.Payload.evidence
      = Some (Payload.Denied "unknown write"))
  | _ -> Alcotest.fail "batch of one flushed to unexpected shape"

let test_mac_binding_rejects_replay () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  (* A vector computed only for server 1 gives server 0 nothing to check. *)
  let only1 =
    match
      Signing.mac_write w.keyring ~writer:"alice" ~uid ~stamp:(Stamp.scalar 5)
        ~servers:[ 1 ] "v"
    with
    | Some m -> m
    | None -> Alcotest.fail "MAC keys missing"
  in
  Alcotest.(check bool) "missing tag rejected" true
    (direct_write w 0 only1
    = Some (Payload.Denied "write rejected"));
  (* Relabelling server 1's tag as server 0's fails: the MAC body binds
     the destination server id. *)
  let relabeled =
    match only1.Payload.evidence with
    | Payload.Mac [ (1, tag) ] ->
      { only1 with Payload.evidence = Payload.Mac [ (0, tag) ] }
    | _ -> Alcotest.fail "unexpected vector shape"
  in
  Alcotest.(check bool) "relabelled tag rejected" true
    (direct_write w 0 relabeled
    = Some (Payload.Denied "write rejected"));
  (* Splicing a genuine vector onto a different write fails: the tags
     cover the write body, not just the stamp. *)
  let genuine = mac_write_exn w ~writer:"alice" ~item:"x" ~stamp:(Stamp.scalar 5) "v" in
  let other = mac_write_exn w ~writer:"alice" ~item:"x" ~stamp:(Stamp.scalar 6) "other" in
  let spliced = { other with Payload.evidence = genuine.Payload.evidence } in
  Alcotest.(check bool) "cross-write splice rejected" true
    (direct_write w 0 spliced
    = Some (Payload.Denied "write rejected"));
  Alcotest.(check int) "nothing held" 0 (Server.maced_count w.servers.(0) uid)

let test_mac_evidence_not_gossipable () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let mw = mac_write_exn w ~writer:"alice" ~item:"x" ~stamp:(Stamp.scalar 5) "v" in
  (match
     Server.handle w.servers.(0) ~now:0.0 ~from:9
       {
         Payload.token = None; epoch = 0;
         request = Payload.Gossip_push { writes = [ mw ]; have = []; epoch = None };
       }
   with
  | Some Payload.Ack -> ()
  | _ -> Alcotest.fail "gossip should be acked");
  (* MAC evidence is not third-party verifiable: a gossiped copy must be
     neither announced nor held. *)
  Alcotest.(check bool) "not announced" true
    (Server.current_write w.servers.(0) uid = None);
  Alcotest.(check int) "not held either" 0 (Server.maced_count w.servers.(0) uid)

let test_snapshot_preserves_maced () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let mw = mac_write_exn w ~writer:"alice" ~item:"x" ~stamp:(Stamp.scalar 5) "v" in
  ignore (direct_write w 0 mw);
  Alcotest.(check int) "held before snapshot" 1 (Server.maced_count w.servers.(0) uid);
  match Server.restore ~id:0 ~keyring:w.keyring ~n:4 ~b:1 (Server.snapshot w.servers.(0)) with
  | None -> Alcotest.fail "restore failed"
  | Some restored -> (
    Alcotest.(check int) "held after restart" 1 (Server.maced_count restored uid);
    Alcotest.(check bool) "still unannounced" true
      (Server.current_write restored uid = None);
    (* The escalation still lands on the restored server. *)
    match batch_evidence_of ~key:(key_of "alice") [ mw ] with
    | [ upgraded ] ->
      (match
         Server.handle restored ~now:0.0 ~from:(-1)
           {
             Payload.token = None; epoch = 0;
             request =
               Payload.Evidence_upgrade
                 {
                   uid;
                   stamp = mw.Payload.stamp;
                   writer = "alice";
                   evidence = upgraded.Payload.evidence;
                 };
           }
       with
      | Some Payload.Ack -> ()
      | _ -> Alcotest.fail "upgrade after restart failed");
      Alcotest.(check bool) "announced after restart + upgrade" true
        (Server.current_write restored uid <> None);
      check_invariants [| restored |]
    | _ -> Alcotest.fail "batch shape")

let test_mac_fast_client_end_to_end () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~cfg:mac_fast in
      ok (Client.write alice ~item:"x" "fast-v1");
      (* Quorum-acked but only as held MACs: no server announces it. *)
      Alcotest.(check bool) "unannounced before escalation" true
        (Array.for_all (fun s -> Server.current_write s uid = None) w.servers);
      Alcotest.(check bool) "held by the write set" true
        (Array.exists (fun s -> Server.maced_count s uid = 1) w.servers);
      (* Reads flush the escalation queue first: read-your-writes holds. *)
      Alcotest.(check string) "read-your-writes" "fast-v1"
        (ok (Client.read alice ~item:"x"));
      Alcotest.(check bool) "announced everywhere after flush" true
        (Array.for_all (fun s -> Server.current_write s uid <> None) w.servers);
      (* And the escalated form is ordinary verifiable evidence. *)
      let bob = connect w "bob" ~group:"g" in
      Alcotest.(check string) "other reader" "fast-v1"
        (ok (Client.read bob ~item:"x"));
      ok (Client.disconnect alice))

(* The structural fact behind the MAC fast path: over 24 writes with
   escalation every 8, per-write signing pays one RSA sign per write,
   while MAC-fast escalation pays one per 8 writes. Counted after
   [flush], before the disconnect's context sign. *)
let test_mac_fast_amortizes_signs () =
  let writes = 24 in
  let items =
    List.init writes (fun i -> ("it" ^ string_of_int i, "v" ^ string_of_int i))
  in
  let signs_of (label, signing, want_signs, want_batch) =
    let w = make_world () in
    in_world w (fun () ->
        let alice =
          connect w "alice" ~group:"g"
            ~cfg:(fun c -> { c with Client.signing; escalate_every = 8 })
        in
        Metrics.reset ();
        List.iter (fun (item, v) -> ok (Client.write alice ~item v)) items;
        ok (Client.flush alice);
        let signs = (Metrics.read ()).Metrics.signs in
        Alcotest.(check int) (label ^ ": RSA signs") want_signs signs;
        (* every leaf of every batch reads back, each through its own proof *)
        List.iter
          (fun (item, v) ->
            Alcotest.(check string) (label ^ ": read " ^ item) v
              (ok (Client.read alice ~item)))
          items;
        let item, _ = List.nth items (writes - 1) in
        let uid = Uid.make ~group:"g" ~item in
        (* the stored write's batch size, [None] for a plain signature *)
        let stored_batch s =
          match Server.current_write s uid with
          | Some { Payload.evidence = Payload.Batch be; _ } -> Some (Some be.Payload.size)
          | Some _ -> Some None
          | None -> None
        in
        Alcotest.(check bool) (label ^ ": evidence shape") true
          (Array.exists (fun s -> stored_batch s = Some want_batch) w.servers);
        signs)
  in
  match
    List.map signs_of
      [
        ("per-write-sig", Client.Per_write_sig, writes, None);
        ("mac-fast", Client.Mac_fast, 3, Some 8);
      ]
  with
  | [ per_write; mac ] ->
    Alcotest.(check bool) "mac-fast signs less than per-write" true
      (mac < per_write)
  | _ -> assert false

let test_downgrade_server_proven_faulty () =
  let w = make_world () in
  wrap w 0 Faults.Downgrade;
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~cfg:mac_fast in
      ok (Client.write alice ~item:"x" "secret-fast");
      (* Before escalation the write exists only as held MACs. The
         downgrading server leaks its held copy; honest servers stay
         silent. Leaked MAC evidence is proof of misbehaviour. *)
      let bob =
        connect w "bob" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      (match Client.read bob ~item:"x" with
      | Ok v -> Alcotest.failf "MAC-held value leaked as readable: %s" v
      | Error _ -> ());
      Alcotest.(check bool) "downgrade proven" true
        (Fault_evidence.is_proven evidence 0);
      (match Fault_evidence.proof_of evidence 0 with
      | Some Fault_evidence.Evidence_downgrade -> ()
      | _ -> Alcotest.fail "expected downgrade proof");
      (* Once escalated, the write reads fine from the honest servers. *)
      ok (Client.flush alice);
      Alcotest.(check string) "readable after escalation" "secret-fast"
        (ok (Client.read bob ~item:"x")))

let test_downgrade_strips_batch_proofs_detected () =
  let w = make_world () in
  wrap w 0 Faults.Downgrade;
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  in_world w (fun () ->
      (* Two MAC writes escalated together: one root signature over a
         two-leaf batch, so each write's inclusion proof is non-empty. *)
      let alice = connect w "alice" ~group:"g" ~cfg:mac_fast in
      ok (Client.write alice ~item:"x" "b1");
      ok (Client.write alice ~item:"y" "b2");
      ok (Client.flush alice);
      let bob =
        connect w "bob" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      (* Server 0 serves the batch write with its inclusion proof
         mutilated; verification fails, the honest copy wins, and the
         stripping is proven. *)
      Alcotest.(check string) "honest copy wins" "b1"
        (ok (Client.read bob ~item:"x"));
      Alcotest.(check bool) "proof stripping proven" true
        (Fault_evidence.is_proven evidence 0))

(* ------------------------------------------------------------------ *)
(* Batched context evidence (one signature per Router close)          *)
(* ------------------------------------------------------------------ *)

let ctx_keyring = lazy (make_world ()).keyring

let flip_at s i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s

(* [(group, seq, ctx)] signed as one close of [client]: a batch of
   several contexts shares one root signature. *)
let sign_close ?(client = "alice") entries =
  let bodies =
    List.map
      (fun (group, seq, ctx) -> Payload.ctx_body ~client ~group ~seq ctx)
      entries
  in
  List.map2
    (fun (group, seq, ctx) evidence -> (group, { Payload.seq; ctx; evidence }))
    entries
    (Signbatch.sign_contexts ~key:(key_of client) bodies)

let close_entries ~k ~salt =
  List.init k (fun j ->
      let group = Printf.sprintf "g%d" j in
      let ctx =
        Context.of_bindings
          (List.init (1 + ((salt + j) mod 3)) (fun e ->
               ( Uid.make ~group ~item:(Printf.sprintf "i%d" e),
                 Stamp.scalar (salt + j + e + 1) )))
      in
      (group, 1 + ((salt * 7) + j) mod 50, ctx))

let both_reject ~client ~group r =
  let keyring = Lazy.force ctx_keyring in
  (not (Signing.verify_context keyring ~client ~group r))
  && not (Signing.server_context_verifier keyring ~client ~group r)

(* Every single-field mutation of a batch-evidenced record is refused by
   the client's and the server's check alike. *)
let prop_ctx_batch_mutations =
  QCheck.Test.make ~name:"batched context evidence: mutations rejected"
    ~count:60
    QCheck.(triple (int_range 2 9) (int_range 0 1000) (int_range 0 1_000_000))
    (fun (k, salt, pos) ->
      let closed = sign_close (close_entries ~k ~salt) in
      let group, r = List.nth closed (pos mod k) in
      let keyring = Lazy.force ctx_keyring in
      let b =
        match r.Payload.evidence with
        | Payload.Batch b -> b
        | _ -> QCheck.Test.fail_report "a batch of several is not Batch"
      in
      let with_batch b' = { r with Payload.evidence = Payload.Batch b' } in
      let ctx_bytes = Wire.Codec.encode Context.encode r.ctx in
      let ctx_mutant =
        match
          Wire.Codec.decode_opt Context.decode
            (flip_at ctx_bytes (pos mod String.length ctx_bytes))
        with
        | Some c when not (Context.equal c r.ctx) -> c
        | _ ->
          (* the flipped byte did not decode to another context: move
             one entry's stamp instead *)
          let uid, stamp = List.hd (Context.bindings r.ctx) in
          Context.set r.ctx uid (Stamp.scalar (Stamp.time stamp + 1))
      in
      let path = b.proof.Crypto.Merkle.path in
      let sibling = pos mod List.length path in
      let proof =
        {
          b.proof with
          Crypto.Merkle.path =
            List.mapi
              (fun i (h, side) -> if i = sibling then (flip_at h 0, side) else (h, side))
              path;
        }
      in
      Signing.verify_context keyring ~client:"alice" ~group r
      && Signing.server_context_verifier keyring ~client:"alice" ~group r
      && List.for_all
           (fun (client, group, r) -> both_reject ~client ~group r)
           [
             ("alice", group, { r with seq = r.seq + 1 });
             ("alice", group ^ "'", r);
             ("bob", group, r);
             ("alice", group, { r with ctx = ctx_mutant });
             ("alice", group, with_batch { b with proof });
             ( "alice",
               group,
               with_batch
                 { b with root_sig = flip_at b.root_sig (pos mod String.length b.root_sig) } );
             ("alice", group, with_batch { b with root = flip_at b.root 0 });
             ("alice", group, with_batch { b with size = b.size + 1 });
             ("alice", group, with_batch { b with size = b.size - 1 });
           ])

(* A batch of one keeps the one-session form: the same record, the same
   bytes, as [Signing.sign_context]. *)
let test_ctx_batch_of_one_is_sig () =
  let ctx = Context.of_bindings [ (u1, Stamp.scalar 4) ] in
  let single = Signing.sign_context ~key:(key_of "alice") ~client:"alice" ~group:"g" ~seq:3 ctx in
  match sign_close [ ("g", 3, ctx) ] with
  | [ (_, r) ] ->
    Alcotest.(check bool) "plain signature evidence" true
      (match r.Payload.evidence with Payload.Sig _ -> true | _ -> false);
    Alcotest.(check string) "byte-identical encoding"
      (Wire.Codec.encode Payload.encode_ctx_record single)
      (Wire.Codec.encode Payload.encode_ctx_record r)
  | _ -> Alcotest.fail "one body, one record"

(* Both batch domains over the very same leaves: only the domain in the
   signed root differs, and it alone decides what verifies. *)
let test_ctx_batch_domains_separated () =
  let keyring = Lazy.force ctx_keyring in
  let key = key_of "alice" in
  let write =
    Signing.sign_write ~key ~writer:"alice" ~uid:u1 ~stamp:(Stamp.scalar 5) "v"
  in
  let ctx = Context.of_bindings [ (u1, Stamp.scalar 5) ] in
  let leaves =
    [ Payload.write_body write; Payload.ctx_body ~client:"alice" ~group:"g" ~seq:2 ctx ]
  in
  let as_write b = { write with Payload.evidence = Payload.Batch b } in
  let as_ctx b = { Payload.seq = 2; ctx; evidence = Payload.Batch b } in
  let check_ctx r = Signing.verify_context keyring ~client:"alice" ~group:"g" r in
  (match
     (Signbatch.sign ~key Payload.Writes leaves, Signbatch.sign ~key Payload.Contexts leaves)
   with
  | [ ww; wc ], [ cw; cc ] ->
    Alcotest.(check bool) "write leaf under a write root" true
      (Signing.verify_write keyring (as_write ww));
    Alcotest.(check bool) "write leaf under a context root" false
      (Signing.verify_write keyring (as_write cw));
    Alcotest.(check bool) "context leaf under a context root" true (check_ctx (as_ctx cc));
    Alcotest.(check bool) "context leaf under a write root" false (check_ctx (as_ctx wc))
  | _ -> Alcotest.fail "two leaves, two proofs");
  Alcotest.(check bool) "MAC evidence refused for contexts" false
    (check_ctx { Payload.seq = 2; ctx; evidence = Payload.Mac [ (0, String.make 32 'm') ] })

(* A record of group g2 from the same batch, served for group g, is
   refused and proven against the server that served it. *)
let test_ctx_batch_cross_group_forged () =
  let w = make_world () in
  let ctx_g = Context.of_bindings [ (Uid.make ~group:"g" ~item:"x", Stamp.scalar 3) ] in
  let ctx_g2 = Context.of_bindings [ (Uid.make ~group:"g2" ~item:"x", Stamp.scalar 9) ] in
  let closed = sign_close [ ("g", 4, ctx_g); ("g2", 8, ctx_g2) ] in
  let rec_g = List.assoc "g" closed and rec_g2 = List.assoc "g2" closed in
  Alcotest.(check bool) "g2's record does not verify for g" false
    (Signing.verify_context w.keyring ~client:"alice" ~group:"g" rec_g2);
  for i = 1 to 3 do
    match
      Server.handle w.servers.(i) ~now:0.0 ~from:(-1)
        {
          Payload.token = None;
          epoch = 0;
          request = Payload.Ctx_write { client = "alice"; records = [ ("g", rec_g) ] };
        }
    with
    | Some (Payload.Ctx_written [ Payload.Stored ]) -> ()
    | _ -> Alcotest.failf "server %d refused a valid batched record" i
  done;
  (* Server 0 answers every context read of g with g2's (fresher) record. *)
  w.hmap.(0) <-
    (fun ~now ~from req ->
      match Payload.decode_envelope req with
      | Some { Payload.request = Payload.Ctx_read { group = "g"; _ }; _ } ->
        Some (Payload.encode_response (Payload.Ctx_reply (Some rec_g2)))
      | _ -> Server.handler w.servers.(0) ~now ~from req);
  let evidence = Fault_evidence.create ~servers:[ 0; 1; 2; 3 ] ~b:1 in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g" ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      Alcotest.(check bool) "the genuine record is loaded" true
        (Context.equal ctx_g (Client.context alice)));
  Alcotest.(check bool) "reported as a forged context" true
    (Fault_evidence.proof_of evidence 0 = Some Fault_evidence.Forged_context)

(* The history tap still sees what the caller read: the value digest of
   a replicated and of a dispersed read. *)
let test_read_trace_carries_digest () =
  let w = make_world () in
  let small = "small value" and big = String.make 3000 'z' in
  let hist = Check.History.create () in
  Check.History.recording hist (fun () ->
      in_world w (fun () ->
          let alice =
            connect w "alice" ~group:"g"
              ~cfg:(fun c -> { c with Client.dispersal_threshold = 1024 })
          in
          ok (Client.write alice ~item:"s" small);
          ok (Client.write alice ~item:"b" big);
          Alcotest.(check string) "replicated read" small (ok (Client.read alice ~item:"s"));
          Alcotest.(check string) "dispersed read" big (ok (Client.read alice ~item:"b"))));
  let digests =
    List.filter_map
      (fun (e : Trace.event) ->
        match (e.phase, e.kind, e.outcome) with
        | Trace.Return, Trace.Read { uid }, Some (Trace.Ok_value { digest; _ }) ->
          Some (Uid.to_string uid, digest)
        | _ -> None)
      (Check.History.events hist)
  in
  Alcotest.(check (list (pair string string))) "read returns carry value digests"
    [ ("g/s", Crypto.Sha256.hex_digest small); ("g/b", Crypto.Sha256.hex_digest big) ]
    digests

(* Snapshot version 5 keeps a context's evidence: batch-evidenced
   records come back byte for byte and still verify. *)
let test_snapshot_keeps_ctx_batches () =
  let w = make_world () in
  let closed = sign_close (close_entries ~k:5 ~salt:11) in
  List.iter
    (fun (group, record) ->
      ignore
        (Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
           {
             Payload.token = None;
             epoch = 0;
             request = Payload.Ctx_write { client = "alice"; records = [ (group, record) ] };
           }))
    closed;
  let read s group =
    match
      Server.handle s ~now:0.0 ~from:(-1)
        { Payload.token = None; epoch = 0; request = Payload.Ctx_read { client = "alice"; group } }
    with
    | Some (Payload.Ctx_reply (Some r)) -> r
    | _ -> Alcotest.failf "no context for %s" group
  in
  match Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 (Server.snapshot w.servers.(0)) with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok restored ->
    List.iter
      (fun (group, record) ->
        let r = read restored group in
        Alcotest.(check string) ("record of " ^ group ^ " byte-identical")
          (Payload.ctx_record_digest record) (Payload.ctx_record_digest r);
        Alcotest.(check bool) ("record of " ^ group ^ " verifies") true
          (Signing.verify_context w.keyring ~client:"alice" ~group r))
      closed;
    check_invariants [| restored |]

(* Every truncation of a version-5 body, even one carrying a matching
   integrity trailer, is refused with an error — never an exception. *)
let test_snapshot_v5_truncations_refused () =
  let w = make_world () in
  List.iter
    (fun (group, record) ->
      ignore
        (Server.handle w.servers.(0) ~now:0.0 ~from:(-1)
           {
             Payload.token = None;
             epoch = 0;
             request = Payload.Ctx_write { client = "alice"; records = [ (group, record) ] };
           }))
    (sign_close (close_entries ~k:3 ~salt:5));
  let blob = Server.snapshot w.servers.(0) in
  let body = String.sub blob 0 (String.length blob - 32) in
  for cut = 0 to String.length body - 1 do
    let prefix = String.sub body 0 cut in
    match
      Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1
        (prefix ^ Crypto.Sha256.digest prefix)
    with
    | Ok _ -> Alcotest.failf "a %d-byte prefix loaded" cut
    | Error _ -> ()
    | exception e -> Alcotest.failf "a %d-byte prefix raised %s" cut (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* One context round per shard: per-record verdicts                   *)
(* ------------------------------------------------------------------ *)

let ctx_write_req ?token records =
  {
    Payload.token;
    epoch = 0;
    request = Payload.Ctx_write { client = "alice"; records };
  }

let forge_proof (r : Payload.ctx_record) =
  match r.evidence with
  | Payload.Batch b ->
    let path =
      List.mapi (fun i (h, side) -> if i = 0 then (flip_at h 0, side) else (h, side))
        b.proof.Crypto.Merkle.path
    in
    { r with evidence = Payload.Batch { b with proof = { b.proof with path } } }
  | Payload.Sig _ | Payload.Mac _ -> Alcotest.fail "expected batch evidence"

let stored_seq ?token server group =
  match
    Server.handle server ~now:0.0 ~from:(-1)
      { Payload.token; epoch = 0; request = Payload.Ctx_read { client = "alice"; group } }
  with
  | Some (Payload.Ctx_reply r) -> Option.map (fun (r : Payload.ctx_record) -> r.seq) r
  | _ -> None

let verdicts = function
  | Some (Payload.Ctx_written vs) ->
    List.map (function Payload.Stored -> "stored" | Payload.Refused _ -> "refused") vs
  | _ -> Alcotest.fail "no per-record answer"

(* One batched request: a record with a forged batch proof, and a record
   for a group the token may not write, are each refused alone; the
   other records are stored. *)
let test_ctx_write_per_record_verdicts () =
  let closed = sign_close (close_entries ~k:4 ~salt:3) in
  let seq g = (List.assoc g closed).Payload.seq in
  let w = make_world () in
  let forged = forge_proof (List.assoc "g1" closed) in
  let records = List.map (fun (g, r) -> if g = "g1" then (g, forged) else (g, r)) closed in
  Alcotest.(check (list string)) "forged record refused alone"
    [ "stored"; "refused"; "stored"; "stored" ]
    (verdicts (Server.handle w.servers.(0) ~now:0.0 ~from:(-1) (ctx_write_req records)));
  List.iter
    (fun g ->
      Alcotest.(check (option int)) ("stored " ^ g)
        (if g = "g1" then None else Some (seq g))
        (stored_seq w.servers.(0) g))
    [ "g0"; "g1"; "g2"; "g3" ];
  let svc = Access_control.create_service ~secret:"ctx-secret" in
  let config = { (Server.default_config ~n:4 ~b:1) with Server.auth = Some svc } in
  let authed = make_world ~server_config:config () in
  let token =
    Access_control.issue svc ~client:"alice" ~group:"g0" ~rights:Access_control.Read_write
      ~expires:1e9
  in
  (* The token names g0 only: g2's record is refused, and a forged g0
     record with a higher seq does not displace the genuine one. *)
  Alcotest.(check (list string)) "unauthorized and forged records refused alone"
    [ "stored"; "refused"; "refused" ]
    (verdicts
       (Server.handle authed.servers.(0) ~now:0.0 ~from:(-1)
          (ctx_write_req ~token
             [
               ("g0", List.assoc "g0" closed);
               ("g2", List.assoc "g2" closed);
               ("g0", forge_proof { (List.assoc "g0" closed) with Payload.seq = 99 });
             ])));
  Alcotest.(check (option int)) "authorized record stored" (Some (seq "g0"))
    (stored_seq ~token authed.servers.(0) "g0");
  let g2_token =
    Access_control.issue svc ~client:"alice" ~group:"g2" ~rights:Access_control.Read_only
      ~expires:1e9
  in
  Alcotest.(check (option int)) "unauthorized record not stored" None
    (stored_seq ~token:g2_token authed.servers.(0) "g2")

(* A request with no records gets an answer and changes nothing. *)
let test_ctx_write_empty () =
  let w = make_world () in
  let before = Server.snapshot w.servers.(0) in
  Alcotest.(check (list string)) "empty answer" []
    (verdicts (Server.handle w.servers.(0) ~now:0.0 ~from:(-1) (ctx_write_req [])));
  Alcotest.(check bool) "state unchanged" true
    (String.equal before (Server.snapshot w.servers.(0)))

(* 0, 1 or many records round-trip; every cut of the encoding, and the
   encoding with garbage appended, is a clean refusal at the codec and
   at the server, never an exception. *)
let prop_ctx_write_hostile_frames =
  QCheck.Test.make ~name:"context write frames: roundtrip, cuts, garbage" ~count:40
    QCheck.(triple (int_range 0 6) (int_range 0 1000) (string_of_size (Gen.int_range 1 8)))
    (fun (k, salt, garbage) ->
      let records = if k = 0 then [] else sign_close (close_entries ~k ~salt) in
      let env = ctx_write_req ~token:"tok" records in
      let bytes = Payload.encode_envelope env in
      let server = (make_world ()).servers.(0) in
      let refused s =
        match (Payload.decode_envelope s, Server.handler server ~now:0.0 ~from:(-1) s) with
        | None, None -> true
        | _ -> false
        | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      in
      Payload.decode_envelope bytes = Some env
      && List.for_all (fun cut -> refused (String.sub bytes 0 cut))
           (List.init (String.length bytes) Fun.id)
      && refused (bytes ^ garbage))

(* ------------------------------------------------------------------ *)
(* Bounded server state                                               *)
(* ------------------------------------------------------------------ *)

let soak = Sys.getenv_opt "SOAK" = Some "1"

let soak_case name speed fn =
  Alcotest.test_case name speed (fun () -> if soak then fn () else Alcotest.skip ())

let push_write server write =
  Server.handle server ~now:0.0 ~from:(-1)
    { Payload.token = None; epoch = 0; request = Payload.Write_req write }

let guarded_config ?(log_depth = 4) () =
  {
    (Server.default_config ~n:4 ~b:1) with
    Server.malicious_client_guard = true;
    log_depth;
  }

(* A client with a valid key parks thousands of held writes under one
   item: the server keeps the newest [held_cap], and the dependency's
   arrival releases them. *)
let test_guard_bounds_held_writes () =
  let w = mw_guarded_world () in
  let server = w.servers.(0) in
  let dep = Uid.make ~group:"plan" ~item:"dep" in
  let doc = Uid.make ~group:"plan" ~item:"doc" in
  let dep_stamp = Stamp.multi ~time:1 ~writer:"alice" ~value:"base" in
  let wctx = Context.of_bindings [ (dep, dep_stamp) ] in
  let key = key_of "alice" in
  let stamp_of i = Stamp.multi ~time:(10 + i) ~writer:"alice" ~value:(string_of_int i) in
  for i = 1 to 5000 do
    ignore
      (push_write server
         (Signing.sign_write ~key ~writer:"alice" ~uid:doc ~stamp:(stamp_of i) ~wctx
            (string_of_int i)))
  done;
  Alcotest.(check int) "held writes capped" Server.held_cap (Server.pending_count server doc);
  check_invariants [| server |];
  ignore
    (push_write server
       (Signing.sign_write ~key ~writer:"alice" ~uid:dep ~stamp:dep_stamp "base"));
  Alcotest.(check int) "all released" 0 (Server.pending_count server doc);
  Alcotest.(check (list int)) "the newest writes are announced"
    [ 5000; 4999; 4998; 4997; 4996 ]
    (List.map
       (fun (wr : Payload.write) -> int_of_string wr.value)
       (Server.log_writes server doc));
  check_invariants [| server |]

(* Random causal DAGs of writes, delivered in random orders (some never)
   to a guard-on server, against a reference that rescans every held
   write after each install until nothing changes. Items see few writes
   and the log is deep, so every released write survives the log trim
   and the gossip buffer does not depend on release order. *)
type dag = {
  items : int;
  writes : (int * int list * bool) array;
      (* item, earlier writes it depends on, also on a write that never comes *)
  order : int list;  (* delivery order; writes not listed never arrive *)
}

let dag_gen =
  let open QCheck.Gen in
  let chance p = map (fun f -> f < p) (float_bound_exclusive 1.0) in
  let keep p l =
    map (List.filter_map Fun.id)
      (flatten_l (List.map (fun x -> map (fun b -> if b then Some x else None) (chance p)) l))
  in
  let* items = int_range 1 4 in
  let* count = int_range 1 12 in
  let* writes =
    flatten_a
      (Array.init count (fun i ->
           triple (int_bound (items - 1)) (keep 0.3 (List.init i Fun.id)) (chance 0.1)))
  in
  let* order = shuffle_l (List.init count Fun.id) in
  let* order = keep 0.85 order in
  return { items; writes; order }

let dag_print d =
  Printf.sprintf "items=%d writes=[%s] order=[%s]" d.items
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun i (item, deps, phantom) ->
               Printf.sprintf "%d:i%d<-{%s}%s" i item
                 (String.concat "," (List.map string_of_int deps))
                 (if phantom then "+phantom" else ""))
             d.writes)))
    (String.concat "," (List.map string_of_int d.order))

let signed_writes : (string, Payload.write) Hashtbl.t = Hashtbl.create 256

let dag_writes d =
  let uid item = Uid.make ~group:"g" ~item:(Printf.sprintf "i%d" item) in
  let phantom = Uid.make ~group:"g" ~item:"phantom" in
  Array.mapi
    (fun i (item, deps, ghost) ->
      let deps =
        List.map (fun j -> let it, _, _ = d.writes.(j) in (uid it, Stamp.scalar (j + 1))) deps
      in
      let deps = if ghost then (phantom, Stamp.scalar 1_000) :: deps else deps in
      (* one binding per item: the newest stamp depended on *)
      let ctx =
        Context.of_bindings
          (List.fold_left
             (fun acc (u, s) ->
               match List.assoc_opt u acc with
               | Some t when Stamp.compare t s >= 0 -> acc
               | _ -> (u, s) :: List.remove_assoc u acc)
             [] deps)
      in
      let cache_key =
        Printf.sprintf "%d/%d/%s" i item
          (Wire.Codec.encode (fun enc () -> Context.encode enc ctx) ())
      in
      match Hashtbl.find_opt signed_writes cache_key with
      | Some wr -> wr
      | None ->
        let wr =
          Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:(uid item)
            ~stamp:(Stamp.scalar (i + 1)) ~wctx:ctx (Printf.sprintf "w%d" i)
        in
        Hashtbl.replace signed_writes cache_key wr;
        wr)
    d.writes

(* The reference: hold a write until every dependency's item is announced
   at a stamp at least as new; after each install rescan every held write,
   to a fixpoint. *)
let reference_fixpoint (writes : Payload.write array) order =
  let current = Hashtbl.create 8 in
  let announced uid = Option.value (Hashtbl.find_opt current (Uid.to_string uid)) ~default:Stamp.zero in
  let ready (wr : Payload.write) =
    match wr.wctx with
    | None -> true
    | Some ctx ->
      List.for_all
        (fun (u, s) -> Uid.equal u wr.uid || Stamp.compare (announced u) s >= 0)
        (Context.bindings ctx)
  in
  let held = ref [] and gossip = ref [] in
  let install (wr : Payload.write) =
    if Stamp.compare wr.stamp (announced wr.uid) > 0 then
      Hashtbl.replace current (Uid.to_string wr.uid) wr.stamp;
    gossip := wr :: !gossip
  in
  List.iter
    (fun i ->
      let wr = writes.(i) in
      if ready wr then begin
        install wr;
        let progressed = ref true in
        while !progressed do
          let now_ready, still = List.partition ready !held in
          held := still;
          progressed := now_ready <> [];
          List.iter install now_ready
        done
      end
      else held := wr :: !held)
    order;
  (current, !held, !gossip)

let write_ids ws =
  List.sort compare
    (List.map (fun (wr : Payload.write) -> (Uid.to_string wr.uid, wr.stamp)) ws)

let prop_waiters_match_full_scan =
  QCheck.Test.make ~name:"held-write index = full-scan fixpoint" ~count:150
    (QCheck.make ~print:dag_print dag_gen)
    (fun d ->
      let w = make_world ~server_config:(guarded_config ~log_depth:64 ()) () in
      let server = w.servers.(0) in
      let writes = dag_writes d in
      List.iter (fun i -> ignore (push_write server writes.(i))) d.order;
      let current, held, gossip = reference_fixpoint writes d.order in
      let uids = List.init d.items (fun i -> Uid.make ~group:"g" ~item:(Printf.sprintf "i%d" i)) in
      let same_current uid =
        let have = Option.map (fun (wr : Payload.write) -> wr.stamp) (Server.current_write server uid) in
        have = Hashtbl.find_opt current (Uid.to_string uid)
      in
      let server_held = List.concat_map (Server.pending_writes server) uids in
      (match Server.invariants server with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariants: %s" m);
      List.for_all same_current uids
      && write_ids server_held = write_ids held
      && write_ids (Server.take_gossip_buffer server) = write_ids gossip)

(* The audit frontier reproduces the full-history Merkle tree at every
   size, windowed writes prove against it exactly as the full tree
   would, and a write that has left the window has no proof. *)
let test_audit_frontier_matches_tree () =
  let w = make_world () in
  let server = w.servers.(0) in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let history = ref [] (* newest first *) in
  let prove_all = [ 1; 256; 257; 600 ] in
  for n = 0 to 600 do
    if n > 0 then begin
      let wr =
        Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid ~stamp:(Stamp.scalar n)
          (Printf.sprintf "v%d" n)
      in
      ignore (push_write server wr);
      history := wr :: !history
    end;
    let oldest_first = List.rev !history in
    let tree = Crypto.Merkle.of_leaves (List.map Payload.write_body oldest_first) in
    let c = Audit.commit server in
    Alcotest.(check int) (Printf.sprintf "size at %d" n) n c.Audit.size;
    Alcotest.(check string) (Printf.sprintf "root at %d" n)
      (Crypto.Merkle.root tree) c.Audit.root;
    let window = Server.audit_log server in
    let first = n - List.length window in
    Alcotest.(check int) (Printf.sprintf "window at %d" n) (min n Server.audit_window)
      (List.length window);
    Alcotest.(check bool) (Printf.sprintf "window is the newest writes at %d" n) true
      (window = List.filteri (fun i _ -> i >= first) oldest_first);
    let provable =
      if List.mem n prove_all then List.mapi (fun i wr -> (first + i, wr)) window
      else if n mod 10 <> 3 then []
      else [ (first, List.hd window); (n - 1, List.hd !history) ]
    in
    List.iter
      (fun (index, wr) ->
        match Audit.prove_write server wr with
        | None -> Alcotest.failf "no proof for write %d of %d" index n
        | Some (proof, c) ->
          Alcotest.(check bool) "proof is the full tree's" true
            (Some proof = Crypto.Merkle.prove tree index);
          Alcotest.(check bool) "proof verifies" true (Audit.check_proof c wr proof))
      provable;
    if first > 0 then
      Alcotest.(check bool) (Printf.sprintf "no proof past the window at %d" n) true
        (Audit.prove_write server (List.nth oldest_first (first - 1)) = None)
  done;
  check_invariants [| server |]

(* Under [dune runtest] the fixtures sit beside the test binary; under
   [dune exec] from the repository root, in test/. *)
let read_fixture name =
  let path = Filename.concat "fixtures" name in
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A server whose audit trail has folded past its window: 300 announced
   writes of three items. *)
let folded_audit_server () =
  let w = make_world () in
  let server = w.servers.(0) in
  let items = Array.init 3 (fun i -> Uid.make ~group:"g" ~item:(Printf.sprintf "i%d" i)) in
  for i = 1 to 300 do
    let wr =
      Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:items.(i mod 3)
        ~stamp:(Stamp.scalar i) (Printf.sprintf "v%d" i)
    in
    match push_write server wr with
    | Some Payload.Ack -> ()
    | _ -> Alcotest.failf "write %d refused" i
  done;
  (w, server)

(* Only the current snapshot version loads; any other is refused with an
   error — never an exception. *)
let refuse_snapshot w label blob =
  match Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 blob with
  | Ok _ -> Alcotest.failf "%s loaded" label
  | Error e ->
    Alcotest.(check bool) (label ^ ": " ^ e) true
      (Str.string_match (Str.regexp ".*unsupported snapshot version") e 0)
  | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e)

(* The committed version-5 fixture is refused. *)
let test_snapshot_v5_fixture_refused () =
  let w = make_world () in
  refuse_snapshot w "v5 fixture" (read_fixture "snapshot_v5.bin")

(* A version-4 body holding a signed context record, and a current body
   relabelled as any other version, are refused even under a matching
   integrity trailer. *)
let test_snapshot_other_versions_refused () =
  let w = make_world () in
  let ctx = Context.of_bindings [ (u1, Stamp.scalar 7) ] in
  let record = Signing.sign_context ~key:(key_of "alice") ~client:"alice" ~group:"g" ~seq:6 ctx in
  let signature =
    match record.Payload.evidence with Payload.Sig s -> s | _ -> assert false
  in
  let v4 =
    let open Wire.Codec in
    encode
      (fun enc () ->
        Enc.string enc "securestore-snapshot";
        Enc.varint enc 4;
        Enc.varint enc 0;
        Enc.list enc (fun _ () -> ()) [];
        Enc.list enc
          (fun enc (client, group) ->
            Enc.string enc client;
            Enc.string enc group;
            Enc.varint enc 6;
            Context.encode enc ctx;
            Enc.string enc signature)
          [ ("alice", "g") ];
        Enc.list enc Enc.string [];
        Enc.list enc (fun _ () -> ()) [];
        Enc.list enc (fun _ () -> ()) [];
        Enc.option enc Config_epoch.encode None;
        Enc.bool enc false;
        Enc.list enc (fun _ () -> ()) [])
      ()
  in
  refuse_snapshot w "v4 contexts" (v4 ^ Crypto.Sha256.digest v4);
  let blob = Server.snapshot w.servers.(0) in
  let body = String.sub blob 0 (String.length blob - 32) in
  (* the magic is a length byte and 20 characters; the version follows *)
  Alcotest.(check int) "current version" 6 (Char.code body.[21]);
  List.iter
    (fun v ->
      let body = String.mapi (fun i c -> if i = 21 then Char.chr v else c) body in
      refuse_snapshot w (Printf.sprintf "v%d" v) (body ^ Crypto.Sha256.digest body))
    [ 2; 3; 4; 5; 7 ]

(* A v6 body whose audit trail has a folded frontier, cut short anywhere
   (even under a matching integrity trailer), is refused. *)
let test_snapshot_v6_truncations_refused () =
  let w, server = folded_audit_server () in
  let blob = Server.snapshot server in
  let body = String.sub blob 0 (String.length blob - 32) in
  let len = String.length body in
  Alcotest.(check bool) "truncated blob refused" true
    (Result.is_error
       (Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1
          (String.sub blob 0 (String.length blob - 1))));
  (* every cut through the audit count, peaks and digest, a sample
     elsewhere *)
  let peaks = Crypto.Merkle.frontier_peaks (Server.audit_frontier server) in
  Alcotest.(check bool) "frontier folded" true (peaks <> []);
  let at = Str.search_forward (Str.regexp_string (List.hd peaks)) body 0 in
  let trail_from = at - 8 and trail_to = at + (33 * List.length peaks) + 40 in
  for cut = 0 to len - 1 do
    if cut mod 211 = 0 || (cut >= trail_from && cut <= trail_to) then begin
      let prefix = String.sub body 0 cut in
      match
        Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1
          (prefix ^ Crypto.Sha256.digest prefix)
      with
      | Ok _ -> Alcotest.failf "a %d-byte prefix of %d loaded" cut len
      | Error _ -> ()
      | exception e -> Alcotest.failf "a %d-byte prefix raised %s" cut (Printexc.to_string e)
    end
  done

(* 50,000 writes over 64 items: the audit window, the snapshot (but for
   the encoded history count and the frontier's one hash per set bit of
   the folded count) and every item's held and log sizes are the same at
   10k and at 50k writes. *)
let test_soak_state_stays_flat () =
  let w = make_world () in
  let server = w.servers.(0) in
  let items = Array.init 64 (fun i -> Uid.make ~group:"g" ~item:(Printf.sprintf "k%02d" i)) in
  let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7) in
  let sample () =
    let frontier = Server.audit_frontier server in
    let peaks = List.length (Crypto.Merkle.frontier_peaks frontier) in
    let count = Crypto.Merkle.frontier_size frontier + List.length (Server.audit_log server) in
    (* the count, then each peak as a length-prefixed 32-byte string *)
    let trail_header = varint_len count + (33 * peaks) in
    ( List.length (Server.audit_log server),
      String.length (Server.snapshot server) - trail_header,
      Array.to_list
        (Array.map
           (fun uid -> (Server.pending_count server uid, List.length (Server.log_writes server uid)))
           items) )
  in
  let at_10k = ref None in
  for i = 1 to 50_000 do
    (* fixed-width stamps and values keep every write the same size *)
    let wr =
      Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid:items.(i mod 64)
        ~stamp:(Stamp.scalar (20_000 + i)) (Printf.sprintf "v%06d" i)
    in
    (match push_write server wr with
    | Some Payload.Ack -> ()
    | _ -> Alcotest.failf "write %d refused" i);
    ignore (Server.take_gossip_buffer server);
    check_invariants [| server |];
    if i = 10_000 then at_10k := Some (sample ())
  done;
  let audit_len, snapshot_bytes, per_item = sample () in
  match !at_10k with
  | None -> assert false
  | Some (audit_len0, snapshot_bytes0, per_item0) ->
    Alcotest.(check int) "audit window" audit_len0 audit_len;
    Alcotest.(check int) "snapshot bytes" snapshot_bytes0 snapshot_bytes;
    Alcotest.(check bool) "held and log sizes" true (per_item0 = per_item)

(* The live host names no sender ([~from:(-1)]). Its gossip must leave
   no holder entry behind: one that could never reach the erasure
   threshold would stay for the server's whole uptime. *)
let test_unnamed_gossip_records_no_holders () =
  let w = make_world () in
  let server = w.servers.(0) in
  let uid = Uid.make ~group:"g" ~item:"x" in
  let gossip ~from wr =
    ignore
      (Server.handle server ~now:0.0 ~from
         {
           Payload.token = None; epoch = 0;
           request = Payload.Gossip_push { writes = [ wr ]; have = []; epoch = None };
         })
  in
  let stamps =
    List.init 300 (fun i ->
        let stamp = Stamp.scalar (i + 1) in
        gossip ~from:(-1)
          (Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid ~stamp
             (Printf.sprintf "v%d" i));
        stamp)
  in
  List.iter
    (fun stamp -> Alcotest.(check int) "no holder recorded" 0 (Server.holder_count server uid stamp))
    stamps;
  check_invariants [| server |];
  (* a named sender still counts as evidence, and so does this server *)
  let stamp = Stamp.scalar 301 in
  gossip ~from:1 (Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid ~stamp "v301");
  Alcotest.(check int) "named sender and self" 2 (Server.holder_count server uid stamp);
  check_invariants [| server |]

let frag_put_exn server uid stamp index data =
  match
    Server.handle server ~now:0.0 ~from:(-1)
      {
        Payload.token = None; epoch = 0;
        request =
          Payload.Frag_put { uid; stamp; writer = "alice"; index; seq = 0; last = true; data };
      }
  with
  | Some Payload.Ack -> ()
  | _ -> Alcotest.failf "fragment %d of %s refused" index (Uid.to_string uid)

(* A dispersed write of [value] under a scalar stamp, and its fragments. *)
let dispersed_write ~uid ~time value =
  let meta, fragments = Dispersal.plan ~k:2 ~n:4 value in
  ( Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid ~stamp:(Stamp.scalar time)
      ~frags:meta (Dispersal.meta_root meta),
    fragments )

(* Fragments are stored per item: overwriting one dispersed item among
   a thousand others that hold verified fragments drops exactly its own
   stamp that left the log, keeps its orphan ahead of the current write,
   and touches no other item's fragment. *)
let test_overwrite_drops_only_own_fragments () =
  let w = make_world ~server_config:{ (Server.default_config ~n:4 ~b:1) with log_depth = 1 } () in
  let server = w.servers.(0) in
  (* this server is id 0, so it holds fragment index 1 *)
  let install ~uid ~time value =
    let wr, fragments = dispersed_write ~uid ~time value in
    (match push_write server wr with
    | Some Payload.Ack -> ()
    | _ -> Alcotest.failf "write of %s refused" (Uid.to_string uid));
    frag_put_exn server uid wr.Payload.stamp 1 fragments.(0);
    (wr.Payload.stamp, fragments.(0))
  in
  let others =
    Array.init 1000 (fun i ->
        let uid = Uid.make ~group:"g" ~item:(Printf.sprintf "other%04d" i) in
        let stamp, frag = install ~uid ~time:1 (Printf.sprintf "value of item %d" i) in
        (uid, stamp, frag))
  in
  let target = Uid.make ~group:"g" ~item:"target" in
  let s1, _ = install ~uid:target ~time:1 (big_value 600) in
  let s2, f2 = install ~uid:target ~time:2 (big_value 700) in
  (* fragments for stamp 5 arrive before its metadata: an orphan *)
  let ahead, ahead_frags = dispersed_write ~uid:target ~time:5 (big_value 900) in
  frag_put_exn server target ahead.Payload.stamp 1 ahead_frags.(0);
  Alcotest.(check int) "verified before" 1002 (Server.fragment_count server);
  Alcotest.(check int) "orphan before" 1 (Server.orphan_fragment_count server);
  (* stamp 3 pushes stamp 1 out of the one-entry log *)
  let s3, f3 = install ~uid:target ~time:3 (big_value 800) in
  let frag uid stamp = Server.fragment server uid ~stamp ~index:1 in
  Alcotest.(check (option string)) "stamp 1 dropped" None (frag target s1);
  Alcotest.(check (option string)) "logged stamp 2 kept" (Some f2) (frag target s2);
  Alcotest.(check (option string)) "current stamp 3 kept" (Some f3) (frag target s3);
  Alcotest.(check int) "orphan ahead kept" 1 (Server.orphan_fragment_count server);
  Alcotest.(check int) "verified after" 1002 (Server.fragment_count server);
  let check_others server =
    Array.iter
      (fun (uid, stamp, f) ->
        if Server.fragment server uid ~stamp ~index:1 <> Some f then
          Alcotest.failf "fragment of %s lost" (Uid.to_string uid))
      others
  in
  check_others server;
  check_invariants [| server |];
  (match Server.restore_result ~id:0 ~keyring:w.keyring ~n:4 ~b:1 (Server.snapshot server) with
  | Error e -> Alcotest.failf "round trip refused: %s" e
  | Ok again ->
    Alcotest.(check int) "verified restored" 1002 (Server.fragment_count again);
    Alcotest.(check int) "orphan restored" 1 (Server.orphan_fragment_count again);
    Alcotest.(check (option string)) "stamp 2 restored" (Some f2)
      (Server.fragment again target ~stamp:s2 ~index:1);
    check_others again;
    check_invariants [| again |]);
  (* a folded audit trail survives the same round trip *)
  let fw, folded = folded_audit_server () in
  match
    Server.restore_result ~id:0 ~keyring:fw.keyring ~n:4 ~b:1 (Server.snapshot folded)
  with
  | Error e -> Alcotest.failf "folded audit trail refused: %s" e
  | Ok again ->
    Alcotest.(check int) "audit count" 300 (Audit.commit again).size;
    Alcotest.(check string) "audit digest" (Server.audit_digest folded)
      (Server.audit_digest again);
    check_invariants [| again |]

let qsuite props = List.map QCheck_alcotest.to_alcotest props

(* ------------------------------------------------------------------ *)
(* One read round: hits, misses, and the proofs both keep             *)
(* ------------------------------------------------------------------ *)

(* With the log full (six writes, no gossip), a multi-writer read moves
   the value once plus every polled server's stamps, not each polled
   server's whole log. *)
let test_read_multi_writer_bytes () =
  let size = 60_000 in
  List.iter
    (fun (n, b) ->
      let w = make_world ~n ~b () in
      in_world w (fun () ->
          let alice = connect w "alice" ~group:"g" ~cfg:mw in
          for i = 1 to 6 do
            ok (Client.write alice ~item:"x" (String.make size (Char.chr (96 + i))))
          done;
          Metrics.reset ();
          let v = ok (Client.read alice ~item:"x") in
          let m = Metrics.read () in
          Alcotest.(check char) "newest value" 'f' v.[0];
          let ratio = float_of_int m.Metrics.bytes /. float_of_int size in
          if ratio > 1.1 then
            Alcotest.failf "n=%d b=%d: a read moved %.2fx the value's bytes" n b
              ratio))
    [ (4, 1); (7, 2) ]

(* The shipper holds v1, a polled server lists v2: Fig. 2's fetch adds
   one round and the read returns the newer value. *)
let test_read_single_writer_miss () =
  let w = make_world () in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" in
      ok (Client.write alice ~item:"x" "v1");
      flood w;
      (* v2 lands on servers 0 and 1 only *)
      ok (Client.write alice ~item:"x" "v2");
      let bob =
        connect w "bob" ~group:"g" ~cfg:(fun c -> { c with Client.servers = [ 2; 0; 1; 3 ] })
      in
      Metrics.reset ();
      Alcotest.(check string) "newer value fetched" "v2" (ok (Client.read bob ~item:"x"));
      Alcotest.(check int) "poll round then fetch round"
        (Quorums.messages (Quorums.cost Read_miss ~n:4 ~b:1 Single_writer))
        (Metrics.read ()).Metrics.messages)

(* The shipper's current write has one voucher, short of b+1: the
   stamp b+1 servers list is the target, fetched from a voucher. *)
let test_read_multi_writer_miss () =
  let w = make_world () in
  let uid = Uid.make ~group:"g" ~item:"x" in
  in_world w (fun () ->
      let alice = connect w "alice" ~group:"g" ~cfg:mw in
      ok (Client.write alice ~item:"x" "v1");
      let stamp = Stamp.multi ~time:1_000_000 ~writer:"alice" ~value:"v2" in
      let v2 = Signing.sign_write ~key:(key_of "alice") ~writer:"alice" ~uid ~stamp "v2" in
      Alcotest.(check bool) "only server 0 holds v2" true
        (direct_write w 0 v2 = Some Payload.Ack);
      let bob = connect w "bob" ~group:"g" ~cfg:mw in
      Metrics.reset ();
      Alcotest.(check string) "vouched value fetched" "v1" (ok (Client.read bob ~item:"x"));
      Alcotest.(check int) "poll round then fetch round"
        (Quorums.messages (Quorums.cost Read_miss ~n:4 ~b:1 Multi_writer))
        (Metrics.read ()).Metrics.messages)

(* A corrupting multi-writer shipper is skipped, proven, and the value
   comes from another voucher. *)
let test_read_multi_writer_corrupt_shipper () =
  let w = make_world () in
  wrap w 0 Faults.Corrupt_value;
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { (mw c) with Client.evidence = Some evidence })
      in
      ok (Client.write alice ~item:"x" "precious");
      Alcotest.(check string) "value from another voucher" "precious"
        (ok (Client.read alice ~item:"x"));
      Alcotest.(check bool) "shipper proven" true
        (Fault_evidence.proof_of evidence 0 = Some Fault_evidence.Invalid_signature))

(* The rollback tamperer as a metadata server (server 1; server 0 ships
   v2): its inflated stamp is fetched, the stale write it serves proves
   a stamp regression, and the read returns the shipped v2. *)
let test_rollback_tamperer_as_metadata_server () =
  let w = make_world () in
  let evidence = Fault_evidence.create ~servers:(List.init 4 Fun.id) ~b:1 in
  in_world w (fun () ->
      let alice =
        connect w "alice" ~group:"g"
          ~cfg:(fun c -> { c with Client.evidence = Some evidence })
      in
      ok (Client.write alice ~item:"x" "v1");
      let stale = Server.snapshot w.servers.(1) in
      ok (Client.write alice ~item:"x" "v2");
      flood w;
      (match Server.restore ~id:1 ~keyring:w.keyring ~n:w.n ~b:w.b stale with
      | None -> Alcotest.fail "snapshot did not restore"
      | Some rolled_back ->
        w.servers.(1) <- rolled_back;
        w.hmap.(1) <- stamp_regression_tamperer rolled_back);
      Alcotest.(check string) "read returns the shipped v2" "v2"
        (ok (Client.read alice ~item:"x"));
      Alcotest.(check bool) "proof is a stamp regression" true
        (Fault_evidence.proof_of evidence 1 = Some Fault_evidence.Stamp_regression))

let () =
  Alcotest.run "store"
    [
      ("uid", [ Alcotest.test_case "basics" `Quick test_uid ]);
      ( "stamp",
        [
          Alcotest.test_case "ordering" `Quick test_stamp_order;
          Alcotest.test_case "fork" `Quick test_stamp_fork;
          Alcotest.test_case "codec" `Quick test_stamp_codec;
        ] );
      ( "context",
        [
          Alcotest.test_case "basics" `Quick test_context_basics;
          Alcotest.test_case "merge/dominates" `Quick test_context_merge_dominates;
        ]
        @ qsuite
            [
              prop_merge_commutes; prop_merge_idempotent; prop_merge_dominates;
              prop_context_codec;
            ] );
      ( "quorums",
        [ Alcotest.test_case "formulas" `Quick test_quorum_formulas ]
        @ qsuite [ prop_context_overlap; prop_masking_larger ] );
      ("payload", [ Alcotest.test_case "roundtrips" `Quick test_payload_roundtrips ]);
      ("access", [ Alcotest.test_case "tokens" `Quick test_access_control ]);
      ("keyring", [ Alcotest.test_case "binding" `Quick test_keyring ]);
      ( "single-writer",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "other reader" `Quick test_read_other_client;
          Alcotest.test_case "not found" `Quick test_read_not_found;
          Alcotest.test_case "overwrite" `Quick test_overwrite_returns_latest;
          Alcotest.test_case "mrc expansion" `Quick test_mrc_expansion_beats_stale_servers;
          Alcotest.test_case "session context" `Quick test_session_context_roundtrip;
          Alcotest.test_case "disconnected" `Quick test_disconnected_session_rejects_ops;
          Alcotest.test_case "reconstruction" `Quick test_context_reconstruction;
        ] );
      ( "causal",
        [
          Alcotest.test_case "cc pulls deps" `Quick test_cc_pulls_dependencies;
          Alcotest.test_case "mrc does not" `Quick test_mrc_does_not_pull_dependencies;
          Alcotest.test_case "refused write leaves context" `Quick
            test_refused_write_leaves_context;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "corrupt value" `Quick test_corrupt_value_detected;
          Alcotest.test_case "equivocation" `Quick test_equivocating_meta_rejected;
          Alcotest.test_case "crash" `Quick test_crash_and_silent_servers;
          Alcotest.test_case "stale context" `Quick test_stale_server_context;
          Alcotest.test_case "forged gossip" `Quick test_forged_write_rejected_by_servers;
          Alcotest.test_case "unknown writer" `Quick test_unknown_writer_rejected;
        ] );
      ( "multi-writer",
        [
          Alcotest.test_case "two clients" `Quick test_multi_writer_two_clients;
          Alcotest.test_case "monotonic" `Quick test_multi_writer_monotonic_per_reader;
          Alcotest.test_case "fork detection" `Quick test_fork_detection;
          Alcotest.test_case "malicious context held" `Quick test_malicious_context_held;
          Alcotest.test_case "guard releases" `Quick test_guard_releases_when_deps_arrive;
          Alcotest.test_case "guard vs gossip order" `Quick test_guard_holds_out_of_order_gossip;
          Alcotest.test_case "eager report masked" `Quick test_eager_report_masked_by_vouching;
          Alcotest.test_case "log retention" `Quick test_log_keeps_overwritten_value;
        ] );
      ( "inline-read",
        [
          Alcotest.test_case "roundtrip" `Quick test_one_read_roundtrip;
          Alcotest.test_case "one-round cost" `Quick test_one_read_one_round_cost;
          Alcotest.test_case "fallback" `Quick test_one_read_falls_back;
          Alcotest.test_case "corruption" `Quick test_one_read_survives_corruption;
        ] );
      ( "one-round-read",
        [
          Alcotest.test_case "multi-writer bytes" `Quick test_read_multi_writer_bytes;
          Alcotest.test_case "single-writer miss" `Quick test_read_single_writer_miss;
          Alcotest.test_case "multi-writer miss" `Quick test_read_multi_writer_miss;
          Alcotest.test_case "corrupt multi-writer shipper" `Quick
            test_read_multi_writer_corrupt_shipper;
          Alcotest.test_case "rollback tamperer as metadata server" `Quick
            test_rollback_tamperer_as_metadata_server;
        ] );
      ( "jitter",
        [ Alcotest.test_case "privacy" `Quick test_timestamp_jitter ]
        @ qsuite [ test_jitter_monotonic ] );
      ( "log-erasure",
        [
          Alcotest.test_case "gossip evidence" `Quick test_log_erasure_via_gossip;
          Alcotest.test_case "no resurrection" `Quick test_erased_write_not_readmitted;
        ] );
      ("auth", [ Alcotest.test_case "end to end" `Quick test_auth_enforced ]);
      ( "ranking",
        [ Alcotest.test_case "health-ranked first round" `Quick test_ranked_first_round ] );
      ( "dynamic-quorums",
        [
          Alcotest.test_case "evidence unit" `Quick test_evidence_unit;
          Alcotest.test_case "proves corruption" `Quick test_evidence_proves_corrupt_server;
          Alcotest.test_case "shrinks quorum" `Quick test_evidence_shrinks_context_quorum;
          Alcotest.test_case "clamped" `Quick test_evidence_never_goes_negative;
        ] );
      ( "coded-transport",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_coded_write_read_roundtrip;
          Alcotest.test_case "threshold gate" `Quick test_coded_threshold_gate;
          Alcotest.test_case "storage savings" `Quick test_coded_storage_savings;
          Alcotest.test_case "faulty holders" `Quick test_coded_read_survives_faulty_holders;
          Alcotest.test_case "not enough fragments" `Quick test_coded_not_enough_fragments;
          Alcotest.test_case "orphans invisible" `Quick test_coded_orphans_stay_invisible;
          Alcotest.test_case "fragment repair" `Quick test_coded_fragment_repair;
          Alcotest.test_case "snapshot keeps fragments" `Quick test_coded_snapshot_keeps_fragments;
          Alcotest.test_case "empty value needs k fragments" `Quick
            test_dispersal_empty_value_needs_k;
        ]
        @ qsuite
            [
              prop_dispersal_plan_decode;
              prop_dispersal_refragment;
              prop_dispersal_corrupt_fragment_detected;
            ] );
      ( "gossip",
        [
          Alcotest.test_case "flood converges" `Quick test_gossip_flood_converges;
          Alcotest.test_case "exchange progress" `Quick test_gossip_exchange_progress;
        ] );
      ( "confidential",
        [
          Alcotest.test_case "roundtrip" `Quick test_confidential_roundtrip;
          Alcotest.test_case "wrong key" `Quick test_confidential_wrong_key;
          Alcotest.test_case "rotation" `Quick test_key_rotation;
          Alcotest.test_case "dispersed value" `Quick test_confidential_dispersed;
        ] );
      ( "server",
        [
          Alcotest.test_case "duplicates" `Quick test_server_rejects_duplicates;
          Alcotest.test_case "stamp kinds" `Quick test_server_rejects_stamp_kind_mix;
          Alcotest.test_case "ctx ordering" `Quick test_server_ctx_seq_ordering;
          Alcotest.test_case "no quorum" `Quick test_client_no_quorum_when_majority_down;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
          Alcotest.test_case "held writes survive" `Quick test_snapshot_preserves_held_writes;
          Alcotest.test_case "restores under a new config" `Quick
            test_snapshot_restores_under_new_config;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption_rejected;
        ] );
      ( "context-batches",
        [
          Alcotest.test_case "batch of one is a signature" `Quick
            test_ctx_batch_of_one_is_sig;
          Alcotest.test_case "domains separated" `Quick test_ctx_batch_domains_separated;
          Alcotest.test_case "cross-group record forged" `Quick
            test_ctx_batch_cross_group_forged;
          Alcotest.test_case "snapshot keeps batches" `Quick
            test_snapshot_keeps_ctx_batches;
          Alcotest.test_case "v5 truncations refused" `Quick
            test_snapshot_v5_truncations_refused;
          Alcotest.test_case "other snapshot versions refused" `Quick
            test_snapshot_other_versions_refused;
          Alcotest.test_case "read trace carries digest" `Quick
            test_read_trace_carries_digest;
          Alcotest.test_case "per-record verdicts" `Quick
            test_ctx_write_per_record_verdicts;
          Alcotest.test_case "empty context write" `Quick test_ctx_write_empty;
        ]
        @ qsuite [ prop_ctx_batch_mutations; prop_ctx_write_hostile_frames ] );
      ( "reconfiguration",
        [
          Alcotest.test_case "epoch chain + codec" `Quick test_epoch_chain_and_codec;
          Alcotest.test_case "stale-epoch gate" `Quick test_epoch_stale_gate;
          Alcotest.test_case "adoption rules" `Quick test_epoch_adoption_rules;
          Alcotest.test_case "no admin key refuses epochs" `Quick
            test_epoch_requires_admin_key;
          Alcotest.test_case "client ignores epochs without admin key" `Quick
            test_client_ignores_epoch_without_admin_key;
          Alcotest.test_case "drain denies writes" `Quick test_drain_denies_new_writes;
          Alcotest.test_case "drain restart keeps writes" `Quick
            test_drain_restart_preserves_writes;
        ] );
      ( "partition",
        [ Alcotest.test_case "split and heal" `Quick test_partition_and_heal ] );
      ( "group-keys",
        [
          Alcotest.test_case "eviction end-to-end" `Quick
            test_group_key_rotation_end_to_end;
        ] );
      ( "bounded-state",
        [
          Alcotest.test_case "held writes capped" `Quick test_guard_bounds_held_writes;
          Alcotest.test_case "audit frontier = full tree" `Quick
            test_audit_frontier_matches_tree;
          Alcotest.test_case "v5 fixture refused" `Quick
            test_snapshot_v5_fixture_refused;
          Alcotest.test_case "v6 truncations refused" `Quick
            test_snapshot_v6_truncations_refused;
          Alcotest.test_case "unnamed gossip records no holders" `Quick
            test_unnamed_gossip_records_no_holders;
          Alcotest.test_case "overwrite drops only its own fragments" `Quick
            test_overwrite_drops_only_own_fragments;
          soak_case "50k writes stay flat" `Slow test_soak_state_stays_flat;
        ]
        @ qsuite [ prop_waiters_match_full_scan ] );
      ( "audit",
        [
          Alcotest.test_case "proofs" `Quick test_audit_proofs;
          Alcotest.test_case "divergence" `Quick test_audit_detects_divergence;
          Alcotest.test_case "localizes equivocation" `Quick
            test_audit_localizes_equivocation;
          Alcotest.test_case "rollback proven and repaired" `Quick
            test_evidence_and_audit_catch_rollback;
        ] );
      ( "costs",
        [
          Alcotest.test_case "context ops" `Quick test_costs_context_ops;
          Alcotest.test_case "data write" `Quick test_costs_data_write;
          Alcotest.test_case "data read" `Quick test_costs_data_read;
          Alcotest.test_case "multi-writer" `Quick test_costs_multi_writer;
        ]
        @ qsuite [ prop_op_costs ] );
      ( "sigcache",
        [
          Alcotest.test_case "lru mechanics" `Quick test_sigcache_lru;
          Alcotest.test_case "hit consistency" `Quick test_sigcache_hit_consistency;
          Alcotest.test_case "forgery never cached valid" `Quick
            test_sigcache_forged_never_valid;
        ]
        @ qsuite [ prop_sigcache_bounded; prop_sigcache_verdict_stable ] );
      ( "fast-path",
        [
          Alcotest.test_case "mac hold + upgrade" `Quick
            test_mac_write_held_and_upgraded;
          Alcotest.test_case "mac binding vs replay" `Quick
            test_mac_binding_rejects_replay;
          Alcotest.test_case "mac stamp kinds" `Quick
            test_mac_write_stamp_kind_mix_refused;
          Alcotest.test_case "mac not gossipable" `Quick
            test_mac_evidence_not_gossipable;
          Alcotest.test_case "maced survives snapshot" `Quick
            test_snapshot_preserves_maced;
          Alcotest.test_case "mac-fast end to end" `Quick
            test_mac_fast_client_end_to_end;
          Alcotest.test_case "batch amortizes signs" `Quick
            test_mac_fast_amortizes_signs;
          Alcotest.test_case "downgrade proven" `Quick
            test_downgrade_server_proven_faulty;
          Alcotest.test_case "stripped proofs proven" `Quick
            test_downgrade_strips_batch_proofs_detected;
        ] );
      ( "spans",
        [ Alcotest.test_case "phases perfbench reads" `Quick test_span_vocabulary ] );
      ("properties", qsuite [ prop_mrc_monotonic; prop_cc_no_overwritten_reads ]);
    ]
