(* The paper's class-3 application (section 2): citizens collaboratively
   develop a community plan. Multiple writers, causal consistency,
   malicious-client protection:

   - multi-writer timestamps (time, writer, digest) order concurrent
     drafts;
   - causal consistency makes sure nobody reads a comment without the
     draft it refers to;
   - the section 5.3 guard holds a malicious member's poisoned write
     (spurious context) so it can neither be read nor pollute contexts.

     dune exec examples/community_plan.exe *)

let printf = Printf.printf

let () =
  let n = 4 and b = 1 in
  let keyring = Store.Keyring.create () in
  let key name = Crypto.Rsa.generate (Crypto.Prng.create ~seed:name) in
  let alice = key "alice" and bob = key "bob" and mallory = key "mallory" in
  Store.Keyring.register keyring "alice" alice.Crypto.Rsa.public;
  Store.Keyring.register keyring "bob" bob.Crypto.Rsa.public;
  Store.Keyring.register keyring "mallory" mallory.Crypto.Rsa.public;
  (* Servers run with the malicious-client guard on: a write is reported
     only once its causal predecessors have arrived. *)
  let config =
    { (Store.Server.default_config ~n ~b) with Store.Server.malicious_client_guard = true }
  in
  let servers =
    Array.init n (fun id -> Store.Server.create ~config ~id ~keyring ~n ~b ())
  in
  let handlers dst ~from request =
    if dst >= 0 && dst < n then Store.Server.handler servers.(dst) ~now:0.0 ~from request
    else None
  in
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Store.Client.error_to_string e)
  in
  let mw_cc c =
    { c with Store.Client.mode = Store.Client.Multi_writer; consistency = Store.Client.CC }
  in

  Sim.Direct.run ~handlers (fun () ->
      let connect name k =
        ok
          (Store.Client.connect
             ~config:(mw_cc (Store.Client.default_config ~n ~b))
             ~uid:name ~key:k ~keyring ~group:"plan" ())
      in
      let a = connect "alice" alice in
      let b_ = connect "bob" bob in

      (* Alice drafts; Bob reads the draft and comments on it. CC makes
         the comment depend on the draft. *)
      ok (Store.Client.write a ~item:"draft" "1. fix the playground fence");
      let draft = ok (Store.Client.read b_ ~item:"draft") in
      printf "bob read the draft: %S\n" draft;
      ok (Store.Client.write b_ ~item:"comments" "re fence: use cedar posts");

      (* Carol-like reader: anyone who sees the comment is guaranteed to
         see (at least) the draft version it was based on. *)
      let carol = connect "alice" alice in
      let comment = ok (Store.Client.read carol ~item:"comments") in
      let draft' = ok (Store.Client.read carol ~item:"draft") in
      printf "observer read: comment=%S, and causally-consistent draft=%S\n"
        comment draft';

      (* Concurrent revision: both write the draft; every reader settles
         on the same winner (3-tuple timestamp order). *)
      ok (Store.Client.write a ~item:"draft" "2. fence + new benches");
      ok (Store.Client.write b_ ~item:"draft" "2. fence + street lights");
      let w1 = ok (Store.Client.read (connect "alice" alice) ~item:"draft") in
      let w2 = ok (Store.Client.read (connect "bob" bob) ~item:"draft") in
      printf "concurrent drafts converge: %S = %S -> %b\n" w1 w2 (w1 = w2);

      (* Mallory attacks: a signed write whose context references a
         version that exists nowhere (the denial-of-service of section
         5.3). Guarded servers hold it. *)
      let dep = Store.Uid.make ~group:"plan" ~item:"draft" in
      let doc = Store.Uid.make ~group:"plan" ~item:"minutes" in
      let bogus =
        Store.Context.of_bindings
          [ (dep, Store.Stamp.multi ~time:999_999_999 ~writer:"mallory" ~value:"?") ]
      in
      let poisoned =
        Store.Signing.sign_write ~key:mallory ~writer:"mallory" ~uid:doc
          ~stamp:(Store.Stamp.multi ~time:77 ~writer:"mallory" ~value:"chaos")
          ~wctx:bogus "chaos"
      in
      Array.iter
        (fun s ->
          ignore
            (Store.Server.handle s ~now:0.0 ~from:(-1)
               {
                 Store.Payload.token = None; epoch = 0;
                 request = Store.Payload.Write_req poisoned;
               }))
        servers;
      let reader = connect "bob" bob in
      (match Store.Client.read reader ~item:"minutes" with
      | Error (Store.Client.Not_found _) ->
        printf "mallory's poisoned write is held by the guard: invisible\n"
      | Ok v -> printf "BUG: poisoned value leaked: %S\n" v
      | Error e -> printf "read failed differently: %s\n" (Store.Client.error_to_string e));
      printf "held at server 0: %d write(s)\n"
        (Store.Server.pending_count servers.(0) doc));
  printf "community_plan ok\n"
