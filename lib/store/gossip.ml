(* Every server-to-server push, simulated or live, is built here. *)
let push_envelope ?(have = []) ~epoch writes =
  {
    Payload.token = None;
    epoch = 0;
    request = Payload.Gossip_push { writes; have; epoch };
  }

let choose_peers rng ~self ~count ~n =
  let others = Array.of_list (List.filter (fun i -> i <> self) (List.init n Fun.id)) in
  Sim.Srng.shuffle rng others;
  Array.to_list (Array.sub others 0 (min count (Array.length others)))

let install engine ~servers ?fanout ~period ~rng () =
  let n = Array.length servers in
  Array.to_list
    (Array.map
       (fun server ->
         let sid = Server.id server in
         let fanout =
           match fanout with Some f -> f | None -> (Server.config server).b + 1
         in
         let rng = Sim.Srng.split rng in
         Sim.Engine.every engine ~period ~client:sid (fun () ->
             (* In an epoch-enabled world, pushes fire even with an
                empty write buffer: the epoch itself is anti-entropy
                state, and a server that crashed through an
                announcement catches up from any peer's next push. *)
             match (Server.take_gossip_buffer server, Server.epoch server) with
             | [], None -> ()
             | writes, epoch ->
               let payload =
                 Payload.encode_envelope
                   (push_envelope ~have:(Server.gossip_summary server) ~epoch
                      writes)
               in
               List.iter
                 (fun peer -> Sim.Runtime.send peer payload)
                 (choose_peers rng ~self:sid ~count:fanout ~n)))
       servers)

let exchange_once ~servers ~rng ?fanout () =
  let n = Array.length servers in
  let pushed = ref 0 in
  Array.iter
    (fun server ->
      let sid = Server.id server in
      let fanout =
        match fanout with Some f -> f | None -> (Server.config server).Server.b + 1
      in
      match Server.take_gossip_buffer server with
      | [] -> ()
      | writes ->
        pushed := !pushed + List.length writes;
        let env =
          push_envelope ~have:(Server.gossip_summary server)
            ~epoch:(Server.epoch server) writes
        in
        List.iter
          (fun peer ->
            ignore (Server.handle servers.(peer) ~now:0.0 ~from:sid env))
          (choose_peers rng ~self:sid ~count:fanout ~n))
    servers;
  !pushed

(* Direct-invocation fragment anti-entropy (the sim/test counterpart of
   the live host's repair pass): every server rebuilds its missing
   fragments by pulling from peers' handlers. *)
let repair_once ~servers () =
  let n = Array.length servers in
  Array.fold_left
    (fun acc server ->
      let sid = Server.id server in
      let fetch ~peer request =
        if peer < 0 || peer >= n || peer = sid then None
        else
          Server.handle servers.(peer) ~now:0.0 ~from:sid
            { Payload.token = None; epoch = 0; request }
      in
      acc + Server.repair_fragments server ~fetch)
    0 servers

let flood ~servers =
  let n = Array.length servers in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iter
      (fun server ->
        let sid = Server.id server in
        match Server.take_gossip_buffer server with
        | [] -> ()
        | writes ->
          progressed := true;
          let env =
            push_envelope ~have:(Server.gossip_summary server)
              ~epoch:(Server.epoch server) writes
          in
          for peer = 0 to n - 1 do
            if peer <> sid then
              ignore (Server.handle servers.(peer) ~now:0.0 ~from:sid env)
          done)
      servers
  done
