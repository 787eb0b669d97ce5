module Client = Store.Client
module Engine = Sim.Engine
module Srng = Sim.Srng

type fault_category =
  | Loss
  | Jitter
  | Crash
  | Partition
  | Byzantine
  | Reconfig
  | Frag_loss

let category_name = function
  | Loss -> "loss"
  | Jitter -> "jitter"
  | Crash -> "crash"
  | Partition -> "partition"
  | Byzantine -> "byzantine"
  | Reconfig -> "reconfig"
  | Frag_loss -> "frag-loss"

type reconfig =
  | Add_server of int
  | Remove_server of int
  | Replace_server of { remove : int; add : int }

type schedule = {
  seed : int;
  n : int;
  b : int;
  clients : int;
  mode : Client.mode;
  consistency : Client.consistency;
  read_spread : bool;
  items : int;
  ops_per_client : int;
  horizon : float;
  drop_probability : float;
  latency_hi : float;
  gossip_period : float;
  crashes : (int * float * float) list;
  partitions : (int list * float * float) list;
  byzantine : (int * Store.Faults.behavior) list;
  signing : Client.signing_mode;
  canary : bool;
  scripted : bool;
  reconfigs : (float * reconfig) list;
      (* time-ordered, admin-signed membership transitions; empty =
         static world (no epoch machinery at all) *)
  capacity : int;  (* server processes; ids n.. are join standbys *)
  dispersal : bool;
      (* big-value workload: clients write values over a small dispersal
         threshold, so the coded k-of-n data path runs under this
         schedule's faults, with a periodic fragment-repair round *)
  frag_losses : (int * float) list;
      (* (server, time): the server forgets every fragment it holds —
         the "holder lost its disk" fault the repair loop must undo *)
}

(* The latency floor below which [Jitter] counts as disabled. *)
let base_latency_hi = 0.002
let client_pool = [| "alice"; "bob"; "carol" |]

let schedule_of_seed seed =
  let rng = Srng.create seed in
  let n = Srng.pick rng [ 4; 5; 7; 10 ] in
  let max_b = min 2 ((n - 1) / 3) in
  let b = 1 + Srng.int_below rng max_b in
  let clients = 1 + Srng.int_below rng (Array.length client_pool) in
  let mode =
    if Srng.bool_with_probability rng 0.35 then Client.Multi_writer
    else Client.Single_writer
  in
  let consistency =
    if Srng.bool_with_probability rng 0.5 then Client.CC else Client.MRC
  in
  let read_spread = Srng.bool_with_probability rng 0.3 in
  let items = 1 + Srng.int_below rng 3 in
  let ops_per_client = 6 + Srng.int_below rng 7 in
  let horizon = 10.0 +. (float_of_int ops_per_client *. 2.0) in
  let drop_probability = Srng.pick rng [ 0.0; 0.0; 0.01; 0.05 ] in
  let latency_hi = Srng.pick rng [ base_latency_hi; 0.01; 0.05 ] in
  let gossip_period = Srng.pick rng [ 0.5; 2.0 ] in
  let window () =
    let from_t = Srng.uniform rng ~lo:1.0 ~hi:(horizon *. 0.6) in
    let until_t = from_t +. Srng.uniform rng ~lo:2.0 ~hi:8.0 in
    (from_t, until_t)
  in
  let crashes =
    List.init (Srng.int_below rng 3) (fun _ ->
        let s = Srng.int_below rng n in
        let from_t, until_t = window () in
        (s, from_t, until_t))
  in
  let partitions =
    if Srng.bool_with_probability rng 0.4 then
      let s = Srng.int_below rng n in
      let from_t, until_t = window () in
      [ ([ s ], from_t, until_t) ]
    else []
  in
  let byzantine =
    (* Stay inside the threat model: at most [b] lying servers. *)
    let behaviors =
      Store.Faults.
        [ Stale; Corrupt_value; Corrupt_meta; Equivocate; Silent_reads;
          Drop_gossip; Crash; Downgrade ]
      @ (if mode = Client.Multi_writer then [ Store.Faults.Eager_report ] else [])
    in
    let order = Array.init n Fun.id in
    Srng.shuffle rng order;
    List.init (Srng.int_below rng (b + 1)) (fun i ->
        (order.(i), Srng.pick rng behaviors))
  in
  (* Drawn last so adding signing modes leaves earlier draws (topology,
     faults) of a given seed unchanged. Four entries, three of them the
     per-write-sig baseline, keep every seed's draw where it was. *)
  let signing =
    Srng.pick rng
      [
        Client.Per_write_sig; Client.Per_write_sig; Client.Per_write_sig;
        Client.Mac_fast;
      ]
  in
  (* Dispersal draws come from a separate stream (seed xor a constant),
     like the reconfig draws: every draw above is byte-for-byte the
     seed's familiar schedule, so existing determinism digests stay
     comparable. *)
  let drng = Srng.create (seed lxor 0xd15b) in
  let dispersal = Srng.bool_with_probability drng 0.4 in
  let frag_losses =
    if not dispersal then []
    else
      List.init (Srng.int_below drng 3) (fun _ ->
          ( Srng.int_below drng n,
            Srng.uniform drng ~lo:2.0 ~hi:(horizon *. 0.8) ))
  in
  {
    seed;
    n;
    b;
    clients;
    mode;
    consistency;
    read_spread;
    items;
    ops_per_client;
    horizon;
    drop_probability;
    latency_hi;
    gossip_period;
    crashes;
    partitions;
    byzantine;
    signing;
    canary = false;
    scripted = false;
    reconfigs = [];
    capacity = n;
    dispersal;
    frag_losses;
  }

(* A seed's schedule plus 1-2 membership transitions. The reconfig draws
   come from a *separate* stream (seed xor a constant), so every other
   draw of [schedule_of_seed] — topology, faults, signing — is byte-for-
   byte the seed's familiar schedule and existing determinism digests
   stay comparable. Transitions keep (n, b) valid at every step: adds
   bring in fresh standbys, removes only happen above the 3b+1 floor,
   replaces keep n constant. *)
let reconfig_schedule_of_seed seed =
  let s = schedule_of_seed seed in
  let rng = Srng.create (seed lxor 0x5eed) in
  let count = 1 + Srng.int_below rng 2 in
  let members = ref (List.init s.n Fun.id) in
  let next_standby = ref s.n in
  let events =
    List.init count (fun i ->
        let at =
          s.horizon
          *. ((0.2 +. (0.5 *. float_of_int i /. float_of_int count))
             +. (0.15 *. float_of_int (Srng.int_below rng 100) /. 100.))
        in
        let pick_member () =
          List.nth !members (Srng.int_below rng (List.length !members))
        in
        let can_remove = List.length !members - 1 >= (3 * s.b) + 1 in
        let ev =
          match Srng.int_below rng 3 with
          | 0 ->
            let add = !next_standby in
            incr next_standby;
            members := !members @ [ add ];
            Add_server add
          | 1 when can_remove ->
            let r = pick_member () in
            members := List.filter (fun x -> x <> r) !members;
            Remove_server r
          | _ ->
            let r = pick_member () in
            let add = !next_standby in
            incr next_standby;
            members := add :: List.filter (fun x -> x <> r) !members;
            Replace_server { remove = r; add }
        in
        (at, ev))
  in
  { s with reconfigs = events; capacity = !next_standby }

let apply_reconfig ev servers =
  match ev with
  | Add_server s -> List.sort_uniq compare (s :: servers)
  | Remove_server s -> List.filter (fun x -> x <> s) servers
  | Replace_server { remove; add } ->
    List.sort_uniq compare (add :: List.filter (fun x -> x <> remove) servers)

let canary_schedule ~seed =
  {
    seed;
    n = 4;
    b = 1;
    clients = 2;
    mode = Client.Single_writer;
    consistency = Client.MRC;
    read_spread = false;
    items = 1;
    ops_per_client = 4;
    horizon = 13.0;
    drop_probability = 0.0;
    latency_hi = 0.02;
    gossip_period = 1.0;
    (* server 0 misses the second write and recovers stale; server 1
       then goes down so the read's b+1 poll set only hears server 0 *)
    crashes = [ (0, 0.5, 9.0); (1, 9.5, 1.0e9) ];
    (* decoys the shrinker must prove irrelevant *)
    partitions = [ ([ 2 ], 5.0, 6.0) ];
    byzantine = [ (3, Store.Faults.Corrupt_value) ];
    signing = Client.Per_write_sig;
    canary = true;
    scripted = true;
    reconfigs = [];
    capacity = 4;
    dispersal = false;
    frag_losses = [];
  }

let describe s =
  let windows l =
    String.concat ","
      (List.map (fun (sv, f, u) -> Printf.sprintf "%d@[%.1f,%.1f]" sv f u) l)
  in
  let parts =
    String.concat ","
      (List.map
         (fun (g, f, u) ->
           Printf.sprintf "{%s}@[%.1f,%.1f]"
             (String.concat ";" (List.map string_of_int g))
             f u)
         s.partitions)
  in
  let byz =
    String.concat ","
      (List.map
         (fun (sv, beh) ->
           Printf.sprintf "%d:%s" sv (Store.Faults.to_string beh))
         s.byzantine)
  in
  let reconf =
    String.concat ","
      (List.map
         (fun (at, ev) ->
           match ev with
           | Add_server sv -> Printf.sprintf "+%d@%.1f" sv at
           | Remove_server sv -> Printf.sprintf "-%d@%.1f" sv at
           | Replace_server { remove; add } ->
             Printf.sprintf "%d>%d@%.1f" remove add at)
         s.reconfigs)
  in
  let fragl =
    String.concat ","
      (List.map
         (fun (sv, at) -> Printf.sprintf "%d@%.1f" sv at)
         s.frag_losses)
  in
  Printf.sprintf
    "seed=%d n=%d b=%d clients=%d %s/%s/%s%s%s items=%d ops=%d drop=%.2f \
     lat<=%.3fs gossip=%.1fs crash=[%s] part=[%s] byz=[%s] reconf=[%s] \
     fragloss=[%s]%s"
    s.seed s.n s.b s.clients
    (match s.mode with Client.Single_writer -> "sw" | Client.Multi_writer -> "mw")
    (match s.consistency with Client.MRC -> "mrc" | Client.CC -> "cc")
    (match s.signing with
    | Client.Per_write_sig -> "sig"
    | Client.Mac_fast -> "mac")
    (if s.read_spread then "/spread" else "")
    (if s.dispersal then "/disp" else "")
    s.items s.ops_per_client s.drop_probability s.latency_hi s.gossip_period
    (windows s.crashes) parts byz reconf fragl
    (if s.canary then " CANARY" else "")

let active_categories s =
  List.filter_map Fun.id
    [
      (if s.drop_probability > 0.0 then Some Loss else None);
      (if s.latency_hi > base_latency_hi then Some Jitter else None);
      (if s.crashes <> [] then Some Crash else None);
      (if s.partitions <> [] then Some Partition else None);
      (if s.byzantine <> [] then Some Byzantine else None);
      (if s.reconfigs <> [] then Some Reconfig else None);
      (if s.frag_losses <> [] then Some Frag_loss else None);
    ]

let disable cat s =
  match cat with
  | Loss -> { s with drop_probability = 0.0 }
  | Jitter -> { s with latency_hi = base_latency_hi }
  | Crash -> { s with crashes = [] }
  | Partition -> { s with partitions = [] }
  | Byzantine -> { s with byzantine = [] }
  | Reconfig ->
    (* No membership events; the epoch machinery disappears entirely
       (capacity stays — idle standbys are inert). *)
    { s with reconfigs = [] }
  | Frag_loss ->
    (* Keep the dispersed workload, drop the disk-loss events — the
       shrinker isolates whether losing fragments (vs merely coding
       them) is what broke the schedule. *)
    { s with frag_losses = [] }

type outcome = {
  schedule : schedule;
  history : History.t;
  events : int;
  ops_ok : int;
  ops_failed : int;
  violations : Oracle.violation list;
  messages_sent : int;
  bytes_sent : int;
  messages_dropped : int;
  history_digest : string;
}

(* ---------------- Workloads ------------------------------------------- *)

let client_config sched i base =
  {
    base with
    Client.consistency = sched.consistency;
    mode = sched.mode;
    timeout = 0.3;
    read_retries = 1;
    retry_delay = 0.2;
    write_retries = 1;
    read_spread = sched.read_spread;
    seed = sched.seed + i;
    canary_skip_freshness = sched.canary && i = 0;
    signing = sched.signing;
    (* Small so random runs exercise the escalation path, not just the
       read-triggered flush. *)
    escalate_every = 3;
    (* Low threshold so the padded workload values actually take the
       coded path (production default is 64 KiB). *)
    dispersal_threshold = (if sched.dispersal then 256 else 64 * 1024);
    epoch_admin =
      (if sched.reconfigs = [] then None
       else Some (Workload.Worlds.key_of "admin").Crypto.Rsa.public);
  }

let connect_client sched (w : Workload.Worlds.t) i name =
  let config = client_config sched i (Client.default_config ~n:sched.n ~b:sched.b) in
  Client.connect ~config ~uid:name ~key:(Workload.Worlds.key_of name)
    ~keyring:w.Workload.Worlds.keyring ~group:"g" ()

let sleep_until t =
  let now = Sim.Runtime.now () in
  if t > now then Sim.Runtime.sleep (t -. now)

(* Random mix: each client runs [ops_per_client] operations in two
   sessions (the mid-run reconnect exercises context storage and the
   oracle's continuity check). In single-writer mode only client 0
   writes. A failed MRC write leaves the context at the old time, so
   the next write of that item would reuse the stamp — the paper's
   writer must retry the same update, which our internal write retry
   already did, so the workload simply stops writing that item. *)
let random_fibers sched (w : Workload.Worlds.t) engine ~ops_ok ~ops_failed =
  for i = 0 to sched.clients - 1 do
    let name = client_pool.(i) in
    Engine.spawn engine
      ~at:(0.05 *. float_of_int i)
      ~client:(-(i + 1))
      (fun () ->
        let rng = Srng.create ((sched.seed * 131) + i) in
        let poisoned : (string, unit) Hashtbl.t = Hashtbl.create 4 in
        let connect () =
          match connect_client sched w i name with
          | Ok c ->
            incr ops_ok;
            Some c
          | Error _ ->
            incr ops_failed;
            None
        in
        let do_op c op =
          let item = "item" ^ string_of_int (Srng.int_below rng sched.items) in
          let writer = sched.mode = Client.Multi_writer || i = 0 in
          if
            writer
            && (not (Hashtbl.mem poisoned item))
            && Srng.bool_with_probability rng 0.5
          then (
            (* With dispersal on, every other write is padded over the
               threshold, so replicated and coded writes interleave on
               the same items (no extra rng draws: op parity decides). *)
            let value =
              let base = Printf.sprintf "%s-%d-%s" name op item in
              if sched.dispersal && op mod 2 = 0 then
                base ^ String.make 512 '.'
              else base
            in
            match Client.write c ~item value with
            | Ok () -> incr ops_ok
            | Error _ ->
              incr ops_failed;
              if sched.consistency = Client.MRC then
                Hashtbl.replace poisoned item ())
          else
            match Client.read c ~item with
            | Ok _ -> incr ops_ok
            | Error _ -> incr ops_failed
        in
        let disconnect c =
          match Client.disconnect c with
          | Ok () -> incr ops_ok
          | Error _ -> incr ops_failed
        in
        match connect () with
        | None -> ()
        | Some first ->
          let client = ref first in
          let half = max 1 (sched.ops_per_client / 2) in
          (try
             for op = 1 to sched.ops_per_client do
               Sim.Runtime.sleep (Srng.exponential rng ~mean:0.8);
               do_op !client op;
               if op = half then begin
                 disconnect !client;
                 Sim.Runtime.sleep 0.5;
                 match connect () with
                 | Some c -> client := c
                 | None -> raise Exit
               end
             done;
             disconnect !client
           with Exit -> ()))
  done

(* The canary choreography (see {!canary_schedule}): alice writes v1,
   server 0 crashes and misses v2, recovers stale; server 1 goes down;
   alice's t=11 read polls {0, 1} and only hears stale server 0. The
   honest client rejects v1 (below its context floor) and escalates to
   the fresh copy; the canary accepts it — the oracle must notice. *)
let canary_fibers sched (w : Workload.Worlds.t) engine ~ops_ok ~ops_failed =
  let count = function
    | Ok _ -> incr ops_ok
    | Error _ -> incr ops_failed
  in
  Engine.spawn engine ~at:0.0 ~client:(-1) (fun () ->
      match connect_client sched w 0 "alice" with
      | Error _ -> incr ops_failed
      | Ok alice ->
        incr ops_ok;
        count (Client.write alice ~item:"x" "v1");
        sleep_until 2.0;
        count (Client.write alice ~item:"x" "v2");
        sleep_until 11.0;
        count (Client.read alice ~item:"x");
        count (Client.disconnect alice));
  Engine.spawn engine ~at:0.2 ~client:(-2) (fun () ->
      match connect_client sched w 1 "bob" with
      | Error _ -> incr ops_failed
      | Ok bob ->
        incr ops_ok;
        sleep_until 4.0;
        count (Client.read bob ~item:"x");
        sleep_until 6.5;
        count (Client.disconnect bob))

(* ---------------- Running one schedule --------------------------------- *)

(* A broken server invariant, as a violation anchored where the history
   stood when a step left the server in an illegal state. *)
let invariant_violation ~seq ~time ~server msg =
  let client = Printf.sprintf "server%d" server in
  {
    Oracle.property = "server-invariants";
    explanation = Printf.sprintf "%s: %s" client msg;
    first =
      {
        Store.Trace.seq;
        op = 0;
        time;
        client;
        session = 0;
        multi_writer = false;
        causal = false;
        epoch = 0;
        phase = Store.Trace.Return;
        kind = Store.Trace.Connect;
        outcome = Some (Store.Trace.Failed msg);
        ctx = [];
        trace = "";
      };
    second = None;
  }

let run sched =
  let history = History.create () in
  let broken = ref None in
  let ops_ok = ref 0 and ops_failed = ref 0 in
  let sent = ref 0 and bytes = ref 0 and dropped = ref 0 in
  History.recording history (fun () ->
      let names =
        Array.to_list (Array.sub client_pool 0 sched.clients)
      in
      let admin =
        if sched.reconfigs = [] then None
        else Some (Workload.Worlds.key_of "admin")
      in
      let w =
        Workload.Worlds.make ~n:sched.n ~b:sched.b ~capacity:sched.capacity
          ?epoch_admin:(Option.map (fun k -> k.Crypto.Rsa.public) admin)
          ~clients:names ()
      in
      let latency =
        Sim.Latency.make ~drop_probability:sched.drop_probability
          (Sim.Latency.Uniform { lo = 0.0005; hi = sched.latency_hi })
      in
      let engine = Engine.create ~seed:sched.seed ~latency () in
      Workload.Worlds.register_engine w engine;
      List.iter (fun (i, beh) -> Workload.Worlds.wrap w i beh) sched.byzantine;
      ignore
        (Store.Gossip.install engine ~servers:w.Workload.Worlds.servers
           ~period:sched.gossip_period
           ~rng:(Srng.create (sched.seed + 7919))
           ());
      if sched.dispersal then begin
        (* Fragment anti-entropy on the gossip cadence, plus the
           disk-loss events it must undo. *)
        ignore
          (Engine.every engine ~period:sched.gossip_period ~client:(-98)
             (fun () ->
               ignore
                 (Store.Gossip.repair_once ~servers:w.Workload.Worlds.servers ()
                   : int)));
        List.iter
          (fun (s, at) ->
            Engine.spawn engine ~at ~client:(-97) (fun () ->
                ignore
                  (Store.Server.drop_all_fragments
                     w.Workload.Worlds.servers.(s)
                    : int)))
          sched.frag_losses
      end;
      List.iter
        (fun (s, from_t, until_t) ->
          Engine.spawn engine ~at:from_t (fun () -> Engine.set_down engine s true);
          Engine.spawn engine ~at:until_t (fun () ->
              Engine.set_down engine s false))
        sched.crashes;
      if sched.partitions <> [] then begin
        let isolated : (int, unit) Hashtbl.t = Hashtbl.create 4 in
        Engine.set_reachable engine (fun src dst ->
            Bool.equal (Hashtbl.mem isolated src) (Hashtbl.mem isolated dst));
        List.iter
          (fun (group, from_t, until_t) ->
            Engine.spawn engine ~at:from_t (fun () ->
                List.iter (fun s -> Hashtbl.replace isolated s ()) group);
            Engine.spawn engine ~at:until_t (fun () ->
                List.iter (fun s -> Hashtbl.remove isolated s) group))
          sched.partitions
      end;
      (match admin with
      | None -> ()
      | Some akey ->
        (* Every process (standbys included) starts from the same signed
           genesis; later epochs reach laggards via gossip piggyback. *)
        let genesis =
          match
            Store.Config_epoch.genesis ~servers:(List.init sched.n Fun.id)
              ~b:sched.b ()
          with
          | Ok e -> Store.Config_epoch.sign e akey
          | Error m -> failwith ("Explorer.run: genesis: " ^ m)
        in
        Array.iter
          (fun s -> Store.Server.set_epoch s genesis)
          w.Workload.Worlds.servers;
        (* The admin's view of the chain advances at each scheduled time
           regardless of delivery — announcements can be lost or arrive
           at crashed servers, and the system must still converge. *)
        let current = ref genesis in
        List.iter
          (fun (at, ev) ->
            Engine.spawn engine ~at ~client:(-99) (fun () ->
                let old_members = Store.Config_epoch.servers !current in
                let servers = apply_reconfig ev old_members in
                match
                  Store.Config_epoch.next !current ~servers ~b:sched.b ()
                with
                | Error _ -> ()
                | Ok e ->
                  let e = Store.Config_epoch.sign e akey in
                  current := e;
                  let msg =
                    Store.Payload.encode_envelope
                      {
                        Store.Payload.token = None;
                        epoch = 0;
                        request = Store.Payload.Epoch_announce e;
                      }
                  in
                  List.iter
                    (fun s -> Sim.Runtime.send s msg)
                    (List.sort_uniq compare (old_members @ servers))))
          sched.reconfigs);
      if sched.scripted then canary_fibers sched w engine ~ops_ok ~ops_failed
      else random_fibers sched w engine ~ops_ok ~ops_failed;
      (* Every honest server's state must stay legal after every step;
         the first broken invariant is the run's violation. *)
      let honest =
        List.filter
          (fun i -> not (List.mem_assoc i sched.byzantine))
          (List.init (Array.length w.Workload.Worlds.servers) Fun.id)
      in
      let after_step () =
        if Option.is_none !broken then
          broken :=
            List.find_map
              (fun i ->
                match Store.Server.invariants w.Workload.Worlds.servers.(i) with
                | Ok () -> None
                | Error msg ->
                  Some
                    (invariant_violation ~seq:(History.length history)
                       ~time:(Engine.now engine) ~server:i msg))
              honest
      in
      Engine.run ~until:sched.horizon ~after_step engine;
      let c = Engine.counters engine in
      sent := c.Engine.messages_sent;
      bytes := c.Engine.bytes_sent;
      dropped := c.Engine.messages_dropped);
  let events = History.events history in
  {
    schedule = sched;
    history;
    events = List.length events;
    ops_ok = !ops_ok;
    ops_failed = !ops_failed;
    violations = Oracle.check events @ Option.to_list !broken;
    messages_sent = !sent;
    bytes_sent = !bytes;
    messages_dropped = !dropped;
    history_digest = History.digest history;
  }

(* ---------------- Shrinking ------------------------------------------- *)

let shrink out =
  if out.violations = [] then (out, [])
  else begin
    let best = ref out in
    List.iter
      (fun cat ->
        if List.mem cat (active_categories !best.schedule) then begin
          let trial = run (disable cat !best.schedule) in
          if trial.violations <> [] then best := trial
        end)
      [ Byzantine; Partition; Loss; Jitter; Crash; Reconfig ];
    (!best, active_categories !best.schedule)
  end

(* ---------------- Reports --------------------------------------------- *)

let violation_report_json out =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"check-violation-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" out.schedule.seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"schedule\": \"%s\",\n"
       (Obs.Jsonx.escape (describe out.schedule)));
  Buffer.add_string buf
    (Printf.sprintf "  \"history_digest\": \"%s\",\n"
       (Obs.Jsonx.escape out.history_digest));
  Buffer.add_string buf "  \"violations\": [\n";
  List.iteri
    (fun i (v : Oracle.violation) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"property\": \"%s\", \"explanation\": \"%s\", \"first_seq\": %d%s}"
           (Obs.Jsonx.escape v.property)
           (Obs.Jsonx.escape v.explanation)
           v.first.Store.Trace.seq
           (match v.second with
           | None -> ""
           | Some e -> Printf.sprintf ", \"second_seq\": %d" e.Store.Trace.seq)))
    out.violations;
  Buffer.add_string buf "\n  ],\n  \"history\": ";
  Buffer.add_string buf (History.to_json out.history);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type summary = {
  runs : int;
  total_events : int;
  total_ok : int;
  total_failed : int;
  violated : outcome list;
}

let explore ~seeds =
  List.fold_left
    (fun acc seed ->
      let out = run (schedule_of_seed seed) in
      {
        runs = acc.runs + 1;
        total_events = acc.total_events + out.events;
        total_ok = acc.total_ok + out.ops_ok;
        total_failed = acc.total_failed + out.ops_failed;
        violated =
          (if out.violations <> [] then out :: acc.violated else acc.violated);
      })
    { runs = 0; total_events = 0; total_ok = 0; total_failed = 0; violated = [] }
    seeds
