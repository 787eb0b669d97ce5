type t = {
  table : Shardmap.t;
  uid : string;
  key : Crypto.Rsa.keypair;
  keyring : Keyring.t;
  config_of : int -> Client.config;
  sessions : (string, Client.t) Hashtbl.t;
  known : (string, Payload.ctx_record) Hashtbl.t;
      (* per group, the record the last closed session held: the next
         connect asks for it by digest instead of fetching it again *)
}

let shard_servers ~n shard = List.init n (fun r -> (shard * n) + r)

let create ?admin ~table ~uid ~key ~keyring ~config_of () =
  (match admin with
  | Some pub when not (Shardmap.verify table pub) ->
    invalid_arg "Router.create: shard table signature invalid"
  | _ -> ());
  {
    table;
    uid;
    key;
    keyring;
    config_of;
    sessions = Hashtbl.create 16;
    known = Hashtbl.create 16;
  }

let shard_of t uid = Shardmap.shard_of_uid t.table uid
let table t = t.table

let session t ~group =
  match Hashtbl.find_opt t.sessions group with
  | Some c -> Ok c
  | None -> (
    let shard = Shardmap.shard_of_group t.table group in
    let config = t.config_of shard in
    match
      Client.connect ?known:(Hashtbl.find_opt t.known group) ~config ~uid:t.uid
        ~key:t.key ~keyring:t.keyring ~group ()
    with
    | Ok c ->
      Hashtbl.replace t.sessions group c;
      Ok c
    | Error _ as e -> e)

(* Wrap one routed op: resolve the owning session, run, and account the
   outcome to the shard so a hot or sick shard shows up on /metrics. *)
let routed t ~uid ~write op =
  let group = Uid.group uid in
  let shard = Shardmap.shard_of_group t.table group in
  let t0 = Sim.Runtime.now () in
  let result =
    match session t ~group with Ok c -> op c | Error _ as e -> e
  in
  let ns = (Sim.Runtime.now () -. t0) *. 1e9 in
  let ok = match result with Ok _ -> true | Error _ -> false in
  Metrics.note_shard_client_op ~shard ~write ~ok (if ns > 0.0 then ns else 0.0);
  result

let write t ~uid value =
  routed t ~uid ~write:true (fun c -> Client.write c ~item:(Uid.item uid) value)

let read t ~uid =
  routed t ~uid ~write:false (fun c -> Client.read c ~item:(Uid.item uid))

let first_error results =
  List.fold_left
    (fun acc r -> match acc with Ok () -> r | Error _ -> acc)
    (Ok ()) results

(* Close every session with one signature: prepare each write-back,
   sign the bodies as one batch (a lone body keeps a plain signature),
   then store every record of a shard in one round. Sessions whose
   context a quorum already holds send nothing. Every session is
   visited, and a record refused on its own fails only its session. *)
let disconnect t =
  Obs.Span.with_op "disconnect" @@ fun () ->
  let prepared =
    Hashtbl.fold
      (fun _ c acc -> Client.prepare_close c :: acc)
      t.sessions []
  in
  let dirty, held =
    List.partition
      (fun c -> Client.close_body c <> None)
      (List.filter_map Result.to_option prepared)
  in
  let evidence =
    Signbatch.sign_contexts ~key:t.key (List.filter_map Client.close_body dirty)
  in
  let stored =
    Client.finish_close
      (List.map2 (fun c e -> (c, Some e)) dirty evidence
      @ List.map (fun c -> (c, None)) held)
  in
  Hashtbl.iter
    (fun group c ->
      match Client.held_context c with
      | Some r -> Hashtbl.replace t.known group r
      | None -> Hashtbl.remove t.known group)
    t.sessions;
  Hashtbl.reset t.sessions;
  first_error (List.map (Result.map ignore) prepared @ stored)

let sessions t = Hashtbl.fold (fun g c acc -> (g, c) :: acc) t.sessions []
