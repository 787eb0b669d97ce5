module T = Store.Trace

let properties =
  [
    ( "ctx-monotonic",
      "a session's context snapshot always dominates its previous snapshot" );
    ( "ctx-continuity",
      "a connect that recovered a stored context dominates the context the \
       client last disconnected with" );
    ( "read-freshness",
      "a read never returns a stamp below the reader's context floor for the \
       item at invocation" );
    ( "read-your-writes",
      "within a session, a read returns at least the client's own latest \
       completed write of the item" );
    ( "monotonic-reads",
      "successive reads of one item in one session never return a smaller \
       stamp" );
    ( "read-linkage",
      "every returned value matches an actual write invocation: same uid, \
       stamp, value digest and writer" );
    ( "no-fork",
      "one stamp never names two values, and one writer never signs two \
       values under one multi-writer (time, writer) pair" );
  ]

type violation = {
  property : string;
  explanation : string;
  first : T.event;
  second : T.event option;
}

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s@.  at %a" v.property v.explanation T.pp_event
    v.first;
  match v.second with
  | None -> ()
  | Some e -> Format.fprintf fmt "@.  vs %a" T.pp_event e

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* Context snapshots arrive as binding lists; rebuild the map to reuse
   {!Store.Context.dominates}. *)
let ctx_of = Store.Context.of_bindings

let floor_of ctx uid =
  match List.find_opt (fun (u, _) -> Store.Uid.equal u uid) ctx with
  | Some (_, s) -> s
  | None -> Store.Stamp.zero

let ok_value (e : T.event) =
  match (e.phase, e.outcome) with
  | T.Return, Some (T.Ok_value { stamp; digest; writer }) ->
    Some (stamp, digest, writer)
  | _ -> None

let check events =
  let evs =
    List.sort (fun (a : T.event) b -> Int.compare a.seq b.seq) events
  in
  let violations = ref [] in
  let flag property explanation first second =
    violations := { property; explanation; first; second } :: !violations
  in
  (* last event per (client, session) — ctx monotonicity *)
  let last_ev : (string * int, T.event) Hashtbl.t = Hashtbl.create 16 in
  (* last successful disconnect per client — cross-session continuity *)
  let last_disc : (string, T.event) Hashtbl.t = Hashtbl.create 16 in
  (* invoke events by op id — pairs a return with its invocation *)
  let invokes : (int, T.event) Hashtbl.t = Hashtbl.create 64 in
  (* last completed write / last read per (client, session, uid) *)
  let last_write : (string * int * string, T.event) Hashtbl.t =
    Hashtbl.create 64
  in
  let last_read : (string * int * string, T.event) Hashtbl.t =
    Hashtbl.create 64
  in
  (* every write invocation by (uid, stamp) — linkage and forks *)
  let writes : (string * Store.Stamp.t, string * string * T.event) Hashtbl.t =
    Hashtbl.create 64
  in
  (* multi-writer (uid, writer, time) -> (digest, event) — writer forks *)
  let mw : (string * string * int, string * T.event) Hashtbl.t =
    Hashtbl.create 64
  in
  let check_ctx_monotonic (e : T.event) =
    let key = (e.client, e.session) in
    (match Hashtbl.find_opt last_ev key with
    | Some prev ->
      if not (Store.Context.dominates (ctx_of e.ctx) (ctx_of prev.ctx)) then
        flag "ctx-monotonic"
          (Printf.sprintf
             "%s session %d: context at event %d no longer dominates its \
              context at event %d — the client forgot an observed write"
             e.client e.session e.seq prev.seq)
          e (Some prev)
    | None -> ());
    Hashtbl.replace last_ev key e
  in
  let check_write_invoke (e : T.event) uid stamp digest =
    let ukey = Store.Uid.to_string uid in
    (match Hashtbl.find_opt writes (ukey, stamp) with
    | Some (d, _, prev) when not (String.equal d digest) ->
      flag "no-fork"
        (Format.asprintf
           "%s signed two different values under one stamp %a of %a (digests \
            %s vs %s)"
           e.client Store.Stamp.pp stamp Store.Uid.pp uid digest d)
        e (Some prev)
    | Some _ -> ()
    | None -> Hashtbl.add writes (ukey, stamp) (digest, e.client, e));
    match stamp with
    | Store.Stamp.Multi { time; writer; _ } -> (
      match Hashtbl.find_opt mw (ukey, writer, time) with
      | Some (d, prev) when not (String.equal d digest) ->
        flag "no-fork"
          (Format.asprintf
             "writer %s forked %a at time %d: two values under one (time, \
              writer) pair"
             writer Store.Uid.pp uid time)
          e (Some prev)
      | Some _ -> ()
      | None -> Hashtbl.add mw (ukey, writer, time) (digest, e))
    | Store.Stamp.Scalar _ -> ()
  in
  let check_read_return (e : T.event) uid =
    match ok_value e with
    | None -> ()
    | Some (stamp, digest, writer) ->
      let ukey = Store.Uid.to_string uid in
      (* read-freshness: compare against the floor recorded at invoke *)
      (match Hashtbl.find_opt invokes e.op with
      | Some inv ->
        let floor = floor_of inv.ctx uid in
        if Store.Stamp.compare stamp floor < 0 then
          flag "read-freshness"
            (Format.asprintf
               "%s read %a at stamp %a although its context already proved \
                %a — a stale value slipped past the freshness check"
               e.client Store.Uid.pp uid Store.Stamp.pp stamp Store.Stamp.pp
               floor)
            e (Some inv)
      | None -> ());
      (* read-your-writes *)
      (match Hashtbl.find_opt last_write (e.client, e.session, ukey) with
      | Some wev -> (
        match wev.kind with
        | T.Write { stamp = ws; _ } ->
          if Store.Stamp.compare stamp ws < 0 then
            flag "read-your-writes"
              (Format.asprintf
                 "%s read %a at stamp %a after completing its own write at \
                  %a in the same session"
                 e.client Store.Uid.pp uid Store.Stamp.pp stamp Store.Stamp.pp
                 ws)
              e (Some wev)
        | _ -> ())
      | None -> ());
      (* monotonic-reads *)
      (match Hashtbl.find_opt last_read (e.client, e.session, ukey) with
      | Some rev -> (
        match ok_value rev with
        | Some (prev_stamp, _, _) ->
          if Store.Stamp.compare stamp prev_stamp < 0 then
            flag "monotonic-reads"
              (Format.asprintf
                 "%s's reads of %a went backwards: %a after %a within one \
                  session"
                 e.client Store.Uid.pp uid Store.Stamp.pp stamp Store.Stamp.pp
                 prev_stamp)
              e (Some rev)
        | None -> ())
      | None -> ());
      Hashtbl.replace last_read (e.client, e.session, ukey) e;
      (* read-linkage *)
      (match Hashtbl.find_opt writes (ukey, stamp) with
      | None ->
        flag "read-linkage"
          (Format.asprintf
             "%s read a value of %a at stamp %a that no client ever wrote \
              (digest %s)"
             e.client Store.Uid.pp uid Store.Stamp.pp stamp digest)
          e None
      | Some (d, _, wev) when not (String.equal d digest) ->
        flag "read-linkage"
          (Format.asprintf
             "read of %a returned digest %s but the write under stamp %a \
              carried digest %s — a server altered the value"
             Store.Uid.pp uid digest Store.Stamp.pp stamp d)
          e (Some wev)
      | Some (_, w, wev) when not (String.equal w writer) ->
        flag "read-linkage"
          (Format.asprintf
             "read of %a attributes stamp %a to writer %s but %s wrote it"
             Store.Uid.pp uid Store.Stamp.pp stamp writer w)
          e (Some wev)
      | Some _ -> ())
  in
  List.iter
    (fun (e : T.event) ->
      check_ctx_monotonic e;
      (match (e.phase, e.kind) with
      | T.Invoke, T.Write { uid; stamp; digest } ->
        check_write_invoke e uid stamp digest
      | T.Invoke, _ -> ()
      | T.Return, T.Read { uid } -> check_read_return e uid
      | T.Return, T.Write { uid; stamp; _ } ->
        if e.outcome = Some T.Ok_unit then
          Hashtbl.replace last_write
            (e.client, e.session, Store.Uid.to_string uid)
            e
        else ignore stamp
      | T.Return, T.Connect -> (
        match e.outcome with
        | Some (T.Connected T.Stored) -> (
          match Hashtbl.find_opt last_disc e.client with
          | Some disc ->
            if not (Store.Context.dominates (ctx_of e.ctx) (ctx_of disc.ctx))
            then
              flag "ctx-continuity"
                (Printf.sprintf
                   "%s reconnected (session %d) with a stored context that \
                    lost entries it disconnected with at event %d — the \
                    context quorum intersection failed"
                   e.client e.session disc.seq)
              e (Some disc)
          | None -> ())
        | _ -> ())
      | T.Return, T.Disconnect ->
        if e.outcome = Some T.Ok_unit then Hashtbl.replace last_disc e.client e
      | T.Return, T.Reconstruct -> ());
      if e.phase = T.Invoke then Hashtbl.replace invokes e.op e)
    evs;
  List.rev !violations

