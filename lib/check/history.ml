type t = {
  lock : Mutex.t;
  mutable rev_events : Store.Trace.event list;  (* newest first *)
  mutable count : int;
}

let create () = { lock = Mutex.create (); rev_events = []; count = 0 }

let record t ev =
  Mutex.lock t.lock;
  t.rev_events <- ev :: t.rev_events;
  t.count <- t.count + 1;
  Mutex.unlock t.lock

let events t =
  Mutex.lock t.lock;
  let evs = List.rev t.rev_events in
  Mutex.unlock t.lock;
  evs

let length t =
  Mutex.lock t.lock;
  let n = t.count in
  Mutex.unlock t.lock;
  n

let in_use = Mutex.create ()
let active = ref false

let recording t fn =
  Mutex.lock in_use;
  if !active then begin
    Mutex.unlock in_use;
    invalid_arg "History.recording: already recording (recorder is global)"
  end;
  active := true;
  Mutex.unlock in_use;
  Store.Trace.reset ();
  Store.Trace.set_sink (Some (record t));
  Fun.protect
    ~finally:(fun () ->
      Store.Trace.set_sink None;
      Mutex.lock in_use;
      active := false;
      Mutex.unlock in_use)
    fn

(* ---------------- JSON ------------------------------------------------- *)

let str buf s =
  Buffer.add_char buf '"';
  Obs.Jsonx.escape_into buf s;
  Buffer.add_char buf '"'

let stamp_json buf (s : Store.Stamp.t) =
  match s with
  | Store.Stamp.Scalar v -> Buffer.add_string buf (Printf.sprintf "{\"t\": %d}" v)
  | Store.Stamp.Multi { time; writer; digest } ->
    Buffer.add_string buf (Printf.sprintf "{\"t\": %d, \"w\": " time);
    str buf writer;
    Buffer.add_string buf ", \"d\": ";
    str buf (Crypto.Hexs.encode digest);
    Buffer.add_char buf '}'

let ctx_json buf ctx =
  Buffer.add_char buf '[';
  List.iteri
    (fun i (uid, stamp) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_char buf '[';
      str buf (Store.Uid.to_string uid);
      Buffer.add_string buf ", ";
      stamp_json buf stamp;
      Buffer.add_char buf ']')
    ctx;
  Buffer.add_char buf ']'

let kind_json buf (k : Store.Trace.opkind) =
  match k with
  | Store.Trace.Connect -> Buffer.add_string buf "{\"op\": \"connect\"}"
  | Store.Trace.Disconnect -> Buffer.add_string buf "{\"op\": \"disconnect\"}"
  | Store.Trace.Reconstruct -> Buffer.add_string buf "{\"op\": \"reconstruct\"}"
  | Store.Trace.Write { uid; stamp; digest } ->
    Buffer.add_string buf "{\"op\": \"write\", \"uid\": ";
    str buf (Store.Uid.to_string uid);
    Buffer.add_string buf ", \"stamp\": ";
    stamp_json buf stamp;
    Buffer.add_string buf ", \"digest\": ";
    str buf digest;
    Buffer.add_char buf '}'
  | Store.Trace.Read { uid } ->
    Buffer.add_string buf "{\"op\": \"read\", \"uid\": ";
    str buf (Store.Uid.to_string uid);
    Buffer.add_char buf '}'

let outcome_json buf (o : Store.Trace.outcome) =
  match o with
  | Store.Trace.Connected r ->
    Buffer.add_string buf
      (match r with
      | Store.Trace.Stored -> "{\"result\": \"connected\", \"ctx\": \"stored\"}"
      | Store.Trace.Fresh -> "{\"result\": \"connected\", \"ctx\": \"fresh\"}"
      | Store.Trace.Rebuilt -> "{\"result\": \"connected\", \"ctx\": \"rebuilt\"}")
  | Store.Trace.Ok_unit -> Buffer.add_string buf "{\"result\": \"ok\"}"
  | Store.Trace.Ok_value { stamp; digest; writer } ->
    Buffer.add_string buf "{\"result\": \"value\", \"stamp\": ";
    stamp_json buf stamp;
    Buffer.add_string buf ", \"digest\": ";
    str buf digest;
    Buffer.add_string buf ", \"writer\": ";
    str buf writer;
    Buffer.add_char buf '}'
  | Store.Trace.Failed e ->
    Buffer.add_string buf "{\"result\": \"error\", \"error\": ";
    str buf e;
    Buffer.add_char buf '}'

let event_json buf (e : Store.Trace.event) =
  Buffer.add_string buf
    (Printf.sprintf "{\"seq\": %d, \"opid\": %d, \"time\": %.6f, \"client\": "
       e.seq e.op e.time);
  str buf e.client;
  Buffer.add_string buf
    (Printf.sprintf ", \"session\": %d, \"mode\": \"%s\", \"consistency\": \"%s\", \"epoch\": %d, \"phase\": \"%s\", \"kind\": "
       e.session
       (if e.multi_writer then "mw" else "sw")
       (if e.causal then "cc" else "mrc")
       e.epoch
       (match e.phase with Store.Trace.Invoke -> "invoke" | Store.Trace.Return -> "return"));
  kind_json buf e.kind;
  (match e.outcome with
  | None -> ()
  | Some o ->
    Buffer.add_string buf ", \"outcome\": ";
    outcome_json buf o);
  Buffer.add_string buf ", \"ctx\": ";
  ctx_json buf e.ctx;
  if e.trace <> "" then begin
    Buffer.add_string buf ", \"trace\": ";
    str buf e.trace
  end;
  Buffer.add_char buf '}'

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"events\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      event_json buf e)
    (events t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let digest t = Crypto.Sha256.hex_digest (to_json t)
