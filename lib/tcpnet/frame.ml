let max_frame = 16 * 1024 * 1024

(* 4-byte big-endian: frame lengths and correlation ids. *)
let put_u32 buf pos v =
  Bytes.set buf pos (Char.chr ((v lsr 24) land 0xff));
  Bytes.set buf (pos + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (pos + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (pos + 3) (Char.chr (v land 0xff))

let get_u32 s pos =
  let b i = Char.code s.[pos + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Frame.write_frame: frame too large";
  let buf = Bytes.create (4 + len) in
  put_u32 buf 0 len;
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let read_exactly fd len =
  let buf = Bytes.create len in
  let rec go pos =
    if pos >= len then Some (Bytes.unsafe_to_string buf)
    else begin
      match Unix.read fd buf pos (len - pos) with
      | 0 -> None
      | n -> go (pos + n)
    end
  in
  go 0

(* The oversized case is distinguished from EOF so a server can answer a
   framed error before dropping the connection. The claimed length is
   never allocated: an attacker sending a huge prefix costs us 4 bytes
   of header, not [len] bytes of buffer. *)
type read_result = Frame of string | Eof | Oversized of int

let read_frame_ext fd =
  match read_exactly fd 4 with
  | None -> Eof
  | Some header ->
    let len = get_u32 header 0 in
    if len > max_frame then Oversized len
    else (match read_exactly fd len with Some s -> Frame s | None -> Eof)

let read_frame fd =
  match read_frame_ext fd with Frame s -> Some s | Eof | Oversized _ -> None

(* --- request header (inside frames) --------------------------------------

   Every request has one layout: a kind byte (one-way or call), a flags
   byte, the 4-byte big-endian correlation id (calls only), the 2-byte
   big-endian shard id (always present; 0 on an unsharded host), the
   trace context when flag bit 0 is set, then the payload. Responses
   carry [tag_reply] + id + status byte, or [tag_conn_error] for a
   request the server could not even parse. *)

let kind_oneway = '\x00'
let kind_call = '\x01'
let tag_reply = '\x02'
let tag_conn_error = '\x03'
let flag_trace = 0x01

let max_id = 0x3fffffff
let max_shard = 0xffff

(* --- trace context ------------------------------------------------------
   A 1-byte length (exactly [ctx_bytes] today — a versioning hook, not a
   variable field), a 16-byte trace id, an 8-byte big-endian span id (top
   bit must be clear) and a flags byte. *)

type trace_ctx = { trace : string; span : int; flags : int }

let trace_id_bytes = 16
let ctx_bytes = trace_id_bytes + 8 + 1

let put_ctx buf pos { trace; span; flags } =
  if String.length trace <> trace_id_bytes then
    invalid_arg "Frame: trace id must be 16 bytes";
  if span < 0 then invalid_arg "Frame: span id out of range";
  Bytes.set buf pos (Char.chr ctx_bytes);
  Bytes.blit_string trace 0 buf (pos + 1) trace_id_bytes;
  for i = 0 to 7 do
    Bytes.set buf
      (pos + 1 + trace_id_bytes + i)
      (Char.chr ((span lsr (8 * (7 - i))) land 0xff))
  done;
  Bytes.set buf (pos + 1 + trace_id_bytes + 8) (Char.chr (flags land 0xff))

(* [None] on any malformation: truncated context, a length byte other
   than [ctx_bytes] (over-long or short trace ids), or a span id with
   the top bit set (unrepresentable as a nonnegative int). *)
let get_ctx s pos =
  if pos >= String.length s then None
  else
    let len = Char.code s.[pos] in
    if len <> ctx_bytes || pos + 1 + len > String.length s then None
    else
      let trace = String.sub s (pos + 1) trace_id_bytes in
      let b i = Char.code s.[pos + 1 + trace_id_bytes + i] in
      if b 0 land 0x80 <> 0 then None
      else begin
        let span = ref 0 in
        for i = 0 to 7 do
          span := (!span lsl 8) lor b i
        done;
        let flags = Char.code s.[pos + 1 + trace_id_bytes + 8] in
        Some ({ trace; span = !span; flags }, pos + 1 + len)
      end

let put_shard buf pos shard =
  if shard < 0 || shard > max_shard then
    invalid_arg "Frame: shard id out of range";
  Bytes.set buf pos (Char.chr ((shard lsr 8) land 0xff));
  Bytes.set buf (pos + 1) (Char.chr (shard land 0xff))

let get_shard s pos =
  (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]

let check_id id =
  if id < 0 || id > max_id then invalid_arg "Frame: correlation id out of range"

(* The one request writer. [framed] prepends the 4-byte length so the
   buffer is a complete wire image (the prebuilt broadcast path); the id
   of a call always sits at the same offset, right after kind and flags. *)
let build ~framed ?id ?(shard = 0) ?trace payload =
  let plen = String.length payload in
  let off = if framed then 4 else 0 in
  let ipos = off + 2 in
  let spos = match id with Some _ -> ipos + 4 | None -> ipos in
  let cpos = spos + 2 in
  let ppos = match trace with Some _ -> cpos + 1 + ctx_bytes | None -> cpos in
  let body = ppos - off + plen in
  (* Unframed requests meet the cap in [write_frame], where the pool
     already handles a failed write. *)
  if framed && body > max_frame then invalid_arg "Frame.prebuilt_call: frame too large";
  let buf = Bytes.create (off + body) in
  if framed then put_u32 buf 0 body;
  Bytes.set buf off (match id with Some _ -> kind_call | None -> kind_oneway);
  Bytes.set buf (off + 1)
    (Char.chr (match trace with Some _ -> flag_trace | None -> 0));
  (match id with
  | Some id ->
    check_id id;
    put_u32 buf ipos id
  | None -> ());
  put_shard buf spos shard;
  (match trace with Some ctx -> put_ctx buf cpos ctx | None -> ());
  Bytes.blit_string payload 0 buf ppos plen;
  buf

let encode_oneway ?shard ?trace payload =
  Bytes.unsafe_to_string (build ~framed:false ?shard ?trace payload)

let encode_call ~id ?shard ?trace payload =
  Bytes.unsafe_to_string (build ~framed:false ~id ?shard ?trace payload)

(* --- prebuilt call buffers ---------------------------------------------
   A quorum broadcast sends the same payload to every endpoint; only the
   per-connection correlation id differs. A prebuilt buffer is the full
   wire image — frame length prefix included — built once per broadcast
   (the trace context names the sending span, so it is the same for every
   destination too); each submission patches the 4 id bytes in place and
   writes the buffer directly. The caller must serialize patch+write per
   buffer (the pool's group submit loop runs them sequentially in one
   thread). *)

type prebuilt = Bytes.t

let prebuilt_call ?shard ?trace payload =
  build ~framed:true ~id:0 ?shard ?trace payload

let set_prebuilt_id buf id =
  check_id id;
  put_u32 buf 6 id

let write_prebuilt fd buf = write_all fd buf 0 (Bytes.length buf)

type request = {
  id : int option;
  shard : int;
  trace : trace_ctx option;
  payload : string;
}

let parse_request frame =
  let len = String.length frame in
  if len < 2 then None
  else
    let call = frame.[0] = kind_call in
    let flags = Char.code frame.[1] in
    if ((not call) && frame.[0] <> kind_oneway) || flags land lnot flag_trace <> 0
    then None
    else
      let spos = if call then 6 else 2 in
      if len < spos + 2 then None
      else
        let id = if call then Some (get_u32 frame 2) else None in
        match id with
        (* Ids above [max_id] cannot be echoed back ({!encode_reply}
           would refuse them), so a hostile id is rejected at parse time
           and answered with a framed error — not an exception in the
           connection thread. *)
        | Some id when id > max_id -> None
        | _ ->
          let ctx =
            if flags land flag_trace = 0 then Some (None, spos + 2)
            else
              Option.map (fun (c, pos) -> (Some c, pos)) (get_ctx frame (spos + 2))
          in
          Option.map
            (fun (trace, pos) ->
              {
                id;
                shard = get_shard frame spos;
                trace;
                payload = String.sub frame pos (len - pos);
              })
            ctx

(* --- responses ---------------------------------------------------------- *)

let status_no_reply = '\x00'
let status_ok = '\x01'
let status_rejected = '\x02'

let reply_frame ~id status payload =
  check_id id;
  let buf = Bytes.create (6 + String.length payload) in
  Bytes.set buf 0 tag_reply;
  put_u32 buf 1 id;
  Bytes.set buf 5 status;
  Bytes.blit_string payload 0 buf 6 (String.length payload);
  Bytes.unsafe_to_string buf

let encode_reply ~id = function
  | Some payload -> reply_frame ~id status_ok payload
  | None -> reply_frame ~id status_no_reply ""

let encode_reject ~id message = reply_frame ~id status_rejected message
let encode_conn_error message = String.make 1 tag_conn_error ^ message

type response =
  | Reply of { id : int; payload : string option }
  | Reject of { id : int; message : string }
  | Conn_error of string

let parse_response frame =
  if String.length frame = 0 then None
  else
    match frame.[0] with
    | c when c = tag_conn_error ->
      Some (Conn_error (String.sub frame 1 (String.length frame - 1)))
    | c when c = tag_reply ->
      if String.length frame < 6 then None
      else
        let id = get_u32 frame 1 in
        let body = String.sub frame 6 (String.length frame - 6) in
        (match frame.[5] with
        | s when s = status_ok -> Some (Reply { id; payload = Some body })
        | s when s = status_no_reply -> Some (Reply { id; payload = None })
        | s when s = status_rejected -> Some (Reject { id; message = body })
        | _ -> None)
    | _ -> None
