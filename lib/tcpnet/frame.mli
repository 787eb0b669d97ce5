(** Length-prefixed framing over stream sockets.

    A frame is a 4-byte big-endian length followed by that many bytes.
    Frames are capped at 16 MiB — a malformed or malicious peer cannot
    make us allocate unboundedly. *)

val max_frame : int

val write_frame : Unix.file_descr -> string -> unit
(** @raise Unix.Unix_error on socket errors.
    @raise Invalid_argument if the payload exceeds {!max_frame}. *)

val read_frame : Unix.file_descr -> string option
(** [None] on clean EOF before or inside a frame, or on an oversized
    length prefix. *)

type read_result =
  | Frame of string
  | Eof  (** clean EOF before or inside a frame *)
  | Oversized of int
      (** length prefix over {!max_frame}; the claimed length — nothing
          was allocated or consumed past the 4-byte header *)

val read_frame_ext : Unix.file_descr -> read_result
(** Like {!read_frame} but distinguishes an oversized length prefix from
    EOF, so servers can answer a framed error before closing. *)

(** {1 Request header}

    Inside each frame, a request has one layout:
    {v
    kind   1 byte   0x00 one-way, 0x01 call
    flags  1 byte   bit 0: a trace context follows; other bits must be 0
    id     4 bytes  big-endian correlation id, calls only
    shard  2 bytes  big-endian shard id (0 on an unsharded host)
    ctx    26 bytes only with flag bit 0: a length byte (exactly
                    {!ctx_bytes}), 16-byte trace id, 8-byte big-endian
                    span id (top bit clear), flags byte
    payload         the rest of the frame
    v}
    A response is [0x02] + the request's id + a status byte ([0x00] no
    reply, [0x01] ok + payload, [0x02] rejected + message), or [0x03] +
    message: a connection-level error for a request the server could not
    even parse. The correlation id already names the request, shard
    included, so responses carry no shard. *)

val max_id : int
(** Correlation ids live in [0 .. max_id] (30 bits, wraps). *)

val max_shard : int
(** Shard ids live in [0 .. max_shard] (16 bits on the wire). *)

(** The wire trace context: 16 raw trace-id bytes, the sending span's
    id, and sampling flags (bit 0 sampled, bit 1 forced). *)
type trace_ctx = { trace : string; span : int; flags : int }

val trace_id_bytes : int
(** 16 — raw length of a trace id. *)

val ctx_bytes : int
(** 25 — encoded context length (the value of the context's length
    byte; anything else is rejected as malformed). *)

val encode_oneway : ?shard:int -> ?trace:trace_ctx -> string -> string
(** [shard] defaults to 0.
    @raise Invalid_argument when [shard] is outside [0 .. max_shard] or
    the trace id is not {!trace_id_bytes} bytes. *)

val encode_call : id:int -> ?shard:int -> ?trace:trace_ctx -> string -> string
(** Like {!encode_oneway}, for a call with correlation id [id].
    @raise Invalid_argument also when [id] is outside [0 .. max_id]. *)

(** {2 Prebuilt call buffers}

    A quorum broadcast sends one payload to every endpoint; only the
    correlation id differs per connection. [prebuilt_call] builds the
    full wire image (length prefix, request header with a zeroed id,
    payload) once; each send patches the id with {!set_prebuilt_id} and
    writes the buffer with {!write_prebuilt} — no per-endpoint encode or
    copy. The caller must serialize patch+write pairs on one buffer. *)

type prebuilt = Bytes.t

val prebuilt_call : ?shard:int -> ?trace:trace_ctx -> string -> prebuilt
val set_prebuilt_id : prebuilt -> int -> unit
val write_prebuilt : Unix.file_descr -> prebuilt -> unit
val encode_reply : id:int -> string option -> string
val encode_reject : id:int -> string -> string
val encode_conn_error : string -> string

type request = {
  id : int option;  (** [Some] for a call, [None] for a one-way *)
  shard : int;
  trace : trace_ctx option;
  payload : string;
}

val parse_request : string -> request option
(** [None] — answered by the server with {!encode_conn_error} — on a
    frame shorter than its header, an unknown kind, an unknown flag bit,
    a correlation id above {!max_id}, or a malformed trace context (a
    truncated context, a length byte other than {!ctx_bytes}, or a span
    id with the top bit set). Never raises. *)

type response =
  | Reply of { id : int; payload : string option }
  | Reject of { id : int; message : string }
  | Conn_error of string

val parse_response : string -> response option
