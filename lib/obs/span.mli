(** Hierarchical tracing spans with distributed trace correlation.

    Every instrumented operation opens a {e span} ({!with_op}) and marks
    the interesting stretches inside it as {e phases} ({!with_phase}):
    quorum poll, value fetch, signature verify, backoff wait, and so on.
    Phases nest — an inner phase's name is recorded as
    ["outer/inner"] — and an op opened while another op is active on the
    same thread becomes a phase of the outer op, so layered code (a
    connect that performs a context read) composes without coordination.

    Spans may additionally belong to a {e distributed trace}: a 128-bit
    trace id minted at the client, carried across the wire as a compact
    context ({!ctx}) and adopted by server-side spans, which record the
    remote caller's span id as their parent. A bounded {e flight
    recorder} retains completed traces — a sampled ring of recent ones
    plus a pinned list of forced ones (ops that retried, escalated, or
    were flagged by the consistency checker) — and {!trace_json}
    assembles everything this process knows about one trace id for the
    [/trace?id=...] endpoint.

    Two things happen when a span closes:

    - its total duration and every phase duration are recorded into a
      global registry of {!Histo} histograms keyed by [(op, phase)]
      (phase ["total"] is the whole span), the source of the per-phase
      percentiles the bench and the [/metrics] endpoint report;
    - the completed span (with phases and attributes) is appended to a
      bounded ring-buffer journal that always keeps the newest spans,
      dumpable as JSON via [/spans] for post-mortem of a slow or failed
      operation. Trace-tagged sampled/forced spans also feed the flight
      recorder.

    Tracing is globally disabled by default. When disabled, {!with_op}
    and {!with_phase} run their argument with nothing but a flag check —
    no clock reads, no allocation, no locking — so instrumented hot
    paths pay nothing (perfbench's [obs.trace_overhead_pct] measures the
    <3% tracing-on budget). Span state is per-OS-thread; the simulation engine's
    single-thread cooperative scheduling would interleave clients, so
    enable tracing only around live-transport (or single-client
    in-process) work. *)

type phase = {
  pname : string;  (** "/"-joined nesting path *)
  pstart_ns : float;  (** offset from span start, ns *)
  pdur_ns : float;
}

(** A span attribute: free text, or transport correlation pairs of
    (endpoint, correlation id) kept structured so the hot path pays a
    cons — the ["rpc ep#id ..."] string is built by {!attr_text} only
    when a span is dumped. *)
type attr = Text of string | Rpc of (string * int) list

val attr_text : attr -> string

(** {1 Distributed trace context} *)

type ctx = {
  trace : string;  (** exactly {!trace_bytes} raw bytes *)
  span : int;  (** the sending span's id — the receiver's parent *)
  flags : int;  (** {!flag_sampled} / {!flag_forced} bits *)
}

val flag_sampled : int
val flag_forced : int

val trace_bytes : int
(** Raw length of a trace id: 16 bytes (128 bits). *)

val set_sample_interval : int -> unit
(** Head-sample one trace in [n] into the flight ring (default 8).
    Clients consult this when minting; forced traces ignore it. *)

val sample_interval_now : unit -> int

type closed = {
  id : int;  (** unique, increasing: newest span has the largest id.
                 Salted with the pid so ids from different processes
                 stitched into one trace cannot collide. *)
  op : string;
  thread : int;  (** OS thread id the span ran on *)
  start : float;  (** epoch seconds *)
  dur_ns : float;
  phases : phase list;  (** in completion order *)
  attrs : attr list;  (** in emission order *)
  trace : string;  (** raw trace id, [""] when untraced *)
  parent : int;  (** remote parent span id, [0] at the trace root *)
  flags : int;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val set_node : string -> unit
(** Per-process node label stamped on dumped spans (e.g. ["s2"] or
    ["shard1/r0"]), so cross-process trace assembly keeps attribution.
    Default [""] (omitted from JSON). *)

val node : unit -> string

val with_op : ?ctx:ctx -> string -> (unit -> 'a) -> 'a
(** Run the function under a span named after the operation. Nested
    calls record as phases of the outermost op. When [ctx] is given and
    a fresh root span opens, the span joins that distributed trace with
    the context's span id as its parent. The span closes (and is
    journaled) even if the function raises. *)

val with_phase : string -> (unit -> 'a) -> 'a
(** Time a stretch of the current span. Outside any {!with_op} (or with
    tracing disabled) it just runs the function. *)

val annotate : string -> unit
(** Attach a free-form attribute to the current span. No-op outside a
    span. *)

val annotate_rpc : (string * int) list -> unit
(** Attach (endpoint, correlation id) pairs to the current span without
    rendering them (see {!attr}). No-op outside a span. *)

val current_id : unit -> int option
(** Id of this thread's active span, for correlating external records. *)

val set_trace : ?parent:int -> ?flags:int -> string -> unit
(** Adopt a trace id (raw {!trace_bytes} bytes) on the current live
    span. First writer wins: a span that already belongs to a trace
    keeps it, so an op nested under a traced root cannot re-root it.
    No-op outside a span or with a malformed id. *)

val force : unit -> unit
(** Set {!flag_forced} on the current span's trace — called when an op
    retries or escalates, so its whole trace is pinned by the flight
    recorder instead of riding sampling luck. Subsequent wire contexts
    carry the bit downstream. *)

val current_ctx : unit -> ctx option
(** The wire context for this thread's active span: its trace id, its
    own span id (the receiver's parent) and its flags. [None] when
    disabled, outside a span, or when the span is untraced. *)

(** {1 Phase-duration registry} *)

val phase_stats : unit -> (string * string * Histo.t) list
(** Every [(op, phase, histogram)] recorded so far, sorted by op then
    phase. The histograms are live references: they keep accumulating. *)

val phase_histo : op:string -> phase:string -> Histo.t option

val phase_family : ?name:string -> unit -> Expo.family
(** The whole registry as one exposition family of histograms labeled
    [{op="...",phase="..."}]. Default name
    [securestore_phase_duration_seconds]. *)

val reset_stats : unit -> unit

(** {1 Span journal} *)

val set_journal_capacity : int -> unit
(** Resize (and clear) the ring buffer. Default 256 spans. *)

val recent : ?limit:int -> unit -> closed list
(** Most recent completed spans, newest first. *)

val spans_json : ?limit:int -> unit -> string
(** [{"spans": [...]}] — newest first; each span carries its op, thread,
    start, duration, attributes, phase timings (offsets in ns) and — for
    trace members — trace id, parent and flags. All embedded
    strings go through {!Jsonx.escape}. *)

val reset_journal : unit -> unit

(** {1 Flight recorder} *)

val set_flight_capacity :
  ?pending:int -> ?ring:int -> ?pinned:int -> unit -> unit
(** Bound the recorder: in-progress traces awaiting their root
    (default 128, FIFO eviction promotes the evictee), the sampled ring
    (default 32, newest win) and the forced/pinned list (default 16).
    Resizing the ring clears it. *)

val reset_flight : unit -> unit
(** Clear all recorder state and its counters (tests). *)

val flight_lookup : trace:string -> closed list
(** Every span the recorder holds for a raw trace id (pending, ring and
    pinned), in completion order. *)

val pin : trace:string -> bool
(** Force-retain a trace (raw id) wherever it currently lives — a
    pending trace is promoted as forced, a ring entry moves to the
    pinned list. Returns [false] when the recorder no longer holds it.
    This is the {!Check}-flagged path: a violation report names a trace
    and the driver pins it before dumping. *)

val flight_stats : unit -> int * int * int
(** [(sampled_promotions, forced_promotions, occupancy)] — the two
    counters behind [securestore_traces_{sampled,forced}_total] and the
    current number of traces held. *)

val trace_families : unit -> Expo.family list
(** The trace-sampling exposition: [securestore_traces_sampled_total],
    [securestore_traces_forced_total] and
    [securestore_flight_recorder_occupancy]. *)

(** {1 Cross-node trace assembly} *)

val trace_spans : trace:string -> closed list
(** Everything this process knows about a raw trace id — flight
    recorder plus journal, deduplicated by span id, oldest first. *)

val trace_json : id:string -> unit -> string
(** [{"trace": "<hex>", "node": "...", "spans": [...]}] for a
    lowercase-hex 128-bit trace id, or [{"error": ...}] on a malformed
    id. The [/trace?id=...] endpoint serves exactly this; a cross-node
    fetcher merges several nodes' documents by span id. *)
