(** The network-effect interface protocol code is written against.

    Client protocols (reads, writes, context acquisition…) call these
    functions in direct style; an effect handler decides what they mean:
    {!Engine} interprets them under simulated time and latency, {!Direct}
    interprets them as synchronous in-process calls (for unit tests), and
    [Tcpnet.Live] interprets them over real sockets. The protocol source
    is identical in all three — this is the repository's analogue of the
    paper's claim that clients drive the protocol and servers stay
    passive. *)

type node_id = int
(** Servers are [0 .. n-1]; clients use negative ids. *)

type reply = { from : node_id; payload : string }

type call_spec = {
  dsts : node_id list;
  request : string;
  quorum : int;  (** resume as soon as this many replies arrive *)
  timeout : float;  (** give up (returning what arrived) after this long *)
}

type scatter_spec = {
  parts : (node_id * string) list;
      (** one (destination, request) pair per destination — the payloads
          differ, unlike {!call_spec} which broadcasts one request *)
  quorum : int;
  timeout : float;
}

type _ Effect.t +=
  | Now : float Effect.t
  | Sleep : float -> unit Effect.t
  | Call_many : call_spec -> reply list Effect.t
  | Call_scatter : scatter_spec -> reply list Effect.t
  | Send_oneway : (node_id * string) -> unit Effect.t
  | Fork : (unit -> unit) -> unit Effect.t
  | Rank : node_id list -> (node_id list * node_id list) Effect.t

val now : unit -> float
val sleep : float -> unit

val call_many :
  ?timeout:float -> quorum:int -> node_id list -> string -> reply list
(** RPC the request to every destination; return once [quorum] replies
    are in (or the timeout fires, possibly with fewer). The quorum is
    clamped to the destination count. Default timeout 5 s. *)

val call_scatter :
  ?timeout:float -> quorum:int -> (node_id * string) list -> reply list
(** Like {!call_many} but with a distinct request per destination — the
    dispersal data path uses this to ship each server its own fragment
    piece in one round with a single quorum wait. The quorum is clamped
    to the destination count. *)

val call_one : ?timeout:float -> node_id -> string -> string option
(** Single-destination convenience. *)

val send : node_id -> string -> unit
(** Fire-and-forget (gossip pushes). *)

val fork : (unit -> unit) -> unit
(** Run a new fiber concurrently with the caller. *)

val rank : node_id list -> node_id list * node_id list
(** Split destinations by transport health: [(healthy, suspected)],
    each in the given order. Simulated interpreters know no transport
    and answer [(dsts, [])], so simulated schedules replay unchanged;
    over TCP a destination is suspected while its pooled endpoint
    fails fast. *)

val default_timeout : float
