(** Quorum arithmetic from the paper (sections 5 and 6): the quorum
    sizes, and section 6's per-operation costs ({!cost}).

    [n] servers, at most [b] faulty (crash or Byzantine). *)

val context_quorum : n:int -> b:int -> int
(** ⌈(n+b+1)/2⌉ — context read/write set (Fig. 1). Two such quorums share
    at least [b+1] servers, hence at least one non-faulty witness of the
    last context write. *)

val write_set : b:int -> int
(** [b+1] — servers a single-writer data write must reach so at least
    one non-faulty server stores it (section 5.2). *)

val read_set : b:int -> int
(** [b+1] — servers polled by a single-writer read in the best case. *)

val mw_write_set : b:int -> int
(** [2b+1] — the multi-writer (malicious-client) write fan-out
    (section 6, "figures change from b+1 to 2b+1"). *)

val mw_read_quorum : b:int -> int
(** [2b+1] — servers a multi-writer read must hear from. *)

val mw_vouch : b:int -> int
(** [b+1] — servers that must report the same value before a
    multi-writer read accepts it (section 5.3). *)

val masking_quorum : n:int -> b:int -> int
(** ⌈(n+2b+1)/2⌉ — the Byzantine masking quorum size the paper compares
    against (Malkhi-Reiter; Phalanx/Fleet). *)

val majority_quorum : n:int -> int
(** ⌈(n+1)/2⌉ — crash-only baseline. *)

val context_overlap : n:int -> b:int -> int
(** Guaranteed intersection of two context quorums; equals
    [2*context_quorum - n >= b+1]. *)

val validate : n:int -> b:int -> (unit, string) result
(** Liveness needs every quorum to be reachable with [b] servers silent:
    [n >= 3b+1] covers the context quorum and the multi-writer read
    quorum alike. *)

val max_b : n:int -> int
(** Largest tolerable [b] for [n] servers: ⌊(n-1)/3⌋. *)

(** {1 Section 6's costs} *)

type data_class = Single_writer | Multi_writer  (** section 5.2 / 5.3 data *)
type op = Context_read | Context_store | Write | Read_hit | Read_miss

type cost = {
  requests : int;
  replies : int;
  signs : int;  (** at the client *)
  server_verifies : int;
  client_verifies : int;
  digests : int;  (** counted apart from signatures ({!Metrics}) *)
}

val messages : cost -> int
(** [requests + replies]: what {!Metrics} counts as messages. *)

val cost : op -> n:int -> b:int -> data_class -> cost
(** One fault-free op whose first round is answered, priced with the
    paper's one RSA signature per write:
    - [Context_read] (Fig. 1, connect): q = {!context_quorum} requests
      and replies, one client verify (the newest record checks out);
    - [Context_store] (disconnect): q requests and replies, one sign, q
      server verifies;
    - [Write]: b+1 requests (2b+1 multi-writer), one ack each, one sign
      and one server verify per request. The paper's one-way write
      costs its [requests];
    - [Read_hit]: the shipper holds the value to return, so one round of
      b+1 (2b+1) requests and replies, what a write costs; one client
      verify for single-writer data, none for multi-writer data, whose
      b+1 vouching servers stand in for it;
    - [Read_miss]: the shipper lacks it; Fig. 2's fetch adds a request
      and its reply.

    Multi-writer data ops also count the digest that binds the value to
    its 3-tuple stamp. A [Mac_fast] write that has escalated carries
    Merkle-batch evidence, whose inclusion-path digests this does not
    model. *)
