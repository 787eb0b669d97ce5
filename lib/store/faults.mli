(** Byzantine server behaviours, as wrappers around an honest server.

    Each behaviour decorates {!Server.handler}, so a "malicious" server
    can only diverge in what it *says*, exactly like the paper's threat
    model: it may stay silent, replay stale state, corrupt values or
    meta-data, inflate timestamps, or collude by vouching for
    unannounced writes. Wrapping (rather than reimplementing) guarantees
    fault injection can never accidentally drift from the honest
    semantics. *)

type behavior =
  | Honest
  | Crash  (** never responds, accepts nothing *)
  | Silent_reads  (** accepts writes but never answers queries *)
  | Stale  (** ignores all new writes and gossip: serves frozen state *)
  | Corrupt_value  (** flips bits in returned values *)
  | Corrupt_meta  (** inflates timestamps in read replies (lures readers) *)
  | Equivocate
      (** claims huge timestamps in read replies but ships and serves the
          real (older) value — the bait-and-switch a signature check
          alone does not catch without the stamp-freshness check *)
  | Eager_report
      (** multi-writer: lists and serves held (pending) writes before
          their causal predecessors arrived, the attack b+1 vouching
          masks *)
  | Drop_gossip  (** accepts client writes but ignores gossip pushes *)
  | Downgrade
      (** evidence downgrade: lists, ships and serves MAC-held writes as
          if announced (their MAC vectors are genuine but not third-party
          verifiable) and strips elements from batch inclusion proofs —
          the attacks the evidence checks in {!Signing.verify_write}
          must catch *)

val to_string : behavior -> string
val all : behavior list

val handle_typed :
  behavior ->
  Server.t ->
  now:float ->
  from:Sim.Runtime.node_id ->
  Payload.envelope ->
  Payload.response option
(** The decorated typed handler — what {!wrap} uses after decoding, and
    what live hosts ({!Tcpnet.Server_host}) dispatch to so Byzantine
    behaviours run behind real sockets exactly as they do in the
    simulator. *)

val wrap :
  behavior ->
  Server.t ->
  now:float ->
  from:Sim.Runtime.node_id ->
  string ->
  string option
(** The decorated wire handler to register with the engine. *)

val forge_write :
  keyring:Keyring.t -> uid:Uid.t -> value:string -> writer:string -> Payload.write
(** A write with a garbage signature, for testing that servers and
    clients reject forgeries. *)
