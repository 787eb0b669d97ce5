(** Anti-entropy dissemination between servers.

    Non-faulty servers forward whole signed write messages (section 5.2),
    so a faulty server can neither forge nor alter updates in transit —
    receivers re-verify every signature. Push fan-out of b+1 guarantees
    each round reaches at least one non-faulty peer; epidemic spread does
    the rest. *)

val push_envelope :
  ?have:(Uid.t * Stamp.t) list ->
  epoch:Config_epoch.t option ->
  Payload.write list ->
  Payload.envelope
(** The {!Payload.Gossip_push} every gossip path sends: the writes, the
    sender's epoch (membership anti-entropy) and a [have] summary of
    the sender's current stamps (default none). No token: the writes'
    own evidence is the authority. *)

val install :
  Sim.Engine.t ->
  servers:Server.t array ->
  ?fanout:int ->
  period:float ->
  rng:Sim.Srng.t ->
  unit ->
  Sim.Engine.periodic list
(** Schedule one periodic gossip fiber per server: every [period] seconds
    it drains the server's buffer of newly accepted writes and pushes
    them to [fanout] random distinct peers (default b+1). Returns the
    periodic handles so experiments can cancel gossip. *)

val exchange_once : servers:Server.t array -> rng:Sim.Srng.t -> ?fanout:int -> unit -> int
(** Synchronous variant for {!Sim.Direct}-based tests: runs one gossip
    round for every server by direct handler invocation; returns the
    number of pushed writes. *)

val repair_once : servers:Server.t array -> unit -> int
(** One fragment anti-entropy round by direct handler invocation: every
    server runs {!Server.repair_fragments} against its peers, so a
    holder that lost a fragment of a committed dispersed write gets it
    back (and counts it in [securestore_frag_repairs_total]). Returns
    the number of fragments restored. *)

val flood : servers:Server.t array -> unit
(** Repeat direct full exchanges until no server has anything new — total
    dissemination (useful to model "writes are infrequent, reads hit
    fully disseminated data"). *)
