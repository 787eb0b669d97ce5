(** The consistency oracle: checks a recorded history against the
    paper's client-enforced guarantees.

    Properties (names are the [property] field of violations):

    - ["ctx-monotonic"] — a client's context vector never loses
      information: every event's snapshot dominates the previous
      snapshot of the same session (section 5.1; contexts only grow by
      {!Store.Context.observe}/[merge]).
    - ["ctx-continuity"] — a connect that recovered a *stored* context
      dominates the context the same client last disconnected with:
      the ⌈(n+b+1)/2⌉ quorum intersection (≥ b+1, hence one honest
      witness) makes losing a stored context impossible with ≤ b
      faults (Fig. 1).
    - ["read-freshness"] — a read never returns a stamp below the
      reader's context floor for that item at invocation: the
      single-writer regularity the paper gets from the client-side
      freshness check (Fig. 2).
    - ["read-your-writes"] — within a session, a read returns at least
      the client's own latest completed write of that item.
    - ["monotonic-reads"] — successive reads of one item in one session
      never go backwards (MRC).
    - ["read-linkage"] — every value a read returns was actually
      written: some write invocation carries the same (uid, stamp,
      value digest) and the same writer the read attributes it to. No
      server forgery, corruption, or replay under a fresh stamp can
      survive the client's signature + digest checks.
    - ["no-fork"] — one stamp never names two values, and no two writes
      by one writer share a multi-writer [(time, writer)] pair with
      different digests (the section 5.3 total order on
      [(time, uid, digest)] stamps; a fork here is proof the *writer*
      is faulty, which honest-writer histories must never show).

    The oracle sees only {!Store.Trace} events — what the client API
    admits to — so it checks exactly the guarantees an application
    could rely on. *)

type violation = {
  property : string;
  explanation : string;  (** human-readable, self-contained *)
  first : Store.Trace.event;
  second : Store.Trace.event option;
      (** the earlier event of the violating pair, when there is one *)
}

val check : Store.Trace.event list -> violation list
(** All violations, ordered by the [seq] of the event that completed
    them (so the head is the first moment the history went wrong).
    Events may be passed in any order; the oracle sorts by [seq]. *)

val properties : (string * string) list
(** [(name, one-line definition)] for every property checked — used by
    reports and docs. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string
