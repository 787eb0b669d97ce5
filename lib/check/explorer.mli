(** Seeded schedule exploration: run many fault-injected simulator
    schedules, record every client history, and hand each one to
    {!Oracle}.

    A {!schedule} is a pure value derived from a seed — everything the
    run does (topology, workload mix, latency, loss, crash windows,
    partitions, Byzantine wrappers) comes from it, so a violation
    reproduces from its printed seed alone. Fault injection never
    exceeds the paper's threat model: at most [b] Byzantine servers
    (crashes and partitions are benign and may exceed [b]; they only
    cost liveness, which the oracle does not score). *)

type fault_category =
  | Loss
  | Jitter
  | Crash
  | Partition
  | Byzantine
  | Reconfig
  | Frag_loss
      (** a server forgets every coded fragment it holds mid-run — a
          committed dispersed write survives it as long as at most [b]
          holders are lost between repair rounds *)

val category_name : fault_category -> string

type reconfig =
  | Add_server of int  (** bring a standby into the membership *)
  | Remove_server of int  (** drain a member out (only above the 3b+1 floor) *)
  | Replace_server of { remove : int; add : int }  (** rolling swap, n constant *)

type schedule = {
  seed : int;
  n : int;
  b : int;
  clients : int;  (** 1–3, drawn from a fixed name pool *)
  mode : Store.Client.mode;
  consistency : Store.Client.consistency;
  read_spread : bool;
  items : int;
  ops_per_client : int;
  horizon : float;  (** virtual seconds to run the engine *)
  drop_probability : float;
  latency_hi : float;  (** uniform one-way delay upper bound (s) *)
  gossip_period : float;
  crashes : (int * float * float) list;  (** server, down-from, up-at *)
  partitions : (int list * float * float) list;
      (** isolated group, window; members keep talking to each other *)
  byzantine : (int * Store.Faults.behavior) list;  (** at most [b] *)
  signing : Store.Client.signing_mode;
      (** write-evidence mode for every client in the run; random
          schedules draw per-write-sig (three draws in four) or the MAC
          fast path so the oracle checks both *)
  canary : bool;
      (** client 0 runs with [canary_skip_freshness] — the deliberately
          broken client the oracle must flag *)
  scripted : bool;
      (** run the fixed canary choreography instead of the random mix *)
  reconfigs : (float * reconfig) list;
      (** time-ordered admin-signed membership transitions; empty means a
          static world with no epoch machinery at all *)
  capacity : int;
      (** server processes created for the run; ids [n ..] are standbys
          that [Add_server]/[Replace_server] can bring in *)
  dispersal : bool;
      (** big-value workload: every other write is padded over a small
          dispersal threshold, so the coded k-of-n data path runs under
          this schedule's faults with a periodic fragment-repair round *)
  frag_losses : (int * float) list;
      (** (server, time) whole-disk fragment losses (drawn only when
          [dispersal] is on, from the same separate stream) *)
}

val schedule_of_seed : int -> schedule
(** The random-mix schedule for a seed (never canary, never scripted,
    no reconfigurations). *)

val reconfig_schedule_of_seed : int -> schedule
(** [schedule_of_seed seed] plus 1–2 membership transitions drawn from a
    separate random stream, so every non-reconfig draw matches the plain
    schedule for the same seed. Transitions keep the membership valid
    ([>= 3b+1]) at every step. *)

val canary_schedule : seed:int -> schedule
(** The scripted stale-read choreography: one writer-reader whose
    freshness check is disabled, a crash window that leaves server 0
    with only the first write, plus decoy faults (a Byzantine
    [Corrupt_value] server, a partition window, latency jitter) that
    {!shrink} must eliminate, leaving only [Crash]. With
    [canary = false] the same choreography runs an honest client — the
    control that must produce no violation. *)

val describe : schedule -> string
(** One line, self-contained enough to eyeball the fault plan. *)

val active_categories : schedule -> fault_category list
val disable : fault_category -> schedule -> schedule

type outcome = {
  schedule : schedule;
  history : History.t;
  events : int;
  ops_ok : int;
  ops_failed : int;  (** failed client operations (liveness, not safety) *)
  violations : Oracle.violation list;
      (** the oracle's findings, then the first broken
          {!Store.Server.invariants} of a non-Byzantine server after any
          engine step (property ["server-invariants"]) *)
  messages_sent : int;
  bytes_sent : int;
  messages_dropped : int;
  history_digest : string;  (** {!History.digest} — determinism witness *)
}

val run : schedule -> outcome
(** Deterministic: the same schedule yields the same [history_digest],
    engine counters and violations. *)

val shrink : outcome -> outcome * fault_category list
(** Greedy fault minimization: for each active category, re-run the
    schedule with that category disabled and keep it disabled when the
    violation persists. Returns the minimal violating outcome and the
    fault categories it still needs. Identity on violation-free
    outcomes. *)

val violation_report_json : outcome -> string
(** Counterexample artifact: schedule, violations (property,
    explanation, event pair) and the full history — everything needed
    to replay the oracle offline. *)

type summary = {
  runs : int;
  total_events : int;
  total_ok : int;
  total_failed : int;
  violated : outcome list;
}

val explore : seeds:int list -> summary
(** Run [schedule_of_seed] for every seed; violating outcomes are
    collected (histories of clean runs are dropped as they go). *)
