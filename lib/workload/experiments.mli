(** The paper's section 6 evaluation, regenerated.

    The paper's evaluation is analytic (cost formulas and comparisons);
    each function here runs the corresponding *measured* experiment and
    returns a table whose measured columns must match the closed forms.
    EXPERIMENTS.md records paper-claim vs measured for each id. *)

val e1_context_messages : unit -> Table.t
(** Context read/write message cost: 2·⌈(n+b+1)/2⌉, vs masking quorums. *)

val e2_context_crypto : unit -> Table.t
(** Context op crypto cost: 1 sign, quorum server-verifies, 1 best-case
    client verify. *)

val e3_data_costs : unit -> Table.t
(** Single-writer data ops, MRC and CC: b+1 write requests and their
    acks, best-case read cost (the same 2(b+1) messages), 1 sign / b+1
    server verifies / 1 client verify. *)

val e4_multi_writer_costs : unit -> Table.t
(** Malicious-client variant: 2b+1 fan-outs (acked writes), b+1
    vouching, no client verification on reads. *)

val e5_quorum_comparison : unit -> Table.t
(** Ours vs Byzantine masking quorum vs crash majority, same ops. *)

val e6_pbft_messages : unit -> Table.t
(** PBFT-lite messages per op: measured = 1+(n-1)+(n-1)²+n(n-1)+n. *)

val e7_dissemination : ?seed:int -> unit -> Table.t
(** Read freshness and cost vs gossip period under timed simulation. *)

val e8_fault_injection : ?seed:int -> unit -> Table.t
(** Availability and safety under each Byzantine server behaviour. *)

val e8b_spurious_context : unit -> Table.t
(** The section 5.3 denial-of-service by malicious context, with the
    server-side guard off vs on. *)

val e10_wan_latency : ?seed:int -> unit -> Table.t
(** Operation latency distributions, LAN vs WAN, ours vs baselines. *)

val e11_read_hit_miss : unit -> Table.t
(** The one read across value sizes: a fresh shipper answers in one
    round (section 6's "read cost can equal write cost"), a stale one
    adds Fig. 2's fetch. *)

val e12_dispersal : unit -> Table.t
(** Ablation: replication vs fragmentation-scattering (IDA): bytes on
    the wire and stored per server, across value sizes. *)

val e13_dynamic_quorums : unit -> Table.t
(** Ablation: read/context costs before and after a client proves a
    server faulty (the dynamic Byzantine quorum idea). *)

val e14_context_size : unit -> Table.t
(** Section 6's context-size discussion: context op messages stay at 2q
    while bytes grow with the related-group size; reconstruction after a
    crashed session costs a full 2n-message group scan. *)

val all : ?seed:int -> unit -> Table.t list
(** E1..E8b, E10..E14, in order (E9 is the Bechamel microbenchmark suite
    in bench/main.ml). *)
