(** Write-log auditing (the Bayou follow-up's logging-and-auditing idea,
    which the paper cites as the recovery story for corrupted servers).

    Each server's announced-write history is committed to a Merkle root
    over the write bodies, oldest first. The server keeps only a running
    frontier of that tree plus the newest {!Server.audit_window} writes,
    so the root always covers the whole history while inclusion proofs
    exist only for windowed writes. Roots can be compared across servers
    after full dissemination. *)

type commitment = { server : int; size : int; root : string }

val commit : Server.t -> commitment
(** Commit the server's whole announced history (oldest write first):
    [size] writes under [root], the root {!Crypto.Merkle.of_leaves} would
    give over every body. Costs O({!Server.audit_window}) hashes. *)

val prove_write :
  Server.t -> Payload.write -> (Crypto.Merkle.proof * commitment) option
(** Inclusion proof for a write in the server's window, against the
    full-history commitment; [None] for a write never announced or one
    that has left the window. *)

val check_proof : commitment -> Payload.write -> Crypto.Merkle.proof -> bool

val roots_agree : Server.t array -> bool
(** After {!Gossip.flood}, honest servers that saw the same writes in the
    same order agree; disagreement localizes tampering. Order can differ
    benignly, so this compares history counts and
    {!Server.audit_digest}s (multiset equality), not raw roots. *)
