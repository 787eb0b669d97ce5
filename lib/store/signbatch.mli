(** Merkle-batch signature aggregation.

    {!sign} signs a single {!Crypto.Merkle} root over a list of leaf
    bodies and returns each leaf's {!Payload.Batch} evidence — root,
    root signature, and an inclusion proof. Sign cost amortizes over the
    batch while every leaf stays individually third-party verifiable
    (one cached RSA verify plus a Merkle path per leaf on the receiving
    side). Mac_fast escalations and router closes share it; the
    {!Payload.batch_domain} in the signed root keeps them apart.

    {!sign_writes} and {!sign_contexts} sign a whole list in one call;
    there is no buffer to fill and flush. A caller that wants several
    batches splits its list first. *)

val sign :
  key:Crypto.Rsa.keypair ->
  Payload.batch_domain ->
  string list ->
  Payload.batch_evidence list
(** Evidence for each body, in order. Exactly one RSA signature for a
    non-empty list; none for the empty list. *)

val sign_contexts : key:Crypto.Rsa.keypair -> string list -> Payload.evidence list
(** Evidence for {!Payload.ctx_body}s: a single body gets [Sig] evidence,
    byte-identical to {!Signing.sign_context}'s; several get [Batch]
    evidence under one {!Payload.Contexts} root. One RSA signature
    either way, timed as a ["sign"] phase. *)

val sign_writes : key:Crypto.Rsa.keypair -> Payload.write list -> Payload.write list
(** The writes, in order, with [Batch] evidence under one
    {!Payload.Writes} root over their {!Payload.write_body}s (the
    evidence each carries in is ignored). Exactly one RSA signature for
    a non-empty list, timed as a ["batch_sign"] phase. *)
