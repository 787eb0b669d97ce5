(** Merkle-batch signature aggregation.

    {!sign} signs a single {!Crypto.Merkle} root over a list of leaf
    bodies and returns each leaf's {!Payload.Batch} evidence — root,
    root signature, and an inclusion proof. Sign cost amortizes over the
    batch while every leaf stays individually third-party verifiable
    (one cached RSA verify plus a Merkle path per leaf on the receiving
    side). Write batches and context batches share it; the
    {!Payload.batch_domain} in the signed root keeps them apart.

    The buffered interface ({!create}/{!add}/{!flush}) is the write
    path's: collect up to [limit] unsigned writes, then sign their
    {!Payload.write_body}s as one batch. *)

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

type t

val create : key:Crypto.Rsa.keypair -> limit:int -> t
(** @raise Invalid_argument when [limit < 1]. *)

val add : t -> Payload.write -> [ `Buffered | `Full ]
(** Buffer an unsigned write (its evidence field is ignored and replaced
    at {!flush}). [`Full] signals the buffer reached [limit] — flush now. *)

val pending : t -> int
val limit : t -> int

val flush : t -> Payload.write list
(** Sign the buffered writes as one Merkle batch and return them (in
    {!add} order) with [Batch] evidence attached; empties the buffer.
    Costs exactly one RSA signature regardless of batch size. *)
