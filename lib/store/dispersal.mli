(** Coded bulk transport: fragmentation-scattering, the technique the
    paper cites from Fray et al. and Rabin as complementary to
    replication (section 3).

    Pure helpers shared by the live dispersal write/read path
    ({!Client}) and the server repair loop: a value is stripe-coded with
    {!Crypto.Ida} into [n] fragments of which any [k] reconstruct, and
    the {!Payload.dispersal_meta} descriptor binds them by per-fragment
    digests whose Merkle root is the metadata write's [value]. Server
    [i] holds fragment [i+1], so each stores about [1/k] of the value
    instead of a whole copy. No transport, no state.

    Coding is not encryption: fewer than [k] fragments still leak
    partial information. A confidential value is encrypted before it is
    dispersed, by writing it through {!Confidential} over a client whose
    [dispersal_threshold] the ciphertext clears. *)

val default_stripe : k:int -> int
(** The default stripe size for [k]: ~64 KiB rounded up to a multiple
    of [k]. *)

val plan :
  k:int -> n:int -> ?stripe:int -> string -> Payload.dispersal_meta * string array
(** Code [value] into [n] fragments of which any [k] reconstruct, and
    the descriptor binding them (per-fragment SHA-256 digests).
    [stripe] (default {!default_stripe}) must be a positive multiple of
    [k]; each stripe of value bytes codes independently, so fragment
    byte ranges map to value byte ranges and both sides can stream.
    @raise Invalid_argument on a bad [k]/[n]/[stripe]. *)

val meta_ok : Payload.dispersal_meta -> bool
(** Structural validity: [1 <= k <= m <= 255], digest count and widths,
    stripe a positive multiple of [k]. Servers check this before
    accepting a dispersed write. *)

val meta_root : Payload.dispersal_meta -> string
(** Merkle root over the fragment digests — the bytes a dispersed
    write's [value] field must equal, so stamp and evidence bind every
    fragment. *)

val frag_length : Payload.dispersal_meta -> int
(** Byte length of every fragment implied by the descriptor. *)

val decode_fragments :
  Payload.dispersal_meta -> (int * string) list -> string option
(** Reconstruct the value from >= [k] distinct full fragments
    [(index, bytes)], stripe by stripe. [None] if fewer than [k]
    well-shaped fragments (callers check digests first; this checks
    shape only). *)

val refragment : Payload.dispersal_meta -> index:int -> string -> string
(** Re-derive fragment [index] from a reconstructed value — the repair
    path for a holder that lost its fragment. *)
