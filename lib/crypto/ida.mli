(** Rabin-style information dispersal over GF(2^8).

    Codes a value, one stripe at a time, into [n] fragments of which any
    [k] reconstruct it; each fragment is about 1/k of the original size,
    so dispersing to n servers costs n/k of the value instead of the
    factor-n cost of full replication. Unlike {!Shamir}, this is an
    erasure code, not a secret-sharing scheme: fewer than k fragments
    still leak partial information, so confidential values are
    encrypted before dispersal ([Store.Confidential] over a dispersing
    client). [Store.Dispersal] frames stripes into whole fragments. *)

val split_stripe : k:int -> n:int -> string -> string array
(** Headerless stripe coding for the streaming path: encode one stripe
    of the value into its n fragment pieces (array slot [i] is the piece
    for fragment index [i+1]). A stripe of [len] bytes yields
    [ceil(len/k)] bytes per piece, so callers that keep stripe sizes a
    multiple of [k] get fragment offsets as a pure function of value
    offsets. Encoding a long value stripe-by-stripe and concatenating
    the pieces per index gives whole fragments without ever holding
    more than a stripe at a time.
    @raise Invalid_argument unless 1 <= k <= n <= 255. *)

val reconstruct_stripe :
  k:int -> len:int -> (int * string) list -> string option
(** Inverse of {!split_stripe} for one stripe: rebuild [len] original
    bytes from at least [k] [(index, piece)] pairs with distinct indices
    (extras ignored). [None] on too few pieces or piece lengths that
    don't match [ceil(len/k)]. Corrupted-but-well-formed pieces
    yield garbage — callers must check fragment digests. *)
