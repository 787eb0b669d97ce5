(** Arbitrary-precision natural numbers.

    Pure OCaml, little-endian limbs of 26 bits stored in [int array]s so
    that limb products and carry chains fit comfortably in a 63-bit native
    int. Sized for the RSA arithmetic this repository needs (up to a few
    thousand bits); not a general-purpose bignum replacement.

    All values are non-negative. Operations that would go negative raise
    [Invalid_argument]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [Some v] when the value fits in a native [int]. *)

val of_bytes_be : string -> t
(** Big-endian unsigned interpretation (leading zero bytes allowed). *)

val to_bytes_be : ?len:int -> t -> string
(** Minimal big-endian encoding, left-padded with zeros to [len] if given.
    @raise Invalid_argument if the value does not fit in [len] bytes. *)

val of_hex : string -> t
val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool
val num_bits : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

val bit : t -> int -> bool
val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val add_int : t -> int -> t
val sub_int : t -> int -> t
val mul_int : t -> int -> t
(** Small-operand variants; the [int] must be non-negative (and for
    [mul_int], at most 30 bits). *)

val mod_int : t -> int -> int
(** Remainder by a positive [int] of at most 30 bits. *)

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    @raise Division_by_zero on zero divisor. *)

val rem : t -> t -> t

val modexp : base:t -> exp:t -> modulus:t -> t
(** [base^exp mod modulus]. Uses windowed Montgomery exponentiation over a
    cached per-modulus context when [modulus] is odd, plain
    divide-and-reduce otherwise.
    @raise Division_by_zero on zero modulus. *)

type mont
(** Precomputed Montgomery context for one odd modulus: the limb-inverse
    and the conversion constant R^2 mod m. Immutable, so threads may share
    one. Building one costs a long division; exponentiating does not. *)

val mont_of_modulus : t -> mont
(** Context for an odd modulus, served from a small global cache so hot
    moduli (RSA keys) are only ever precomputed once.
    @raise Invalid_argument on an even or zero modulus. *)

val mont_modulus : mont -> t
(** The modulus a context was built for. *)

val mont_modexp_ctx : mont -> base:t -> exp:t -> t
(** [base^exp mod (mont_modulus ctx)] by fixed 4-bit windowed
    square-and-multiply with precomputed odd powers of [base]. *)

val gcd : t -> t -> t

val mod_inverse : t -> modulus:t -> t option
(** Multiplicative inverse when [gcd a modulus = 1]; [None] otherwise. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal, for debugging. *)
