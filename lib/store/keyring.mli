(** Directory of client public keys and pairwise MAC keys.

    The paper assumes clients and servers own key pairs whose public
    halves are well known; key management itself is out of scope. This
    directory is that assumption made concrete — servers verify writer
    signatures against it, clients verify each other's writes.

    For the MAC-vector write fast path it additionally holds pairwise
    client<->server HMAC secrets: the client MACs a write once per
    addressed server, and only that server can check its tag. MAC'd
    writes are not third-party verifiable, which is exactly why
    {!Server} never announces or gossips them before signature
    escalation. *)

type t

val create : unit -> t
val register : t -> string -> Crypto.Rsa.public -> unit
(** @raise Invalid_argument if the uid is already bound to a different key. *)

val find : t -> string -> Crypto.Rsa.public option
val known : t -> string -> bool
val size : t -> int

val register_mac : t -> client:string -> server:int -> string -> unit
(** Bind the shared HMAC secret for one client/server pair.
    @raise Invalid_argument if the pair is bound to a different secret. *)

val mac_key : t -> client:string -> server:int -> string option

