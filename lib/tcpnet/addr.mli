(** Endpoint addressing for the TCP transport.

    Centralizes the two per-socket details every caller used to repeat:
    numeric host strings are parsed once and cached (they were re-parsed
    on every connect), and [TCP_NODELAY] is set on every socket — the
    transport exchanges small framed RPCs, the worst case for Nagle. *)

val inet_addr : string -> Unix.inet_addr
(** Cached [Unix.inet_addr_of_string]. @raise Failure on a bad host. *)

val sockaddr : string * int -> Unix.sockaddr

val set_nodelay : Unix.file_descr -> unit
(** Best-effort [TCP_NODELAY] (no-op on non-TCP sockets). *)

val connect :
  ?read_timeout:float -> deadline:float -> string * int -> Unix.file_descr option
(** Dial the endpoint: fresh socket, [TCP_NODELAY], optional
    [SO_RCVTIMEO] so blocked reads fail deterministically. The connect
    gives up at [deadline] (absolute, [Unix.gettimeofday] time), so a
    host that drops SYNs cannot hold the caller for the kernel's
    minutes of retries. [None] when the host is unparsable, the connect
    fails or the deadline passes (the socket is closed). *)
