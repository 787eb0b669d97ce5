(* A free loopback port, for hosts that must be named (as gossip peers or
   as a proxy's target) before they start. The port is drawn from below
   the usual ephemeral range (Linux starts it at 32768): a port the
   kernel handed out for port 0 could be taken again, between this check
   and the host's bind, by an outgoing connection's source port or by a
   proxy listening on port 0. The draw is random so that test processes
   running side by side rarely pick the same port, and a process never
   gets the same port twice. *)
let first = 20000
let count = 12000
let rng = lazy (Random.State.make_self_init ())
let handed_out = Hashtbl.create 16

let rec reserve () =
  let p = first + Random.State.int (Lazy.force rng) count in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let free =
    match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
    | () -> not (Hashtbl.mem handed_out p)
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> false
  in
  Unix.close fd;
  if free then begin
    Hashtbl.replace handed_out p ();
    p
  end
  else reserve ()
