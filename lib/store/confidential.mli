(** Value confidentiality (sections 5.2–5.3).

    Values are encrypted under a key the servers never learn, so a
    compromised server can disclose only meta-data. Timestamps are
    additionally advanced by a random increment on each write so servers
    cannot even count a client's updates. Key rotation re-encrypts every
    item in the group and writes it back (the paper's owner-key-change
    procedure). Over a client whose [dispersal_threshold] the ciphertext
    clears, this is encrypt-then-disperse: each server holds one coded
    fragment of the ciphertext ({!Dispersal}). *)

type t

val make :
  client:Client.t -> key:string -> ?rng_seed:string -> unit -> t
(** Wrap a connected session with an encryption key (any string; expanded
    internally). The paper's three sharing patterns map to who holds
    [key]: only the owner (non-shared), the readers (single-writer
    shared), or all writers (multi-writer). *)

val write : t -> item:string -> string -> (unit, Client.error) result
val read : t -> item:string -> (string, Client.error) result
(** [Error Write_rejected] also covers decryption failure on read —
    surfaced distinctly by {!read_opt}. *)

val read_opt : t -> item:string -> (string option, Client.error) result
(** [Ok None] when the stored blob does not authenticate under the
    current key (e.g. a malicious server replayed a blob from before a
    key rotation). *)

val rotate_key : t -> new_key:string -> items:string list -> (unit, Client.error) result
(** Re-encrypt the listed items under [new_key] and write them back. *)

val client : t -> Client.t
