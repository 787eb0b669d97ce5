(** Merkle hash trees over SHA-256.

    Extension substrate: the Bayou follow-up the paper cites proposes
    logging and auditing server writes; {!Store.Audit} uses these trees so
    an auditor can verify a server's write log incrementally. *)

type tree

val of_leaves : string list -> tree
(** Build a tree over leaf payloads. Leaf and node hashes are
    domain-separated so a leaf cannot be confused with an inner node. *)

val root : tree -> string
(** 32-byte root hash; the root of the empty tree is a fixed constant. *)

val size : tree -> int

type proof = { index : int; path : (string * [ `Left | `Right ]) list }
(** Sibling hashes from leaf to root; the tag says which side the sibling
    joins from. *)

val prove : tree -> int -> proof option
(** Inclusion proof for the leaf at [index]. *)

val verify : root:string -> size:int -> leaf:string -> proof -> bool
(** Check that [leaf] is at [proof.index] under the root of a tree with
    [size] leaves. The expected proof shape (sibling count, sides, odd
    promotions) is recomputed from [size] and [proof.index], so a
    mutated index or a stripped/reordered path is rejected structurally
    — the index is part of what the proof commits to. *)

val leaf_hash : string -> string
(** The domain-separated hash {!of_leaves} gives a leaf payload. *)

(** {1 Frontier}

    A growing leaf sequence summarised in O(log n) hashes: the roots of
    the perfect subtrees of its binary decomposition, one per set bit of
    its size. It extends by one leaf in amortised O(1) hashes and
    reproduces the root {!of_leaves} would build over every leaf. *)

type frontier

val frontier_empty : frontier
val frontier_size : frontier -> int

val frontier_push : frontier -> string -> frontier
(** Append one leaf, given by its {!leaf_hash}. *)

val frontier_root : frontier -> string
(** [root (of_leaves leaves)] for the leaves pushed so far. *)

val frontier_peaks : frontier -> string list
(** The subtree roots, largest subtree first (for serialisation). *)

val frontier_of_peaks : size:int -> string list -> frontier option
(** Inverse of {!frontier_peaks}; [None] unless there is one 32-byte hash
    per set bit of [size]. *)

val prove_extension : frontier -> string list -> int -> proof option
(** [prove_extension f suffix index]: the proof {!prove} would give for
    leaf [index] of the tree over [f]'s leaves followed by [suffix] (leaf
    hashes, oldest first), for [frontier_size f <= index <
    frontier_size f + List.length suffix]; [None] outside that range. It
    verifies with {!verify} against the root of the whole sequence and
    costs O(|suffix|) hashes. *)

val multiset_add : string -> string -> string
(** Sum of two 32-byte hashes read as big-endian numbers, mod 2^256: an
    order-independent digest of a multiset of leaf hashes. *)

val multiset_zero : string
(** The digest of the empty multiset. *)
