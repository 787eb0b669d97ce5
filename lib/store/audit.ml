type commitment = { server : int; size : int; root : string }

let leaf_hashes writes =
  List.map (fun w -> Crypto.Merkle.leaf_hash (Payload.write_body w)) writes

let commitment server leaves =
  let full =
    List.fold_left Crypto.Merkle.frontier_push (Server.audit_frontier server) leaves
  in
  {
    server = Server.id server;
    size = Crypto.Merkle.frontier_size full;
    root = Crypto.Merkle.frontier_root full;
  }

let commit server = commitment server (leaf_hashes (Server.audit_log server))

let prove_write server w =
  let window = Server.audit_log server in
  let target = Payload.write_body w in
  let rec find i = function
    | [] -> None
    | entry :: rest ->
      if String.equal (Payload.write_body entry) target then Some i
      else find (i + 1) rest
  in
  match find 0 window with
  | None -> None
  | Some offset ->
    let base = Server.audit_frontier server in
    let leaves = leaf_hashes window in
    Option.map
      (fun proof -> (proof, commitment server leaves))
      (Crypto.Merkle.prove_extension base leaves
         (Crypto.Merkle.frontier_size base + offset))

let check_proof commitment w proof =
  Crypto.Merkle.verify ~root:commitment.root ~size:commitment.size
    ~leaf:(Payload.write_body w) proof

let roots_agree servers =
  let canonical server = (commit server).size, Server.audit_digest server in
  match Array.to_list servers with
  | [] -> true
  | first :: rest ->
    let reference = canonical first in
    List.for_all (fun s -> canonical s = reference) rest
