(* Merkle-batch signing: sign one Merkle root over a list of leaf bodies
   and hand each leaf back its [Batch] evidence (root, signed root,
   inclusion proof). One RSA sign certifies the whole batch; each
   verifier pays one (cached) RSA verify per batch plus a Merkle path
   per leaf. Writes and contexts share this path; the domain in the
   signed root keeps the two kinds of leaf apart. *)

let sign ~key domain bodies =
  match bodies with
  | [] -> []
  | _ ->
    let tree = Crypto.Merkle.of_leaves bodies in
    let root = Crypto.Merkle.root tree in
    let size = Crypto.Merkle.size tree in
    (* The phase times the RSA operation alone. A context batch is a
       session close's one signature, so it traces as that close's
       "sign" phase. *)
    let phase = match domain with Payload.Writes -> "batch_sign" | Contexts -> "sign" in
    let root_sig =
      Obs.Span.with_phase phase (fun () ->
          Signing.sign_batch_root ~key domain ~root ~size)
    in
    List.mapi
      (fun i _ ->
        match Crypto.Merkle.prove tree i with
        | Some proof -> { Payload.root; size; proof; root_sig }
        | None -> assert false (* i < size by construction *))
      bodies

(* A lone context keeps the one-session form: a plain signature over its
   body, exactly what [Signing.sign_context] produces. *)
let sign_contexts ~key = function
  | [] -> []
  | [ body ] ->
    [ Payload.Sig (Obs.Span.with_phase "sign" (fun () -> Signing.sign_body ~key body)) ]
  | bodies ->
    List.map (fun b -> Payload.Batch b) (sign ~key Payload.Contexts bodies)

(* Writes sign their {!Payload.write_body}s; the evidence field each
   write carries in is ignored and replaced. *)
let sign_writes ~key writes =
  List.map2
    (fun (w : Payload.write) b -> { w with evidence = Payload.Batch b })
    writes
    (sign ~key Payload.Writes (List.map Payload.write_body writes))
