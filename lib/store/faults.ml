type behavior =
  | Honest
  | Crash
  | Silent_reads
  | Stale
  | Corrupt_value
  | Corrupt_meta
  | Equivocate
  | Eager_report
  | Drop_gossip
  | Downgrade

let to_string = function
  | Honest -> "honest"
  | Crash -> "crash"
  | Silent_reads -> "silent-reads"
  | Stale -> "stale"
  | Corrupt_value -> "corrupt-value"
  | Corrupt_meta -> "corrupt-meta"
  | Equivocate -> "equivocate"
  | Eager_report -> "eager-report"
  | Drop_gossip -> "drop-gossip"
  | Downgrade -> "downgrade"

let all =
  [
    Honest; Crash; Silent_reads; Stale; Corrupt_value; Corrupt_meta;
    Equivocate; Eager_report; Drop_gossip; Downgrade;
  ]

let flip_byte s i =
  if String.length s = 0 then s
  else begin
    let i = i mod String.length s in
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) s
  end

let corrupt_value_in (w : Payload.write) = { w with value = flip_byte w.value 0 }

let inflate stamp =
  match stamp with
  | Stamp.Scalar v -> Stamp.Scalar (v + 1_000_000_000)
  | Stamp.Multi m -> Stamp.Multi { m with time = m.time + 1_000_000_000 }

let is_query (env : Payload.envelope) =
  match env.request with
  | Payload.Ctx_read _ | Payload.Ctx_check _ | Payload.Read_query _
  | Payload.Value_read _ | Payload.Group_query _ | Payload.Epoch_get
  | Payload.Frag_get _ ->
    true
  | Payload.Ctx_write _ | Payload.Write_req _ | Payload.Gossip_push _
  | Payload.Evidence_upgrade _ | Payload.Epoch_announce _ | Payload.Frag_put _
    ->
    false

let is_write_or_gossip (env : Payload.envelope) =
  match env.request with
  | Payload.Write_req _ | Payload.Gossip_push _ | Payload.Ctx_write _
  | Payload.Evidence_upgrade _ | Payload.Frag_put _ ->
    true
  | _ -> false

let stamps_of = List.map (fun (w : Payload.write) -> w.stamp)

let held_at stamp held =
  List.find_opt (fun (w : Payload.write) -> Stamp.equal w.stamp stamp) held

(* Eager reporting: list pending (held) writes' stamps in read replies,
   and serve them on fetch, as if they were announced — the attack the
   b+1 vouching rule masks. *)
let with_pending server (env : Payload.envelope) honest_resp =
  match (env.request, honest_resp) with
  | Payload.Read_query { uid; _ }, Some (Payload.Read_reply r) ->
    Some
      (Payload.Read_reply
         { r with stamps = stamps_of (Server.pending_writes server uid) @ r.stamps })
  | Payload.Value_read { uid; stamp }, Some (Payload.Value_reply None) ->
    Some (Payload.Value_reply (held_at stamp (Server.pending_writes server uid)))
  | _ -> honest_resp

(* Evidence downgrade, leak half: serve MAC-held writes as if they were
   announced. Their MAC vectors are genuine (the server really received
   them) but carry no third-party-verifiable evidence — exactly what an
   honest server refuses to serve, so a reader treats any such reply as
   proof of misbehaviour. *)
let with_maced server (env : Payload.envelope) honest_resp =
  match (env.request, honest_resp) with
  | Payload.Read_query { uid; ship }, Some (Payload.Read_reply r) ->
    let held = Server.maced_writes server uid in
    let write =
      if not ship then r.write
      else
        List.fold_left
          (fun acc (w : Payload.write) ->
            match acc with
            | Some (c : Payload.write) when Stamp.compare c.stamp w.stamp >= 0 ->
              acc
            | _ -> Some w)
          r.write held
    in
    Some (Payload.Read_reply { r with stamps = stamps_of held @ r.stamps; write })
  | Payload.Value_read { uid; stamp }, Some (Payload.Value_reply None) ->
    Some (Payload.Value_reply (held_at stamp (Server.maced_writes server uid)))
  | _ -> honest_resp

(* Evidence downgrade, tamper half: strip an element from a batch
   write's inclusion proof (the truncated path must fail the size-aware
   verifier structurally) — or, when the proof is already empty (batch
   of one), corrupt the root signature. Sig evidence is left alone
   (Corrupt_value covers that ground) and Mac evidence is already
   damning as served. *)
let strip_batch_proof (w : Payload.write) =
  match w.Payload.evidence with
  | Payload.Batch b ->
    let evidence =
      match b.proof.Crypto.Merkle.path with
      | _ :: rest ->
        Payload.Batch { b with proof = { b.proof with path = rest } }
      | [] -> Payload.Batch { b with root_sig = flip_byte b.root_sig 11 }
    in
    { w with evidence }
  | Payload.Sig _ | Payload.Mac _ -> w

let map_writes f resp =
  match resp with
  | Some (Payload.Value_reply (Some w)) -> Some (Payload.Value_reply (Some (f w)))
  | Some (Payload.Read_reply ({ write = Some w; _ } as r)) ->
    Some (Payload.Read_reply { r with write = Some (f w) })
  | Some (Payload.Group_reply writes) ->
    Some (Payload.Group_reply (List.map f writes))
  | _ -> resp

let mutate_response behavior server (env : Payload.envelope) resp =
  match (behavior, resp) with
  | (Honest | Crash | Silent_reads | Stale | Drop_gossip), _ -> resp
  | Corrupt_value, Some (Payload.Frag_reply (Some c)) ->
    (* a corrupt fragment must fail the reader's digest check and be
       replaced from another holder *)
    Some
      (Payload.Frag_reply
         (Some { c with Payload.data = flip_byte c.Payload.data 0 }))
  | Corrupt_value, _ -> map_writes corrupt_value_in resp
  | Corrupt_meta, Some (Payload.Value_reply (Some w)) ->
    Some (Payload.Value_reply (Some { w with stamp = inflate w.stamp }))
  | Corrupt_meta, Some (Payload.Read_reply r) ->
    let inflate_write (w : Payload.write) = { w with stamp = inflate w.stamp } in
    Some
      (Payload.Read_reply
         {
           r with
           stamps = List.map inflate r.stamps;
           write = Option.map inflate_write r.write;
         })
  | Corrupt_meta, _ -> resp
  | Equivocate, Some (Payload.Read_reply r) ->
    (* claims inflated stamps, but ships and serves genuine values *)
    Some (Payload.Read_reply { r with stamps = List.map inflate r.stamps })
  | Equivocate, _ -> resp
  | Eager_report, _ -> with_pending server env resp
  | Downgrade, _ -> map_writes strip_batch_proof (with_maced server env resp)

let handle_typed behavior server ~now ~from env =
  match behavior with
  | Crash -> None
  | Silent_reads when is_query env -> None
  | Stale when is_write_or_gossip env ->
    (* Pretend to cooperate but never change state. *)
    (match env.Payload.request with
    | Payload.Write_req _ -> Some Payload.Ack
    (* acks the fragment stream, stores nothing: silent fragment loss *)
    | Payload.Frag_put _ -> Some Payload.Ack
    | _ -> None)
  | Drop_gossip when
      (match env.Payload.request with Payload.Gossip_push _ -> true | _ -> false) ->
    None
  | _ ->
    let honest = Server.handle server ~now ~from env in
    mutate_response behavior server env honest

let wrap behavior server ~now ~from payload =
  match Payload.decode_envelope payload with
  | None -> None
  | Some env ->
    Option.map Payload.encode_response
      (handle_typed behavior server ~now ~from env)

let forge_write ~keyring:_ ~uid ~value ~writer =
  {
    Payload.uid;
    stamp = Stamp.scalar 999_999_999;
    wctx = None;
    value;
    writer;
    evidence = Payload.Sig (String.make 64 '\x42');
    frags = None;
  }
