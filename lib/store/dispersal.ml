type t = {
  writer : string;
  key : Crypto.Rsa.keypair;
  keyring : Keyring.t;
  group : string;
  aead : Crypto.Aead.key;
  n : int;
  b : int;
  k : int;
  servers : Sim.Runtime.node_id array;
  timeout : float;
  token : string option;
  nonce_rng : Crypto.Prng.t;
  mutable last_time : int;
}

type error =
  | Not_enough_fragments of { needed : int; got : int }
  | Write_unacked of { needed : int; got : int }
  | Decrypt_failed
  | Not_found

let error_to_string = function
  | Not_enough_fragments { needed; got } ->
    Printf.sprintf "only %d authentic fragments, need %d" got needed
  | Write_unacked { needed; got } ->
    Printf.sprintf "only %d servers acknowledged fragments, need %d" got needed
  | Decrypt_failed -> "reassembled ciphertext failed authentication"
  | Not_found -> "no fragments found"

let make ~n ~b ?k ?servers ?(timeout = Sim.Runtime.default_timeout) ?token
    ~writer ~key ~keyring ~group ~secret () =
  let k = match k with Some k -> k | None -> b + 1 in
  if k < b + 1 || k > n - (2 * b) then
    invalid_arg "Dispersal.make: need b+1 <= k <= n-2b";
  let servers =
    match servers with
    | Some s -> Array.of_list s
    | None -> Array.init n Fun.id
  in
  if Array.length servers <> n then invalid_arg "Dispersal.make: servers length";
  {
    writer;
    key;
    keyring;
    group;
    aead = Crypto.Aead.key_of_string secret;
    n;
    b;
    k;
    servers;
    timeout;
    token;
    nonce_rng = Crypto.Prng.create ~seed:("dispersal-nonce/" ^ writer ^ "/" ^ group);
    last_time = 0;
  }

let fragment_item ~item i = Printf.sprintf "%s#%d" item i

let next_time t =
  let now_us = int_of_float (Sim.Runtime.now () *. 1e6) in
  let time = max (t.last_time + 1) now_us in
  t.last_time <- time;
  time

let rpc_one t dst request =
  let payload = Payload.encode_envelope { Payload.token = t.token; epoch = 0; request } in
  let replies = Sim.Runtime.call_many ~timeout:t.timeout ~quorum:1 [ dst ] payload in
  Metrics.add_messages (1 + List.length replies);
  Metrics.add_bytes
    (String.length payload
    + List.fold_left
        (fun acc (r : Sim.Runtime.reply) -> acc + String.length r.payload)
        0 replies);
  match replies with
  | { payload; _ } :: _ -> Payload.decode_response payload
  | [] -> None

let write t ~item value =
  let nonce = Crypto.Aead.random_nonce t.nonce_rng in
  let ciphertext = Crypto.Aead.encrypt t.aead ~nonce ~ad:item value in
  let fragments = Crypto.Ida.split ~k:t.k ~n:t.n ciphertext in
  let time = next_time t in
  let acks = ref 0 in
  List.iteri
    (fun i fragment ->
      let uid = Uid.make ~group:t.group ~item:(fragment_item ~item (i + 1)) in
      let body = Crypto.Ida.fragment_to_string fragment in
      let w =
        Signing.sign_write ~key:t.key ~writer:t.writer ~uid
          ~stamp:(Stamp.scalar time) body
      in
      match rpc_one t t.servers.(i) (Payload.Write_req { write = w; await_ack = true }) with
      | Some Payload.Ack -> incr acks
      | Some _ | None -> ())
    fragments;
  let needed = t.k + t.b in
  if !acks >= needed then Ok () else Error (Write_unacked { needed; got = !acks })

(* Collect authentic fragments grouped by version stamp; reconstruct the
   newest version that has k of them. *)
let read t ~item =
  let by_stamp : (Stamp.t, Crypto.Ida.fragment list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let seen_any = ref false in
  let check_done stamp =
    match Hashtbl.find_opt by_stamp stamp with
    | Some frags when List.length !frags >= t.k -> true
    | _ -> false
  in
  let collect i =
    let index = i + 1 in
    let uid = Uid.make ~group:t.group ~item:(fragment_item ~item index) in
    match rpc_one t t.servers.(i) (Payload.Read_inline { uid }) with
    | Some (Payload.Value_reply (Some w))
      when Uid.equal w.Payload.uid uid && Signing.verify_write t.keyring w -> (
      seen_any := true;
      match Crypto.Ida.fragment_of_string w.Payload.value with
      | Some fragment when fragment.Crypto.Ida.index = index ->
        (match Hashtbl.find_opt by_stamp w.Payload.stamp with
        | Some cell -> cell := fragment :: !cell
        | None -> Hashtbl.add by_stamp w.Payload.stamp (ref [ fragment ]));
        Some w.Payload.stamp
      | Some _ | None -> None)
    | _ -> None
  in
  (* Walk the servers, stopping as soon as some version has k authentic
     fragments. *)
  let rec walk i completed =
    if i >= t.n then completed
    else begin
      let completed =
        match collect i with
        | Some stamp when check_done stamp -> (
          match completed with
          | Some best when Stamp.compare best stamp >= 0 -> completed
          | _ -> Some stamp)
        | _ -> completed
      in
      (* Even after completing a version, later servers may hold a newer
         one; keep walking only if we have budget to improve. *)
      walk (i + 1) completed
    end
  in
  match walk 0 None with
  | Some stamp -> (
    let frags = !(Hashtbl.find by_stamp stamp) in
    match Crypto.Ida.reconstruct ~k:t.k frags with
    | Some ciphertext -> (
      match Crypto.Aead.decrypt t.aead ~ad:item ciphertext with
      | Some value -> Ok value
      | None -> Error Decrypt_failed)
    | None -> Error (Not_enough_fragments { needed = t.k; got = List.length frags }))
  | None ->
    if !seen_any then begin
      let best =
        Hashtbl.fold (fun _ frags acc -> max acc (List.length !frags)) by_stamp 0
      in
      Error (Not_enough_fragments { needed = t.k; got = best })
    end
    else Error Not_found

(* --- coded bulk transport (pure helpers) -------------------------------- *)

(* The live dispersal path (metadata through the replica quorum, bulk
   bytes as coded fragments) shares these with the server's repair loop.
   All are pure: they touch no transport and no state. *)

let default_stripe ~k =
  (* Stripes code [stripe/k] bytes per fragment; 64 KiB-ish keeps the
     per-stripe interpolation working set in cache while dividing by any
     k <= 85. *)
  k * ((65536 + k - 1) / k)

let frag_length (meta : Payload.dispersal_meta) =
  let full = meta.total_length / meta.stripe in
  let rem = meta.total_length - (full * meta.stripe) in
  (full * (meta.stripe / meta.k)) + ((rem + meta.k - 1) / meta.k)

let meta_ok (meta : Payload.dispersal_meta) =
  meta.k >= 1 && meta.k <= meta.m && meta.m <= 255 && meta.total_length >= 0
  && meta.stripe > 0
  && meta.stripe mod meta.k = 0
  && List.length meta.digests = meta.m
  && List.for_all (fun d -> String.length d = 32) meta.digests

let meta_root (meta : Payload.dispersal_meta) =
  Metrics.incr_digest ();
  Crypto.Merkle.root (Crypto.Merkle.of_leaves meta.digests)

let plan ~k ~n ?stripe value =
  let stripe = match stripe with Some s -> s | None -> default_stripe ~k in
  if k < 1 || k > n || n > 255 then invalid_arg "Dispersal.plan: need 1 <= k <= n <= 255";
  if stripe <= 0 || stripe mod k <> 0 then
    invalid_arg "Dispersal.plan: stripe must be a positive multiple of k";
  let total = String.length value in
  let bufs = Array.init n (fun _ -> Buffer.create ((total / k) + 64)) in
  let off = ref 0 in
  while !off < total do
    let len = min stripe (total - !off) in
    let pieces = Crypto.Ida.split_stripe ~k ~n (String.sub value !off len) in
    Array.iteri (fun i p -> Buffer.add_string bufs.(i) p) pieces;
    off := !off + stripe
  done;
  let fragments = Array.map Buffer.contents bufs in
  let digests =
    Array.to_list (Array.map Crypto.Sha256.digest fragments)
  in
  ( { Payload.k; m = n; total_length = total; stripe; digests }, fragments )

(* Reconstruct the original value from >= k full fragments, stripe by
   stripe so peak extra memory is one stripe's pieces, not a second copy
   of the value. Callers verify fragment digests against the metadata
   first; this only checks shape. *)
let decode_fragments (meta : Payload.dispersal_meta) pieces =
  if not (meta_ok meta) then None
  else begin
    let fl = frag_length meta in
    let pieces =
      List.filter
        (fun (i, d) -> i >= 1 && i <= meta.m && String.length d = fl)
        pieces
      |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
    in
    if List.length pieces < meta.k then None
    else begin
      let pieces = List.filteri (fun i _ -> i < meta.k) pieces in
      let piece_stripe = meta.stripe / meta.k in
      let out = Buffer.create meta.total_length in
      let rec go off =
        if off >= meta.total_length then Some (Buffer.contents out)
        else begin
          let len = min meta.stripe (meta.total_length - off) in
          let plen = (len + meta.k - 1) / meta.k in
          let poff = off / meta.stripe * piece_stripe in
          let sub =
            List.map (fun (i, d) -> (i, String.sub d poff plen)) pieces
          in
          match Crypto.Ida.reconstruct_stripe ~k:meta.k ~len sub with
          | Some s ->
            Buffer.add_string out s;
            go (off + meta.stripe)
          | None -> None
        end
      in
      go 0
    end
  end

(* Re-derive one fragment from a reconstructed value — the repair path:
   a holder that lost its fragment pulls k others, decodes, and re-codes
   just its own index. *)
let refragment (meta : Payload.dispersal_meta) ~index value =
  if index < 1 || index > meta.m then
    invalid_arg "Dispersal.refragment: index out of range";
  let _, fragments = plan ~k:meta.k ~n:meta.m ~stripe:meta.stripe value in
  fragments.(index - 1)
