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
