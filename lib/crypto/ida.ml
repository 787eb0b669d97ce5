(* A stripe is processed in blocks of k bytes (zero padded). The k bytes
   of a block are the coefficients of a degree-(k-1) polynomial;
   fragment i stores that polynomial's evaluation at x = i, one byte per
   block. Reconstruction interpolates the coefficients from any k
   distinct evaluations.

   The caller frames stripes itself, so fragments carry no header and a
   multi-MB value is coded stripe by stripe without ever holding more
   than one stripe of coefficients. A stripe of [len] value bytes yields
   ceil(len/k) bytes per fragment — exactly [len/k] when the caller
   keeps stripe sizes a multiple of k, which makes fragment offsets a
   pure function of value offsets. *)

let split_stripe ~k ~n chunk =
  if k < 1 || k > n || n > 255 then
    invalid_arg "Ida.split_stripe: need 1 <= k <= n <= 255";
  let len = String.length chunk in
  let blocks = (len + k - 1) / k in
  let outputs = Array.init n (fun _ -> Bytes.create blocks) in
  let coeffs = Array.make k 0 in
  for block = 0 to blocks - 1 do
    for j = 0 to k - 1 do
      let pos = (block * k) + j in
      coeffs.(j) <- (if pos < len then Char.code chunk.[pos] else 0)
    done;
    for i = 0 to n - 1 do
      Bytes.set outputs.(i) block (Char.chr (Gf_poly.eval coeffs (i + 1)))
    done
  done;
  Array.map Bytes.unsafe_to_string outputs

let reconstruct_stripe ~k ~len pieces =
  if k < 1 || len < 0 then None
  else begin
    let blocks = (len + k - 1) / k in
    let distinct =
      List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) pieces
      |> List.filteri (fun i _ -> i < k)
    in
    if
      List.length distinct < k
      || List.exists
           (fun (i, d) -> i < 1 || i > 255 || String.length d <> blocks)
           distinct
    then None
    else begin
      let out = Bytes.make (blocks * k) '\000' in
      for block = 0 to blocks - 1 do
        let points =
          List.map (fun (i, d) -> (i, Char.code d.[block])) distinct
        in
        let coeffs = Gf_poly.interpolate points in
        for j = 0 to min (k - 1) (Array.length coeffs - 1) do
          Bytes.set out ((block * k) + j) (Char.chr coeffs.(j))
        done
      done;
      Some (Bytes.sub_string out 0 len)
    end
  end
