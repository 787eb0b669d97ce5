let leaf_hash payload = Sha256.digest ("\x00" ^ payload)
let node_hash l r = Sha256.digest ("\x01" ^ l ^ r)
let empty_root = Sha256.digest "\x02merkle-empty"

type tree = { leaves : string array; levels : string array list }
(* [levels] runs from the leaf-hash level up to the singleton root level.
   An odd node at the end of a level is promoted unchanged. *)

type proof = { index : int; path : (string * [ `Left | `Right ]) list }

let build_levels leaf_hashes =
  let rec up acc level =
    if Array.length level <= 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let parent =
        Array.init ((n + 1) / 2) (fun i ->
            if (2 * i) + 1 < n then node_hash level.(2 * i) level.((2 * i) + 1)
            else level.(2 * i))
      in
      up (level :: acc) parent
    end
  in
  up [] leaf_hashes

let of_leaves payloads =
  let leaves = Array.of_list payloads in
  if Array.length leaves = 0 then { leaves; levels = [] }
  else { leaves; levels = build_levels (Array.map leaf_hash leaves) }

let size t = Array.length t.leaves

let root t =
  match List.rev t.levels with
  | [] -> empty_root
  | top :: _ -> top.(0)

let prove t index =
  if index < 0 || index >= Array.length t.leaves then None
  else begin
    let rec walk i levels acc =
      match levels with
      | [] | [ _ ] -> List.rev acc
      | level :: rest ->
        let sibling = if i land 1 = 0 then i + 1 else i - 1 in
        let acc =
          if sibling < Array.length level then
            (level.(sibling), (if i land 1 = 0 then `Right else `Left)) :: acc
          else acc
        in
        walk (i / 2) rest acc
    in
    Some { index; path = walk index t.levels [] }
  end

(* Verification recomputes the tree's level widths from [size], so the
   proof's shape — how many siblings, on which sides, and where the odd
   promoted nodes fall — is fully determined by (size, index). A proof
   with a stripped, reordered or side-swapped path, or a relabeled
   index, fails structurally before any hash comparison; the claimed
   index is therefore binding, not advisory. *)
let verify ~root:expected ~size ~leaf proof =
  if size <= 0 || proof.index < 0 || proof.index >= size then false
  else begin
    let rec climb i width path h =
      if width <= 1 then (match path with [] -> Some h | _ :: _ -> None)
      else begin
        let has_sibling = if i land 1 = 0 then i + 1 < width else true in
        let parent_width = (width + 1) / 2 in
        if not has_sibling then climb (i / 2) parent_width path h
        else
          match path with
          | [] -> None
          | (sibling, side) :: rest ->
            let expected_side = if i land 1 = 0 then `Right else `Left in
            if side <> expected_side then None
            else begin
              let h =
                if i land 1 = 0 then node_hash h sibling else node_hash sibling h
              in
              climb (i / 2) parent_width rest h
            end
      end
    in
    match climb proof.index size proof.path (leaf_hash leaf) with
    | Some h -> Hmac.equal_constant_time h expected
    | None -> false
  end

(* --- frontier: the tree over a growing leaf sequence ---------------------

   A prefix of n leaves is summarised by the roots of the perfect subtrees
   its binary decomposition names, one per set bit of n ([peaks], smallest
   subtree first). Because [build_levels] promotes an odd last node, the
   root of the whole tree is those peaks combined from the smallest
   upward, so appending a leaf is a binary increment with carries. *)

type frontier = { count : int; peaks : string list }

let frontier_empty = { count = 0; peaks = [] }
let frontier_size f = f.count

let frontier_push f h =
  let rec carry h n peaks =
    if n land 1 = 0 then h :: peaks
    else
      match peaks with
      | p :: rest -> carry (node_hash p h) (n lsr 1) rest
      | [] -> assert false
  in
  { count = f.count + 1; peaks = carry h f.count f.peaks }

let frontier_root f =
  match f.peaks with
  | [] -> empty_root
  | smallest :: larger -> List.fold_left (fun acc p -> node_hash p acc) smallest larger

let frontier_peaks f = List.rev f.peaks

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let frontier_of_peaks ~size peaks =
  if
    size < 0
    || List.length peaks <> popcount size
    || not (List.for_all (fun p -> String.length p = 32) peaks)
  then None
  else Some { count = size; peaks = List.rev peaks }

(* The peak of height [h] of [f], if bit [h] of its size is set. *)
let peak f h =
  let rec find bit n peaks =
    match peaks with
    | [] -> None
    | p :: rest ->
      if n = 0 then None
      else if n land 1 = 0 then find (bit + 1) (n lsr 1) peaks
      else if bit = h then Some p
      else find (bit + 1) (n lsr 1) rest
  in
  find 0 f.count f.peaks

(* A proof for a leaf past the prefix, in the tree over the prefix
   followed by [suffix] (leaf hashes, oldest first). Every sibling on the
   path either lies wholly inside the prefix, where it is exactly one of
   the peaks, or reaches into the suffix and is rebuilt from its leaves,
   so a proof costs O(|suffix|) hashes and the result is the proof
   [prove] would give over the full leaf list. *)
let prove_extension f suffix index =
  let hashes = Array.of_list suffix in
  let base = f.count in
  let total = base + Array.length hashes in
  if index < base || index >= total then None
  else begin
    let rec node h j =
      let lo = j lsl h in
      if lo + (1 lsl h) <= base then
        match peak f h with
        | Some p -> p
        | None -> invalid_arg "Merkle.prove_extension: not a peak"
      else if h = 0 then hashes.(lo - base)
      else if ((2 * j) + 1) lsl (h - 1) < total then
        node_hash (node (h - 1) (2 * j)) (node (h - 1) ((2 * j) + 1))
      else node (h - 1) (2 * j)
    in
    let rec walk h width acc =
      if width <= 1 then List.rev acc
      else begin
        let i = index lsr h in
        let sibling = i lxor 1 in
        let acc =
          if sibling < width then
            (node h sibling, if i land 1 = 0 then `Right else `Left) :: acc
          else acc
        in
        walk (h + 1) ((width + 1) / 2) acc
      end
    in
    Some { index; path = walk 0 total [] }
  end

(* Sum of two 32-byte big-endian numbers mod 2^256. *)
let multiset_add a b =
  let out = Bytes.create 32 in
  let carry = ref 0 in
  for i = 31 downto 0 do
    let s = Char.code a.[i] + Char.code b.[i] + !carry in
    Bytes.set out i (Char.chr (s land 0xff));
    carry := s lsr 8
  done;
  Bytes.unsafe_to_string out

let multiset_zero = String.make 32 '\000'
