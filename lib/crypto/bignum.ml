(* Little-endian limbs, 26 bits per limb. Invariant: no most-significant
   zero limb; zero is the empty array. 26-bit limbs keep every product
   below 2^52 so schoolbook multiplication and Montgomery reduction can
   accumulate carries in a native 63-bit int without overflow. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero a = Array.length a = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
  Array.of_list (limbs v)

let to_int_opt a =
  (* A native int holds at most 62 bits: 2 full limbs plus 10 bits. *)
  let n = Array.length a in
  if n > 3 || (n = 3 && a.(2) >= 1 lsl 10) then None
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let num_bits a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    ((n - 1) * limb_bits) + width top
  end

let bit a i =
  let l = i / limb_bits in
  l < Array.length a && (a.(l) lsr (i mod limb_bits)) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let v = av + bv + !carry in
    out.(i) <- v land limb_mask;
    carry := v lsr limb_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let v = a.(i) - bv - !borrow in
    if v < 0 then begin
      out.(i) <- v + (1 lsl limb_bits);
      borrow := 1
    end
    else begin
      out.(i) <- v;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left a k =
  if is_zero a || k = 0 then a
  else begin
    let la = Array.length a in
    let ls = k / limb_bits and bits = k mod limb_bits in
    let out = Array.make (la + ls + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + ls) <- out.(i + ls) lor (v land limb_mask);
      out.(i + ls + 1) <- out.(i + ls + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right a k =
  if k = 0 then a
  else begin
    let la = Array.length a in
    let ls = k / limb_bits and bits = k mod limb_bits in
    if ls >= la then zero
    else begin
      let n = la - ls in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let v = ref (a.(i + ls) lsr bits) in
        if bits > 0 && i + ls + 1 < la then
          v := !v lor ((a.(i + ls + 1) lsl (limb_bits - bits)) land limb_mask);
        out.(i) <- !v
      done;
      normalize out
    end
  end

let add_int a v = add a (of_int v)
let sub_int a v = sub a (of_int v)

let mul_int a v =
  if v < 0 || v >= 1 lsl 30 then invalid_arg "Bignum.mul_int: out of range";
  mul a (of_int v)

let mod_int a m =
  if m <= 0 || m >= 1 lsl 30 then invalid_arg "Bignum.mod_int: out of range";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := (((!r lsl limb_bits) lor a.(i)) mod m)
  done;
  !r

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    (* Binary long division: O(bits(a) * limbs(b)); plenty for key-sized
       operands and only used outside multiplication-heavy inner loops. *)
    let nb = num_bits a in
    let q = Array.make (Array.length a) 0 in
    let r = ref zero in
    for i = nb - 1 downto 0 do
      r := shift_left !r 1;
      if bit a i then r := if is_zero !r then one else add !r one;
      if compare !r b >= 0 then begin
        r := sub !r b;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, !r)
  end

let rem a b = snd (divmod a b)

(* --- Montgomery arithmetic for odd moduli ------------------------------- *)

type mont = {
  m : int array; (* modulus limbs, length k *)
  mt : t; (* the modulus as a normalized value, for reductions *)
  k : int;
  m' : int; (* -m^{-1} mod 2^26 *)
  r2 : int array; (* (2^26)^(2k) mod m, for conversion into the domain *)
  one_m : int array; (* R mod m: 1 in the Montgomery domain *)
}

(* CIOS Montgomery product into [dst]: dst = x*y / R mod m with R = 2^(26k).
   x, y and dst are limb arrays of length k; dst may alias x or y because
   the product accumulates in the k+2-limb scratch [t] and is blitted out
   at the end. Each exponentiation owns its scratch: in a shared context,
   two threads signing with one key would mix their products. *)
let mont_mul_into ctx t dst x y =
  let k = ctx.k and m = ctx.m and m' = ctx.m' in
  Array.fill t 0 (k + 2) 0;
  for i = 0 to k - 1 do
    let xi = Array.unsafe_get x i in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let v = Array.unsafe_get t j + (xi * Array.unsafe_get y j) + !c in
      Array.unsafe_set t j (v land limb_mask);
      c := v lsr limb_bits
    done;
    let v = t.(k) + !c in
    t.(k) <- v land limb_mask;
    t.(k + 1) <- t.(k + 1) + (v lsr limb_bits);
    let mi = t.(0) * m' land limb_mask in
    let v = t.(0) + (mi * m.(0)) in
    let c = ref (v lsr limb_bits) in
    for j = 1 to k - 1 do
      let v = Array.unsafe_get t j + (mi * Array.unsafe_get m j) + !c in
      Array.unsafe_set t (j - 1) (v land limb_mask);
      c := v lsr limb_bits
    done;
    let v = t.(k) + !c in
    t.(k - 1) <- v land limb_mask;
    t.(k) <- t.(k + 1) + (v lsr limb_bits);
    t.(k + 1) <- 0
  done;
  (* Result is t[0..k] < 2m; one conditional subtraction normalizes. *)
  let ge_m =
    t.(k) > 0
    ||
    let rec go i =
      if i < 0 then true
      else if t.(i) <> m.(i) then t.(i) > m.(i)
      else go (i - 1)
    in
    go (k - 1)
  in
  if ge_m then begin
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let v = t.(i) - m.(i) - !borrow in
      if v < 0 then begin
        t.(i) <- v + (1 lsl limb_bits);
        borrow := 1
      end
      else begin
        t.(i) <- v;
        borrow := 0
      end
    done;
    t.(k) <- t.(k) - !borrow;
    assert (t.(k) = 0)
  end;
  Array.blit t 0 dst 0 k

let pad k a =
  let out = Array.make k 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

let mont_init mt =
  let m = mt in
  let k = Array.length m in
  if k = 0 || m.(0) land 1 = 0 then
    invalid_arg "Bignum.mont_of_modulus: modulus must be odd";
  (* Newton iteration for the inverse of m.(0) modulo 2^26. *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := !inv * ((2 - (m.(0) * !inv)) land limb_mask) land limb_mask
  done;
  assert (m.(0) * !inv land limb_mask = 1);
  let m' = ((1 lsl limb_bits) - !inv) land limb_mask in
  let r2 = pad k (rem (shift_left one (2 * k * limb_bits)) m) in
  let one_m = pad k (rem (shift_left one (k * limb_bits)) m) in
  { m; mt; k; m'; r2; one_m }

(* Rebuilding a context costs a division per modulus; RSA reuses the same
   handful of moduli for every sign/verify, so a small cache pays for
   itself immediately. Flushed wholesale when full — eviction precision
   does not matter at this size. *)
let mont_cache : (t, mont) Hashtbl.t = Hashtbl.create 16
let mont_cache_limit = 16
let mont_cache_lock = Mutex.create ()

let mont_of_modulus m =
  Mutex.protect mont_cache_lock @@ fun () ->
  match Hashtbl.find_opt mont_cache m with
  | Some ctx -> ctx
  | None ->
    let ctx = mont_init m in
    if Hashtbl.length mont_cache >= mont_cache_limit then
      Hashtbl.reset mont_cache;
    Hashtbl.add mont_cache m ctx;
    ctx

let mont_modulus ctx = ctx.mt

(* Fixed 4-bit windowed exponentiation over a precomputed context. Only
   odd powers base^1, base^3, ..., base^15 are tabulated: a window value
   v = u * 2^z (u odd) is folded in as (4-z) squarings, one multiply by
   base^u, then z more squarings. *)
let mont_modexp_ctx ctx ~base ~exp =
  if is_zero exp then (if equal ctx.mt one then zero else one)
  else begin
    let k = ctx.k in
    let t = Array.make (k + 2) 0 in
    let base = rem base ctx.mt in
    let bm = Array.make k 0 in
    mont_mul_into ctx t bm (pad k base) ctx.r2;
    let b2 = Array.make k 0 in
    mont_mul_into ctx t b2 bm bm;
    (* odd_pows.(i) = base^(2i+1) in the Montgomery domain *)
    let odd_pows = Array.init 8 (fun _ -> Array.make k 0) in
    Array.blit bm 0 odd_pows.(0) 0 k;
    for i = 1 to 7 do
      mont_mul_into ctx t odd_pows.(i) odd_pows.(i - 1) b2
    done;
    let acc = Array.copy ctx.one_m in
    let nwin = (num_bits exp + 3) / 4 in
    for w = nwin - 1 downto 0 do
      let v = ref 0 in
      for j = 3 downto 0 do
        v := (!v lsl 1) lor (if bit exp ((4 * w) + j) then 1 else 0)
      done;
      if !v = 0 then
        for _ = 1 to 4 do
          mont_mul_into ctx t acc acc acc
        done
      else begin
        let z = ref 0 in
        while !v land 1 = 0 do
          v := !v lsr 1;
          incr z
        done;
        for _ = 1 to 4 - !z do
          mont_mul_into ctx t acc acc acc
        done;
        mont_mul_into ctx t acc acc odd_pows.(!v lsr 1);
        for _ = 1 to !z do
          mont_mul_into ctx t acc acc acc
        done
      end
    done;
    let out = Array.make k 0 in
    mont_mul_into ctx t out acc (pad k one);
    normalize out
  end

let modexp ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let base = rem base modulus in
    if is_zero exp then one
    else if not (is_even modulus) then
      mont_modexp_ctx (mont_of_modulus modulus) ~base ~exp
    else begin
      (* Even modulus fallback: plain square-and-multiply with reduction. *)
      let acc = ref one in
      for i = num_bits exp - 1 downto 0 do
        acc := rem (mul !acc !acc) modulus;
        if bit exp i then acc := rem (mul !acc base) modulus
      done;
      !acc
    end
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Signed values for the extended Euclid coefficients. *)
let signed_add (an, a) (bn, b) =
  if an = bn then (an, add a b)
  else if compare a b >= 0 then (an, sub a b)
  else (bn, sub b a)

let mod_inverse a ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then Some zero
  else begin
    let old_r = ref a and r = ref modulus in
    let old_x = ref (false, one) and x = ref (false, zero) in
    while not (is_zero !r) do
      let q, r' = divmod !old_r !r in
      old_r := !r;
      r := r';
      let xn, xv = !x in
      let step = signed_add !old_x (not xn, mul q xv) in
      old_x := !x;
      x := step
    done;
    if not (equal !old_r one) then None
    else begin
      let neg, v = !old_x in
      let v = rem v modulus in
      Some (if neg && not (is_zero v) then sub modulus v else v)
    end
  end

(* --- Byte and text conversions ------------------------------------------ *)

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then zero
  else begin
    let limbs = ((8 * n) + limb_bits - 1) / limb_bits in
    let a = Array.make limbs 0 in
    for i = 0 to n - 1 do
      let byte = Char.code s.[n - 1 - i] in
      let bitpos = 8 * i in
      let l = bitpos / limb_bits and off = bitpos mod limb_bits in
      a.(l) <- a.(l) lor ((byte lsl off) land limb_mask);
      if off > limb_bits - 8 then a.(l + 1) <- a.(l + 1) lor (byte lsr (limb_bits - off))
    done;
    normalize a
  end

let byte_at a i =
  let bitpos = 8 * i in
  let l = bitpos / limb_bits and off = bitpos mod limb_bits in
  let la = Array.length a in
  if l >= la then 0
  else begin
    let v = a.(l) lsr off in
    let v =
      if off > limb_bits - 8 && l + 1 < la then
        v lor (a.(l + 1) lsl (limb_bits - off))
      else v
    in
    v land 0xff
  end

let to_bytes_be ?len a =
  let min_len = (num_bits a + 7) / 8 in
  let n =
    match len with
    | None -> min_len
    | Some l ->
      if l < min_len then invalid_arg "Bignum.to_bytes_be: value too large";
      l
  in
  String.init n (fun i -> Char.chr (byte_at a (n - 1 - i)))

let of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  of_bytes_be (Hexs.decode h)

let to_hex a = if is_zero a then "00" else Hexs.encode (to_bytes_be a)
let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
