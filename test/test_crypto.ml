open Crypto

let check_hex msg expected raw = Alcotest.(check string) msg expected (Hexs.encode raw)

(* ------------------------------------------------------------------ *)
(* Hex                                                                *)
(* ------------------------------------------------------------------ *)

let test_hex_roundtrip () =
  Alcotest.(check string) "encode" "00ff10" (Hexs.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hexs.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xab\xcd" (Hexs.decode "ABCD");
  Alcotest.check_raises "odd length" (Invalid_argument "Hexs.decode: odd length")
    (fun () -> ignore (Hexs.decode "abc"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Hexs.decode: non-hex character") (fun () ->
      ignore (Hexs.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hexs.decode (Hexs.encode s) = s)

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 / NIST examples)                               *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  check_hex "1M a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_streaming () =
  (* Absorbing in odd-sized chunks must match the one-shot digest. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 3; 64; 63; 65; 128; 200; 476 ] in
  List.iter
    (fun sz ->
      Sha256.update_sub ctx msg ~pos:!pos ~len:sz;
      pos := !pos + sz)
    sizes;
  assert (!pos = 1000);
  Alcotest.(check string) "streaming = one-shot" (Sha256.digest msg)
    (Sha256.finalize ctx)

let test_sha256_finalized_guard () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "update after finalize"
    (Invalid_argument "Sha256.update_sub: finalized context") (fun () ->
      Sha256.update ctx "x")

let prop_sha256_chunking =
  QCheck.Test.make ~name:"sha256 chunked = one-shot" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod String.length s in
      let ctx = Sha256.init () in
      Sha256.update_sub ctx s ~pos:0 ~len:cut;
      Sha256.update_sub ctx s ~pos:cut ~len:(String.length s - cut);
      Sha256.finalize ctx = Sha256.digest s)

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256 (RFC 4231)                                             *)
(* ------------------------------------------------------------------ *)

let test_hmac_rfc4231 () =
  (* Test case 1 *)
  check_hex "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  (* Test case 2 *)
  check_hex "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  (* Test case 3: 20 x 0xaa key, 50 x 0xdd data *)
  check_hex "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* Test case 6: 131-byte key (forces key hashing) *)
  check_hex "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.sha256
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.sha256 ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~msg ~tag);
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key ~msg ~tag:bad);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* ChaCha20 (RFC 8439)                                                *)
(* ------------------------------------------------------------------ *)

let rfc_key =
  Hexs.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha20_block () =
  (* RFC 8439 section 2.3.2 *)
  let nonce = Hexs.decode "000000090000004a00000000" in
  check_hex "block"
    ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
   ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
    (Chacha20.block ~key:rfc_key ~nonce ~counter:1)

let test_chacha20_encrypt () =
  (* RFC 8439 section 2.4.2 *)
  let nonce = Hexs.decode "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only \
     one tip for the future, sunscreen would be it."
  in
  let expected =
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    ^ "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    ^ "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    ^ "5af90bbf74a35be6b40b8eedf2785e42874d"
  in
  let ct = Chacha20.encrypt ~key:rfc_key ~nonce ~counter:1 plaintext in
  check_hex "ciphertext" expected ct;
  Alcotest.(check string) "decrypt inverts" plaintext
    (Chacha20.encrypt ~key:rfc_key ~nonce ~counter:1 ct)

let prop_chacha20_involution =
  QCheck.Test.make ~name:"chacha20 encrypt twice = id" ~count:100 QCheck.string
    (fun s ->
      let key = Sha256.digest "k" and nonce = String.make 12 '\x07' in
      Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce s) = s)

(* ------------------------------------------------------------------ *)
(* Bignum                                                             *)
(* ------------------------------------------------------------------ *)

let bn = Alcotest.testable Bignum.pp Bignum.equal

let test_bignum_basic () =
  Alcotest.check bn "of_int 0" Bignum.zero (Bignum.of_int 0);
  Alcotest.(check (option int)) "to_int" (Some 123456789)
    (Bignum.to_int_opt (Bignum.of_int 123456789));
  Alcotest.check bn "add" (Bignum.of_int 579) (Bignum.add (Bignum.of_int 123) (Bignum.of_int 456));
  Alcotest.check bn "sub" (Bignum.of_int 333) (Bignum.sub (Bignum.of_int 456) (Bignum.of_int 123));
  Alcotest.check bn "mul"
    (Bignum.of_hex "75824cd109d898")
    (Bignum.mul (Bignum.of_int 123456789) (Bignum.of_int 267914296));
  Alcotest.check_raises "sub negative" (Invalid_argument "Bignum.sub: negative result")
    (fun () -> ignore (Bignum.sub Bignum.one Bignum.two))

let test_bignum_bytes () =
  let v = Bignum.of_hex "0123456789abcdef00ff" in
  Alcotest.(check string) "to_bytes_be" "\x01\x23\x45\x67\x89\xab\xcd\xef\x00\xff"
    (Bignum.to_bytes_be v);
  Alcotest.(check string) "padded" "\x00\x00\x01\x23\x45\x67\x89\xab\xcd\xef\x00\xff"
    (Bignum.to_bytes_be ~len:12 v);
  Alcotest.check bn "roundtrip" v (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  Alcotest.check bn "leading zeros ok" v
    (Bignum.of_bytes_be ("\x00\x00" ^ Bignum.to_bytes_be v))

let test_bignum_bits () =
  Alcotest.(check int) "num_bits 0" 0 (Bignum.num_bits Bignum.zero);
  Alcotest.(check int) "num_bits 1" 1 (Bignum.num_bits Bignum.one);
  Alcotest.(check int) "num_bits 2^100" 101
    (Bignum.num_bits (Bignum.shift_left Bignum.one 100));
  let v = Bignum.of_hex "8000000000000001" in
  Alcotest.(check bool) "bit 0" true (Bignum.bit v 0);
  Alcotest.(check bool) "bit 1" false (Bignum.bit v 1);
  Alcotest.(check bool) "bit 63" true (Bignum.bit v 63);
  Alcotest.(check bool) "bit 64" false (Bignum.bit v 64)

let test_bignum_divmod () =
  let a = Bignum.of_hex "123456789abcdef0123456789abcdef" in
  let b = Bignum.of_hex "fedcba987" in
  let q, r = Bignum.divmod a b in
  Alcotest.check bn "a = q*b + r" a (Bignum.add (Bignum.mul q b) r);
  Alcotest.(check bool) "r < b" true (Bignum.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod a Bignum.zero))

let test_bignum_modexp_known () =
  (* 5^3 mod 13 = 8; bigger case checked against an independently computed
     value: 0x1234567^89 mod (2^89-1) *)
  Alcotest.check bn "small" (Bignum.of_int 8)
    (Bignum.modexp ~base:(Bignum.of_int 5) ~exp:(Bignum.of_int 3)
       ~modulus:(Bignum.of_int 13));
  (* Fermat: a^(p-1) = 1 mod p for prime p = 2^127 - 1 (a Mersenne prime) *)
  let p = Bignum.sub_int (Bignum.shift_left Bignum.one 127) 1 in
  let a = Bignum.of_hex "123456789abcdef" in
  Alcotest.check bn "fermat m127" Bignum.one
    (Bignum.modexp ~base:a ~exp:(Bignum.sub_int p 1) ~modulus:p);
  (* Even modulus path *)
  Alcotest.check bn "even modulus" (Bignum.of_int 4)
    (Bignum.modexp ~base:(Bignum.of_int 2) ~exp:(Bignum.of_int 10)
       ~modulus:(Bignum.of_int 12))

let test_bignum_inverse () =
  let m = Bignum.of_int 97 in
  (match Bignum.mod_inverse (Bignum.of_int 10) ~modulus:m with
  | Some inv ->
    Alcotest.check bn "10 * inv = 1 mod 97" Bignum.one
      (Bignum.rem (Bignum.mul (Bignum.of_int 10) inv) m)
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "no inverse when gcd > 1" true
    (Bignum.mod_inverse (Bignum.of_int 6) ~modulus:(Bignum.of_int 9) = None)

let sized_bignum =
  QCheck.map
    (fun (n, seed) ->
      let rng = Prng.create ~seed:(string_of_int seed) in
      Prng.bits rng (1 + (n mod 300)))
    QCheck.(pair small_nat int)

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:200
    (QCheck.pair sized_bignum sized_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_mul_commutes =
  QCheck.Test.make ~name:"mul commutes" ~count:200
    (QCheck.pair sized_bignum sized_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:200
    (QCheck.pair sized_bignum sized_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_divmod_identity =
  QCheck.Test.make ~name:"divmod identity" ~count:200
    (QCheck.pair sized_bignum sized_bignum)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift left/right roundtrip" ~count:200
    (QCheck.pair sized_bignum QCheck.small_nat)
    (fun (a, k) ->
      let k = k mod 100 in
      Bignum.equal (Bignum.shift_right (Bignum.shift_left a k) k) a)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200 sized_bignum (fun a ->
      Bignum.equal a (Bignum.of_bytes_be (Bignum.to_bytes_be a)))

let prop_modexp_matches_naive =
  QCheck.Test.make ~name:"montgomery modexp = naive modmul" ~count:50
    (QCheck.triple sized_bignum QCheck.small_nat QCheck.small_nat)
    (fun (m, b, e) ->
      let m = Bignum.add_int m 1 in
      let m = if Bignum.is_even m then Bignum.add_int m 1 else m in
      QCheck.assume (Bignum.compare m Bignum.one > 0);
      let base = Bignum.of_int (b + 2) in
      let exp = e mod 40 in
      let naive = ref Bignum.one in
      for _ = 1 to exp do
        naive := Bignum.rem (Bignum.mul !naive base) m
      done;
      Bignum.equal !naive
        (Bignum.modexp ~base ~exp:(Bignum.of_int exp) ~modulus:m))

(* The windowed Montgomery path must agree with textbook binary
   square-and-multiply for multi-window exponents (the existing naive
   property only exercises exponents below one window). *)
let prop_windowed_modexp_matches_binary =
  QCheck.Test.make ~name:"windowed modexp = binary square-multiply" ~count:30
    (QCheck.triple sized_bignum sized_bignum QCheck.int)
    (fun (m, exp, seed) ->
      let m = Bignum.add_int m 3 in
      let m = if Bignum.is_even m then Bignum.add_int m 1 else m in
      let rng = Prng.create ~seed:("win-" ^ string_of_int seed) in
      let base = Prng.bits rng 200 in
      let reduced = Bignum.rem base m in
      let naive = ref Bignum.one in
      for i = Bignum.num_bits exp - 1 downto 0 do
        naive := Bignum.rem (Bignum.mul !naive !naive) m;
        if Bignum.bit exp i then naive := Bignum.rem (Bignum.mul !naive reduced) m
      done;
      Bignum.equal !naive (Bignum.modexp ~base ~exp ~modulus:m))

let test_mont_ctx_api () =
  let m = Bignum.of_hex "fffffffffffffffffffffffffffffffeffffffffffffffff" in
  let ctx = Bignum.mont_of_modulus m in
  Alcotest.check bn "modulus roundtrips" m (Bignum.mont_modulus ctx);
  Alcotest.(check bool) "context is cached" true
    (ctx == Bignum.mont_of_modulus m);
  let base = Bignum.of_hex "123456789abcdef0123456789abcdef" in
  let exp = Bignum.of_hex "deadbeefcafe" in
  Alcotest.check bn "ctx modexp = modexp"
    (Bignum.modexp ~base ~exp ~modulus:m)
    (Bignum.mont_modexp_ctx ctx ~base ~exp);
  Alcotest.check bn "exp 0" Bignum.one
    (Bignum.mont_modexp_ctx ctx ~base ~exp:Bignum.zero);
  Alcotest.check_raises "even modulus rejected"
    (Invalid_argument "Bignum.mont_of_modulus: modulus must be odd") (fun () ->
      ignore (Bignum.mont_of_modulus (Bignum.of_int 10)))

let prop_mod_int_matches =
  QCheck.Test.make ~name:"mod_int = rem" ~count:200
    (QCheck.pair sized_bignum QCheck.small_nat)
    (fun (a, m) ->
      let m = m + 1 in
      Bignum.mod_int a m = Option.get (Bignum.to_int_opt (Bignum.rem a (Bignum.of_int m))))


let test_bignum_more_edges () =
  (* exponent 0, modulus 1, base 0 *)
  Alcotest.check bn "x^0 = 1" Bignum.one
    (Bignum.modexp ~base:(Bignum.of_int 7) ~exp:Bignum.zero ~modulus:(Bignum.of_int 13));
  Alcotest.check bn "mod 1 = 0" Bignum.zero
    (Bignum.modexp ~base:(Bignum.of_int 7) ~exp:(Bignum.of_int 5) ~modulus:Bignum.one);
  Alcotest.check bn "0^k = 0" Bignum.zero
    (Bignum.modexp ~base:Bignum.zero ~exp:(Bignum.of_int 5) ~modulus:(Bignum.of_int 13));
  Alcotest.check_raises "modexp mod 0" Division_by_zero (fun () ->
      ignore (Bignum.modexp ~base:Bignum.one ~exp:Bignum.one ~modulus:Bignum.zero));
  (* odd-length hex is zero-padded *)
  Alcotest.check bn "odd hex" (Bignum.of_int 0xabc) (Bignum.of_hex "abc");
  Alcotest.check_raises "to_bytes too small"
    (Invalid_argument "Bignum.to_bytes_be: value too large") (fun () ->
      ignore (Bignum.to_bytes_be ~len:1 (Bignum.of_int 70000)));
  (* gcd / inverse edge: inverse of 1 mod anything is 1 *)
  Alcotest.(check bool) "inv 1" true
    (Bignum.mod_inverse Bignum.one ~modulus:(Bignum.of_int 97) = Some Bignum.one);
  Alcotest.check bn "gcd(0, x) = x" (Bignum.of_int 42)
    (Bignum.gcd Bignum.zero (Bignum.of_int 42))

let test_prng_edges () =
  let rng = Prng.create ~seed:"edges" in
  Alcotest.(check bool) "bits 0 = zero" true (Bignum.is_zero (Prng.bits rng 0));
  Alcotest.(check int) "bits 1 in range" 0 (Bignum.num_bits (Prng.bits rng 1) / 2);
  Alcotest.check_raises "int_below 0"
    (Invalid_argument "Prng.int_below: non-positive bound") (fun () ->
      ignore (Prng.int_below rng 0))

(* ------------------------------------------------------------------ *)
(* PRNG                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:"seed" and b = Prng.create ~seed:"seed" in
  Alcotest.(check string) "same stream" (Prng.bytes a 100) (Prng.bytes b 100);
  let c = Prng.create ~seed:"other" in
  Alcotest.(check bool) "different seed, different stream" false
    (Prng.bytes (Prng.create ~seed:"seed") 100 = Prng.bytes c 100)

let test_prng_int_below () =
  let rng = Prng.create ~seed:"ranges" in
  for _ = 1 to 1000 do
    let v = Prng.int_below rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.(check int) "bound 1" 0 (Prng.int_below rng 1)

let test_prng_split_independent () =
  let rng = Prng.create ~seed:"root" in
  let a = Prng.split rng ~label:"a" and b = Prng.split rng ~label:"b" in
  Alcotest.(check bool) "split streams differ" false
    (Prng.bytes a 64 = Prng.bytes b 64)

let test_prng_float_unit () =
  let rng = Prng.create ~seed:"floats" in
  for _ = 1 to 1000 do
    let f = Prng.float_unit rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "out of range: %f" f
  done

(* ------------------------------------------------------------------ *)
(* Primes                                                             *)
(* ------------------------------------------------------------------ *)

let test_small_primes_table () =
  Alcotest.(check int) "first prime" 2 Prime.small_primes.(0);
  Alcotest.(check bool) "contains 1999" true (Array.mem 1999 Prime.small_primes);
  Alcotest.(check bool) "no 1998" false (Array.mem 1998 Prime.small_primes)

let test_known_primes () =
  let rng = Prng.create ~seed:"mr" in
  let prime_hexes =
    [
      "7fffffffffffffffffffffffffffffff"; (* 2^127 - 1 *)
      "fffffffffffffffffffffffffffffffeffffffffffffffff"; (* p192 field *)
    ]
  in
  List.iter
    (fun h ->
      Alcotest.(check bool) (h ^ " is prime") true
        (Prime.is_probably_prime rng (Bignum.of_hex h)))
    prime_hexes;
  let composites = [ "7ffffffffffffffffffffffffffffffd"; "04"; "00" ] in
  List.iter
    (fun h ->
      Alcotest.(check bool) (h ^ " is composite") false
        (Prime.is_probably_prime rng (Bignum.of_hex h)))
    composites

let test_carmichael_rejected () =
  (* 561, 41041 and a larger Carmichael number fool Fermat but not MR. *)
  let rng = Prng.create ~seed:"carmichael" in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (string_of_int v ^ " rejected")
        false
        (Prime.is_probably_prime rng (Bignum.of_int v)))
    [ 561; 1105; 41041; 825265 ]

let test_generate_prime () =
  let rng = Prng.create ~seed:"gen" in
  let p = Prime.generate rng ~bits:128 in
  Alcotest.(check int) "exact width" 128 (Bignum.num_bits p);
  Alcotest.(check bool) "odd" false (Bignum.is_even p);
  Alcotest.(check bool) "probably prime" true (Prime.is_probably_prime rng p);
  Alcotest.(check bool) "second-highest bit set" true (Bignum.bit p 126)

(* ------------------------------------------------------------------ *)
(* RSA                                                                *)
(* ------------------------------------------------------------------ *)

let test_rsa_sign_verify () =
  let rng = Prng.create ~seed:"rsa-keys" in
  let key = Rsa.generate ~bits:512 rng in
  let msg = "the quick brown fox" in
  let signature = Rsa.sign key msg in
  Alcotest.(check int) "signature width" 64 (String.length signature);
  Alcotest.(check bool) "verifies" true
    (Rsa.verify key.public ~msg ~signature);
  Alcotest.(check bool) "wrong message rejected" false
    (Rsa.verify key.public ~msg:"tampered" ~signature);
  let flipped =
    String.mapi
      (fun i c -> if i = 10 then Char.chr (Char.code c lxor 0x40) else c)
      signature
  in
  Alcotest.(check bool) "corrupt signature rejected" false
    (Rsa.verify key.public ~msg ~signature:flipped);
  Alcotest.(check bool) "short signature rejected" false
    (Rsa.verify key.public ~msg ~signature:(String.sub signature 0 32))

let test_rsa_cross_key () =
  let rng = Prng.create ~seed:"rsa-two" in
  let k1 = Rsa.generate ~bits:512 rng in
  let k2 = Rsa.generate ~bits:512 rng in
  let signature = Rsa.sign k1 "msg" in
  Alcotest.(check bool) "other key rejects" false
    (Rsa.verify k2.public ~msg:"msg" ~signature)

let test_rsa_key_internal_consistency () =
  let rng = Prng.create ~seed:"rsa-consistency" in
  let key = Rsa.generate ~bits:512 rng in
  Alcotest.check bn "n = p*q" key.public.n (Bignum.mul key.p key.q);
  let phi = Bignum.(mul (sub_int key.p 1) (sub_int key.q 1)) in
  Alcotest.check bn "e*d = 1 mod phi" Bignum.one
    (Bignum.rem (Bignum.mul key.public.e key.d) phi);
  Alcotest.(check int) "modulus width" 512 (Bignum.num_bits key.public.n)

(* CRT signing is an internal optimization: its signatures must be
   byte-identical to the single-exponentiation path. *)
let crt_test_key =
  lazy (Rsa.generate ~bits:512 (Prng.create ~seed:"rsa-crt"))

let test_rsa_crt_matches_plain () =
  let key = Lazy.force crt_test_key in
  Alcotest.(check bool) "generate fills crt" true (key.crt <> None);
  let plain = { key with crt = None } in
  List.iter
    (fun msg ->
      let s_crt = Rsa.sign key msg in
      Alcotest.(check string) ("crt = plain: " ^ msg) (Rsa.sign plain msg) s_crt;
      Alcotest.(check bool) ("verifies: " ^ msg) true
        (Rsa.verify key.public ~msg ~signature:s_crt))
    [ ""; "x"; "the quick brown fox"; String.make 1000 'z' ];
  (* precompute_crt on an existing plain key restores the fast path. *)
  match Rsa.precompute_crt ~d:key.d ~p:key.p ~q:key.q with
  | None -> Alcotest.fail "precompute_crt failed for distinct primes"
  | Some crt ->
    Alcotest.(check string) "recomputed crt signs identically"
      (Rsa.sign plain "m") (Rsa.sign { plain with crt = Some crt } "m")

let prop_rsa_crt_roundtrip =
  QCheck.Test.make ~name:"rsa crt sign/verify roundtrip" ~count:15
    QCheck.string (fun msg ->
      let key = Lazy.force crt_test_key in
      let signature = Rsa.sign key msg in
      signature = Rsa.sign { key with crt = None } msg
      && Rsa.verify key.public ~msg ~signature
      && not (Rsa.verify key.public ~msg:(msg ^ "!") ~signature))

(* Two threads signing with one key at once: a systhread switch in the
   middle of one exponentiation must not corrupt the other's. *)
let test_rsa_concurrent_signing () =
  let key = Rsa.generate ~bits:512 (Prng.create ~seed:"rsa-shared") in
  let bad = Atomic.make 0 in
  let worker id () =
    for i = 1 to 300 do
      let msg = Printf.sprintf "thread %d message %d" id i in
      if not (Rsa.verify key.public ~msg ~signature:(Rsa.sign key msg)) then
        Atomic.incr bad
    done
  in
  List.iter Thread.join (List.init 2 (fun id -> Thread.create (worker id) ()));
  Alcotest.(check int) "every signature verifies" 0 (Atomic.get bad)

let test_rsa_public_serialization () =
  let rng = Prng.create ~seed:"rsa-serde" in
  let key = Rsa.generate ~bits:512 rng in
  let s = Rsa.public_to_string key.public in
  (match Rsa.public_of_string s with
  | Some pub ->
    Alcotest.check bn "n roundtrips" key.public.n pub.n;
    Alcotest.check bn "e roundtrips" key.public.e pub.e
  | None -> Alcotest.fail "deserialization failed");
  Alcotest.(check bool) "garbage rejected" true (Rsa.public_of_string "nope" = None);
  Alcotest.(check int) "fingerprint length" 16
    (String.length (Rsa.fingerprint key.public))

(* ------------------------------------------------------------------ *)
(* AEAD                                                               *)
(* ------------------------------------------------------------------ *)

let test_aead_roundtrip () =
  let key = Aead.key_of_string "master secret" in
  let rng = Prng.create ~seed:"nonces" in
  let nonce = Aead.random_nonce rng in
  let blob = Aead.encrypt key ~nonce ~ad:"hdr" "confidential medical record" in
  Alcotest.(check (option string)) "decrypts" (Some "confidential medical record")
    (Aead.decrypt key ~ad:"hdr" blob);
  Alcotest.(check (option string)) "wrong ad fails" None
    (Aead.decrypt key ~ad:"other" blob);
  Alcotest.(check (option string)) "wrong key fails" None
    (Aead.decrypt (Aead.key_of_string "other") ~ad:"hdr" blob);
  let tampered =
    String.mapi
      (fun i c -> if i = String.length blob - 40 then Char.chr (Char.code c lxor 1) else c)
      blob
  in
  Alcotest.(check (option string)) "tamper detected" None
    (Aead.decrypt key ~ad:"hdr" tampered);
  Alcotest.(check (option string)) "truncated rejected" None
    (Aead.decrypt key ~ad:"hdr" (String.sub blob 0 20))

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead roundtrip" ~count:100
    QCheck.(pair string string)
    (fun (secret, pt) ->
      let key = Aead.key_of_string secret in
      let nonce = String.make 12 '\x01' in
      Aead.decrypt key (Aead.encrypt key ~nonce pt) = Some pt)

(* ------------------------------------------------------------------ *)
(* Merkle                                                             *)
(* ------------------------------------------------------------------ *)

let test_merkle_empty_and_single () =
  let empty = Merkle.of_leaves [] in
  let single = Merkle.of_leaves [ "only" ] in
  Alcotest.(check int) "empty size" 0 (Merkle.size empty);
  Alcotest.(check bool) "roots differ" false (Merkle.root empty = Merkle.root single);
  Alcotest.(check bool) "no proof in empty" true (Merkle.prove empty 0 = None)

let test_merkle_proofs () =
  let leaves = List.init 7 (fun i -> Printf.sprintf "leaf-%d" i) in
  let tree = Merkle.of_leaves leaves in
  let root = Merkle.root tree in
  List.iteri
    (fun i leaf ->
      match Merkle.prove tree i with
      | None -> Alcotest.failf "no proof for %d" i
      | Some proof ->
        Alcotest.(check bool) (Printf.sprintf "proof %d verifies" i) true
          (Merkle.verify ~root ~size:7 ~leaf proof);
        Alcotest.(check bool) (Printf.sprintf "proof %d rejects other leaf" i) false
          (Merkle.verify ~root ~size:7 ~leaf:"forged" proof))
    leaves;
  Alcotest.(check bool) "out of range" true (Merkle.prove tree 7 = None)

let test_merkle_root_changes_with_leaves () =
  let t1 = Merkle.of_leaves [ "a"; "b"; "c" ] in
  let t2 = Merkle.of_leaves [ "a"; "b"; "d" ] in
  let t3 = Merkle.of_leaves [ "a"; "b" ] in
  Alcotest.(check bool) "leaf change" false (Merkle.root t1 = Merkle.root t2);
  Alcotest.(check bool) "leaf count" false (Merkle.root t1 = Merkle.root t3)

(* For every size up to 600, a frontier over a prefix reproduces the
   full tree's root, and proofs for the leaves after the prefix are the
   full tree's own proofs; its peaks round-trip. *)
let test_merkle_frontier_matches_tree () =
  let leaves = Array.init 600 (Printf.sprintf "leaf-%d") in
  let hashes = Array.map Merkle.leaf_hash leaves in
  let prefix = Array.make 601 Merkle.frontier_empty in
  for k = 1 to 600 do
    prefix.(k) <- Merkle.frontier_push prefix.(k - 1) hashes.(k - 1)
  done;
  for n = 0 to 600 do
    let tree = Merkle.of_leaves (Array.to_list (Array.sub leaves 0 n)) in
    let full = prefix.(n) in
    Alcotest.(check int) "size" n (Merkle.frontier_size full);
    Alcotest.(check string) (Printf.sprintf "root at %d" n) (Merkle.root tree)
      (Merkle.frontier_root full);
    (match Merkle.frontier_of_peaks ~size:n (Merkle.frontier_peaks full) with
    | Some f -> Alcotest.(check string) "peaks round-trip" (Merkle.root tree) (Merkle.frontier_root f)
    | None -> Alcotest.failf "peaks of %d refused" n);
    for suffix = 0 to min n 9 do
      let base = prefix.(n - suffix) in
      let tail = Array.to_list (Array.sub hashes (n - suffix) suffix) in
      for i = n - suffix - 1 to n do
        let expected = if i >= n - suffix then Merkle.prove tree i else None in
        if Merkle.prove_extension base tail i <> expected then
          Alcotest.failf "proof of %d over %d+%d differs" i (n - suffix) suffix
      done
    done
  done;
  Alcotest.(check bool) "peak count checked" true
    (Merkle.frontier_of_peaks ~size:3 [ String.make 32 'a' ] = None)

let test_merkle_multiset_digest () =
  let h = Array.init 5 (fun i -> Merkle.leaf_hash (string_of_int i)) in
  let sum l = List.fold_left Merkle.multiset_add Merkle.multiset_zero l in
  Alcotest.(check string) "order-independent"
    (sum [ h.(0); h.(1); h.(2) ]) (sum [ h.(2); h.(0); h.(1) ]);
  Alcotest.(check bool) "multiplicity counts" false
    (sum [ h.(0); h.(0) ] = sum [ h.(0) ]);
  Alcotest.(check string) "carries wrap mod 2^256" Merkle.multiset_zero
    (Merkle.multiset_add (String.make 31 '\xff' ^ "\xff") (String.make 31 '\000' ^ "\001"))

let prop_merkle_all_proofs_verify =
  QCheck.Test.make ~name:"merkle proofs verify" ~count:50
    QCheck.(list_of_size Gen.(1 -- 33) string)
    (fun leaves ->
      let tree = Merkle.of_leaves leaves in
      let root = Merkle.root tree in
      let size = Merkle.size tree in
      List.for_all
        (fun i ->
          match Merkle.prove tree i with
          | None -> false
          | Some proof ->
            Merkle.verify ~root ~size ~leaf:(List.nth leaves i) proof)
        (List.init (List.length leaves) Fun.id))

(* The size-aware verifier recomputes the expected proof shape from
   (size, index), so every structural mutation — wrong index, stripped
   path element, swapped sibling side, corrupted root — must fail, even
   when all leaves are identical (where content alone could not tell
   positions apart). *)
let prop_merkle_mutations_rejected =
  QCheck.Test.make ~name:"merkle mutated proofs rejected" ~count:100
    QCheck.(pair (list_of_size Gen.(2 -- 33) string) (int_bound 10_000))
    (fun (leaves, salt) ->
      let tree = Merkle.of_leaves leaves in
      let root = Merkle.root tree in
      let size = Merkle.size tree in
      let i = salt mod size in
      match Merkle.prove tree i with
      | None -> false
      | Some proof ->
        let leaf = List.nth leaves i in
        let ok = Merkle.verify ~root ~size ~leaf proof in
        let wrong_index =
          Merkle.verify ~root ~size ~leaf
            { proof with Merkle.index = (i + 1) mod size }
        in
        let stripped =
          match proof.Merkle.path with
          | [] -> false (* size >= 2: never empty *)
          | _ :: rest ->
            Merkle.verify ~root ~size ~leaf { proof with Merkle.path = rest }
        in
        let swapped =
          match proof.Merkle.path with
          | [] -> false
          | (h, side) :: rest ->
            let side = match side with `Left -> `Right | `Right -> `Left in
            Merkle.verify ~root ~size ~leaf
              { proof with Merkle.path = (h, side) :: rest }
        in
        let bad_root =
          let b = Bytes.of_string root in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
          Merkle.verify ~root:(Bytes.to_string b) ~size ~leaf proof
        in
        ok && (not wrong_index) && (not stripped) && (not swapped)
        && not bad_root)

(* ------------------------------------------------------------------ *)
(* GF(256) and polynomials                                            *)
(* ------------------------------------------------------------------ *)

let test_gf256_axioms () =
  (* AES's canonical example: 0x53 * 0xCA = 0x01 (they are inverses). *)
  Alcotest.(check int) "known product" 0x01 (Gf256.mul 0x53 0xca);
  Alcotest.(check int) "mul identity" 0x57 (Gf256.mul 0x57 1);
  Alcotest.(check int) "mul zero" 0 (Gf256.mul 0x57 0);
  Alcotest.(check int) "add self cancels" 0 (Gf256.add 0xab 0xab);
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Gf256.inv 0));
  for a = 1 to 255 do
    if Gf256.mul a (Gf256.inv a) <> 1 then Alcotest.failf "inv broken at %d" a
  done

let prop_gf256_mul_assoc_comm =
  QCheck.Test.make ~name:"gf256 mul associative+commutative" ~count:300
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) ->
      Gf256.mul a b = Gf256.mul b a
      && Gf256.mul a (Gf256.mul b c) = Gf256.mul (Gf256.mul a b) c)

let prop_gf256_distributive =
  QCheck.Test.make ~name:"gf256 distributive" ~count:300
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) ->
      Gf256.mul a (Gf256.add b c) = Gf256.add (Gf256.mul a b) (Gf256.mul a c))

let prop_gf256_pow =
  QCheck.Test.make ~name:"gf256 pow = repeated mul" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 10))
    (fun (a, k) ->
      let naive = ref 1 in
      for _ = 1 to k do
        naive := Gf256.mul !naive a
      done;
      Gf256.pow a k = !naive)

let test_gf_poly_interpolate () =
  (* p(x) = 7 + 3x + x^2 over GF(256). *)
  let p = [| 7; 3; 1 |] in
  let points = List.map (fun x -> (x, Gf_poly.eval p x)) [ 1; 2; 3 ] in
  Alcotest.(check (array int)) "coefficients recovered" p (Gf_poly.interpolate points);
  Alcotest.(check int) "interpolate_at matches" (Gf_poly.eval p 0)
    (Gf_poly.interpolate_at points 0);
  Alcotest.check_raises "duplicate x" (Invalid_argument "Gf_poly: duplicate x values")
    (fun () -> ignore (Gf_poly.interpolate [ (1, 2); (1, 3) ]))

let prop_gf_poly_roundtrip =
  QCheck.Test.make ~name:"interpolate(eval) = id" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (int_bound 255))
    (fun coeffs ->
      let p = Array.of_list coeffs in
      let k = Array.length p in
      let points = List.init k (fun i -> (i + 1, Gf_poly.eval p (i + 1))) in
      let q = Gf_poly.interpolate points in
      (* Compare as polynomials: same evaluations everywhere relevant. *)
      List.for_all (fun x -> Gf_poly.eval p x = Gf_poly.eval q x)
        (List.init 20 (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Shamir                                                             *)
(* ------------------------------------------------------------------ *)

let test_shamir_roundtrip () =
  let rng = Prng.create ~seed:"shamir" in
  let secret = "the family master key 0123456789" in
  let shares = Shamir.split rng ~threshold:3 ~shares:5 secret in
  Alcotest.(check int) "five shares" 5 (List.length shares);
  (* Any 3 reconstruct. *)
  let subsets = [ [ 0; 1; 2 ]; [ 0; 2; 4 ]; [ 2; 3; 4 ]; [ 4; 1; 3 ] ] in
  List.iter
    (fun idxs ->
      let picked = List.map (List.nth shares) idxs in
      Alcotest.(check (option string)) "reconstructs" (Some secret)
        (Shamir.combine ~threshold:3 picked))
    subsets;
  (* 2 shares are not enough. *)
  Alcotest.(check (option string)) "threshold enforced" None
    (Shamir.combine ~threshold:3 [ List.nth shares 0; List.nth shares 1 ]);
  (* Duplicate share does not help. *)
  Alcotest.(check (option string)) "duplicates rejected" None
    (Shamir.combine ~threshold:3
       [ List.nth shares 0; List.nth shares 0; List.nth shares 1 ])

let test_shamir_share_serde () =
  let rng = Prng.create ~seed:"shamir-serde" in
  let shares = Shamir.split rng ~threshold:2 ~shares:3 "secret" in
  List.iter
    (fun s ->
      match Shamir.share_of_string (Shamir.share_to_string s) with
      | Some s' ->
        Alcotest.(check int) "x" s.Shamir.x s'.Shamir.x;
        Alcotest.(check string) "data" s.Shamir.data s'.Shamir.data
      | None -> Alcotest.fail "serde failed")
    shares;
  Alcotest.(check bool) "empty rejected" true (Shamir.share_of_string "" = None)

let prop_shamir_roundtrip =
  QCheck.Test.make ~name:"shamir any-k-of-n roundtrip" ~count:60
    QCheck.(triple string (int_range 1 5) (int_range 0 4))
    (fun (secret, threshold, extra) ->
      let shares_n = threshold + extra in
      let rng = Prng.create ~seed:(secret ^ "|" ^ string_of_int shares_n) in
      let shares = Shamir.split rng ~threshold ~shares:shares_n secret in
      (* Take the *last* threshold shares (not just the first ones). *)
      let picked =
        List.filteri (fun i _ -> i >= shares_n - threshold) shares
      in
      Shamir.combine ~threshold picked = Some secret)

(* ------------------------------------------------------------------ *)
(* Information dispersal                                              *)
(* ------------------------------------------------------------------ *)

(* Decode from an explicit list of fragment positions (0-based). *)
let ida_pick pieces idxs = List.map (fun i -> (i + 1, pieces.(i))) idxs

let test_ida_roundtrip () =
  let value = String.init 1000 (fun i -> Char.chr (i * 7 mod 256)) in
  let pieces = Ida.split_stripe ~k:3 ~n:7 value in
  Alcotest.(check int) "seven fragments" 7 (Array.length pieces);
  (* Fragment size ~ |value|/k. *)
  Alcotest.(check int) "fragment size" ((1000 + 2) / 3) (String.length pieces.(0));
  let subsets = [ [ 0; 1; 2 ]; [ 4; 5; 6 ]; [ 0; 3; 6 ]; [ 6; 2; 4 ] ] in
  List.iter
    (fun idxs ->
      Alcotest.(check (option string)) "reconstructs" (Some value)
        (Ida.reconstruct_stripe ~k:3 ~len:1000 (ida_pick pieces idxs)))
    subsets;
  Alcotest.(check (option string)) "k-1 insufficient" None
    (Ida.reconstruct_stripe ~k:3 ~len:1000 (ida_pick pieces [ 0; 1 ]))

let test_ida_edge_cases () =
  let roundtrip ~k ~n value idxs =
    let pieces = Ida.split_stripe ~k ~n value in
    Ida.reconstruct_stripe ~k ~len:(String.length value) (ida_pick pieces idxs)
  in
  Alcotest.(check (option string)) "empty roundtrip" (Some "")
    (roundtrip ~k:2 ~n:3 "" [ 0; 1 ]);
  Alcotest.(check (option string)) "value shorter than k" (Some "ab")
    (roundtrip ~k:4 ~n:5 "ab" [ 1; 2; 3; 4 ]);
  (* k = 1 degenerates to replication. *)
  Alcotest.(check (option string)) "k=1" (Some "solo")
    (roundtrip ~k:1 ~n:3 "solo" [ 2 ]);
  Alcotest.check_raises "bad k"
    (Invalid_argument "Ida.split_stripe: need 1 <= k <= n <= 255")
    (fun () -> ignore (Ida.split_stripe ~k:5 ~n:3 "x"))

let prop_ida_stripe_roundtrip =
  QCheck.Test.make ~name:"ida stripe any-k-of-n roundtrip" ~count:120
    QCheck.(triple (string_of_size Gen.(0 -- 200)) (int_range 1 6) (int_range 0 5))
    (fun (value, k, extra) ->
      let n = k + extra in
      let len = String.length value in
      let width = if len = 0 then 0 else (len + k - 1) / k in
      let pieces = Ida.split_stripe ~k ~n value in
      let indexed = Array.to_list (Array.mapi (fun i p -> (i + 1, p)) pieces) in
      let picked = List.filteri (fun i _ -> i >= n - k) indexed in
      Array.length pieces = n
      && Array.for_all (fun p -> String.length p = width) pieces
      && Ida.reconstruct_stripe ~k ~len picked = Some value
      && Ida.reconstruct_stripe ~k ~len indexed = Some value)

let prop_ida_stripe_insufficient =
  QCheck.Test.make ~name:"ida stripe k-1 pieces fail" ~count:60
    QCheck.(pair (string_of_size Gen.(1 -- 120)) (int_range 2 6))
    (fun (value, k) ->
      let pieces = Ida.split_stripe ~k ~n:(k + 2) value in
      let indexed = Array.to_list (Array.mapi (fun i p -> (i + 1, p)) pieces) in
      let few = List.filteri (fun i _ -> i < k - 1) indexed in
      Ida.reconstruct_stripe ~k ~len:(String.length value) few = None)

let prop_ida_stripe_streaming_equiv =
  (* Encoding stripe by stripe and concatenating the pieces per index,
     then decoding stripe by stripe from any k of the concatenated
     streams, reproduces the value — the invariant the chunked live
     transport relies on. *)
  QCheck.Test.make ~name:"ida striping streams" ~count:60
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_range 1 4))
    (fun (value, k) ->
      let n = k + 2 in
      let stripe = k * 8 in
      let len = String.length value in
      let bufs = Array.init n (fun _ -> Buffer.create 64) in
      let off = ref 0 in
      while !off < len do
        let l = min stripe (len - !off) in
        let pieces = Ida.split_stripe ~k ~n (String.sub value !off l) in
        Array.iteri (fun i p -> Buffer.add_string bufs.(i) p) pieces;
        off := !off + l
      done;
      let out = Buffer.create len in
      let good = ref true in
      let foff = ref 0 and voff = ref 0 in
      while !voff < len && !good do
        let l = min stripe (len - !voff) in
        let width = (l + k - 1) / k in
        let pieces =
          (* decode from the LAST k streams: any k indices must do *)
          List.init k (fun j ->
              let i = n - k + j in
              (i + 1, Buffer.sub bufs.(i) !foff width))
        in
        (match Ida.reconstruct_stripe ~k ~len:l pieces with
        | Some s -> Buffer.add_string out s
        | None -> good := false);
        foff := !foff + width;
        voff := !voff + l
      done;
      !good && Buffer.contents out = value)

(* ------------------------------------------------------------------ *)
(* Key tree (LKH group key management)                                *)
(* ------------------------------------------------------------------ *)

let leaf_key_of name = Sha256.digest ("leaf:" ^ name)

let test_keytree_join_and_agree () =
  let mgr = Keytree.create_manager ~capacity:8 ~seed:"kt" in
  let names = [ "a"; "b"; "c"; "d"; "e" ] in
  let views =
    List.map
      (fun name -> Keytree.create_member ~name ~leaf_key:(leaf_key_of name))
      names
  in
  (* Each join broadcast goes to everyone (including earlier members). *)
  List.iter
    (fun name ->
      let msgs = Keytree.join mgr ~name ~leaf_key:(leaf_key_of name) in
      List.iter (fun v -> Keytree.apply v msgs) views)
    names;
  let gk = Keytree.group_key mgr in
  List.iter2
    (fun name view ->
      Alcotest.(check (option string)) (name ^ " has the group key") (Some gk)
        (Keytree.member_group_key view))
    names views;
  Alcotest.(check int) "member count" 5 (List.length (Keytree.members mgr))

let test_keytree_eviction () =
  let mgr = Keytree.create_manager ~capacity:8 ~seed:"kt2" in
  let names = [ "a"; "b"; "c"; "d" ] in
  let views =
    List.map (fun n -> (n, Keytree.create_member ~name:n ~leaf_key:(leaf_key_of n))) names
  in
  List.iter
    (fun n ->
      let msgs = Keytree.join mgr ~name:n ~leaf_key:(leaf_key_of n) in
      List.iter (fun (_, v) -> Keytree.apply v msgs) views)
    names;
  let old_key = Keytree.group_key mgr in
  let msgs = Keytree.leave mgr ~name:"b" in
  List.iter (fun (_, v) -> Keytree.apply v msgs) views;
  let new_key = Keytree.group_key mgr in
  Alcotest.(check bool) "key rotated" false (old_key = new_key);
  List.iter
    (fun (n, v) ->
      if n = "b" then
        Alcotest.(check bool) "evicted member locked out" false
          (Keytree.member_group_key v = Some new_key)
      else
        Alcotest.(check (option string)) (n ^ " follows rotation") (Some new_key)
          (Keytree.member_group_key v))
    views;
  Alcotest.check_raises "unknown member" Not_found (fun () ->
      ignore (Keytree.leave mgr ~name:"nobody"))

let test_keytree_backward_secrecy () =
  (* A member joining later never learns keys distributed before it:
     join re-keys the path, so the pre-join group key stays unknown. *)
  let mgr = Keytree.create_manager ~capacity:4 ~seed:"kt3" in
  ignore (Keytree.join mgr ~name:"a" ~leaf_key:(leaf_key_of "a"));
  let old_key = Keytree.group_key mgr in
  let late = Keytree.create_member ~name:"z" ~leaf_key:(leaf_key_of "z") in
  let msgs = Keytree.join mgr ~name:"z" ~leaf_key:(leaf_key_of "z") in
  Keytree.apply late msgs;
  Alcotest.(check bool) "new key learned" true
    (Keytree.member_group_key late = Some (Keytree.group_key mgr));
  Alcotest.(check bool) "old key not learned" false
    (Keytree.member_group_key late = Some old_key)

let test_keytree_log_n_messages () =
  let capacity = 64 in
  let mgr = Keytree.create_manager ~capacity ~seed:"kt4" in
  for i = 1 to capacity do
    ignore (Keytree.join mgr ~name:(string_of_int i) ~leaf_key:(leaf_key_of (string_of_int i)))
  done;
  let msgs = Keytree.leave mgr ~name:"17" in
  (* A full binary tree of 64 leaves has depth 6: at most 2 messages per
     re-keyed level — O(log n), not O(n). *)
  Alcotest.(check bool)
    (Printf.sprintf "rekey broadcast is %d msgs <= 12" (List.length msgs))
    true
    (List.length msgs <= 12)

let test_keytree_capacity () =
  let mgr = Keytree.create_manager ~capacity:2 ~seed:"kt5" in
  ignore (Keytree.join mgr ~name:"a" ~leaf_key:"ka");
  ignore (Keytree.join mgr ~name:"b" ~leaf_key:"kb");
  Alcotest.check_raises "full" (Invalid_argument "Keytree.join: group full")
    (fun () -> ignore (Keytree.join mgr ~name:"c" ~leaf_key:"kc"));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Keytree.join: member already present: a") (fun () ->
      ignore (Keytree.join mgr ~name:"a" ~leaf_key:"ka"))

let prop_keytree_random_churn =
  QCheck.Test.make ~name:"keytree agreement under random churn" ~count:25
    QCheck.(list_of_size Gen.(5 -- 40) (pair bool (int_bound 7)))
    (fun ops ->
      let mgr = Keytree.create_manager ~capacity:8 ~seed:"churn" in
      let pool = Array.init 8 (fun i -> "m" ^ string_of_int i) in
      let views = Hashtbl.create 8 in
      let current = Hashtbl.create 8 in
      let broadcast msgs =
        Hashtbl.iter (fun _ v -> Keytree.apply v msgs) views
      in
      List.iter
        (fun (join, idx) ->
          let name = pool.(idx) in
          if join && not (Hashtbl.mem current name) then begin
            if not (Hashtbl.mem views name) then
              Hashtbl.replace views name
                (Keytree.create_member ~name ~leaf_key:(leaf_key_of name));
            (* A rejoining member must not reuse stale state. *)
            Hashtbl.replace views name
              (Keytree.create_member ~name ~leaf_key:(leaf_key_of name));
            broadcast (Keytree.join mgr ~name ~leaf_key:(leaf_key_of name));
            Hashtbl.replace current name ()
          end
          else if (not join) && Hashtbl.mem current name then begin
            broadcast (Keytree.leave mgr ~name);
            Hashtbl.remove current name
          end)
        ops;
      let gk = Keytree.group_key mgr in
      Hashtbl.fold
        (fun name () acc ->
          acc && Keytree.member_group_key (Hashtbl.find views name) = Some gk)
        current true)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "crypto"
    [
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
        ]
        @ qsuite [ prop_hex_roundtrip ] );
      ( "sha256",
        [
          Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "finalized guard" `Quick test_sha256_finalized_guard;
        ]
        @ qsuite [ prop_sha256_chunking ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "block vector" `Quick test_chacha20_block;
          Alcotest.test_case "encrypt vector" `Quick test_chacha20_encrypt;
        ]
        @ qsuite [ prop_chacha20_involution ] );
      ( "bignum",
        [
          Alcotest.test_case "basic" `Quick test_bignum_basic;
          Alcotest.test_case "bytes" `Quick test_bignum_bytes;
          Alcotest.test_case "bits" `Quick test_bignum_bits;
          Alcotest.test_case "divmod" `Quick test_bignum_divmod;
          Alcotest.test_case "modexp known" `Quick test_bignum_modexp_known;
          Alcotest.test_case "inverse" `Quick test_bignum_inverse;
          Alcotest.test_case "more edges" `Quick test_bignum_more_edges;
          Alcotest.test_case "mont ctx api" `Quick test_mont_ctx_api;
        ]
        @ qsuite
            [
              prop_add_commutes; prop_mul_commutes; prop_add_sub_roundtrip;
              prop_divmod_identity; prop_shift_roundtrip; prop_bytes_roundtrip;
              prop_modexp_matches_naive; prop_windowed_modexp_matches_binary;
              prop_mod_int_matches;
            ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "int_below" `Quick test_prng_int_below;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "float_unit" `Quick test_prng_float_unit;
          Alcotest.test_case "edges" `Quick test_prng_edges;
        ] );
      ( "prime",
        [
          Alcotest.test_case "table" `Quick test_small_primes_table;
          Alcotest.test_case "known primes" `Quick test_known_primes;
          Alcotest.test_case "carmichael" `Quick test_carmichael_rejected;
          Alcotest.test_case "generate" `Quick test_generate_prime;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "cross key" `Quick test_rsa_cross_key;
          Alcotest.test_case "key consistency" `Quick test_rsa_key_internal_consistency;
          Alcotest.test_case "crt = plain" `Quick test_rsa_crt_matches_plain;
          Alcotest.test_case "public serde" `Quick test_rsa_public_serialization;
          Alcotest.test_case "concurrent signing" `Quick test_rsa_concurrent_signing;
        ]
        @ qsuite [ prop_rsa_crt_roundtrip ] );
      ( "aead",
        [
          Alcotest.test_case "roundtrip" `Quick test_aead_roundtrip;
        ]
        @ qsuite [ prop_aead_roundtrip ] );
      ( "gf256",
        [
          Alcotest.test_case "axioms" `Quick test_gf256_axioms;
          Alcotest.test_case "interpolation" `Quick test_gf_poly_interpolate;
        ]
        @ qsuite
            [
              prop_gf256_mul_assoc_comm; prop_gf256_distributive; prop_gf256_pow;
              prop_gf_poly_roundtrip;
            ] );
      ( "shamir",
        [
          Alcotest.test_case "roundtrip" `Quick test_shamir_roundtrip;
          Alcotest.test_case "serde" `Quick test_shamir_share_serde;
        ]
        @ qsuite [ prop_shamir_roundtrip ] );
      ( "ida",
        [
          Alcotest.test_case "roundtrip" `Quick test_ida_roundtrip;
          Alcotest.test_case "edge cases" `Quick test_ida_edge_cases;
        ]
        @ qsuite
            [
              prop_ida_stripe_roundtrip;
              prop_ida_stripe_insufficient;
              prop_ida_stripe_streaming_equiv;
            ] );
      ( "keytree",
        [
          Alcotest.test_case "join & agree" `Quick test_keytree_join_and_agree;
          Alcotest.test_case "eviction" `Quick test_keytree_eviction;
          Alcotest.test_case "backward secrecy" `Quick test_keytree_backward_secrecy;
          Alcotest.test_case "O(log n) rekey" `Quick test_keytree_log_n_messages;
          Alcotest.test_case "capacity" `Quick test_keytree_capacity;
        ]
        @ qsuite [ prop_keytree_random_churn ] );
      ( "merkle",
        [
          Alcotest.test_case "empty/single" `Quick test_merkle_empty_and_single;
          Alcotest.test_case "proofs" `Quick test_merkle_proofs;
          Alcotest.test_case "root sensitivity" `Quick test_merkle_root_changes_with_leaves;
          Alcotest.test_case "frontier = tree" `Quick test_merkle_frontier_matches_tree;
          Alcotest.test_case "multiset digest" `Quick test_merkle_multiset_digest;
        ]
        @ qsuite
            [ prop_merkle_all_proofs_verify; prop_merkle_mutations_rejected ] );
    ]
