open Wire

(* ------------------------------------------------------------------ *)
(* Primitive combinators                                               *)
(* ------------------------------------------------------------------ *)

let test_varint_edges () =
  List.iter
    (fun v ->
      let enc = Codec.encode (fun e v -> Codec.Enc.varint e v) v in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v
        (Codec.decode Codec.Dec.varint enc))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int / 2 ];
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Codec.Enc.varint: negative") (fun () ->
      ignore (Codec.encode (fun e v -> Codec.Enc.varint e v) (-1)))

let test_float_roundtrip () =
  List.iter
    (fun v ->
      let enc = Codec.encode (fun e v -> Codec.Enc.float e v) v in
      let v' = Codec.decode Codec.Dec.float enc in
      Alcotest.(check bool) (Printf.sprintf "float %g" v) true
        (v = v' || (Float.is_nan v && Float.is_nan v')))
    [ 0.0; -0.0; 1.5; -1e300; Float.nan; Float.infinity; Float.min_float ]

let test_string_and_containers () =
  let enc_payload e (s, opt, l, flag) =
    Codec.Enc.string e s;
    Codec.Enc.option e Codec.Enc.string opt;
    Codec.Enc.list e Codec.Enc.varint l;
    Codec.Enc.bool e flag
  in
  let dec_payload d =
    let s = Codec.Dec.string d in
    let opt = Codec.Dec.option d Codec.Dec.string in
    let l = Codec.Dec.list d Codec.Dec.varint in
    let flag = Codec.Dec.bool d in
    (s, opt, l, flag)
  in
  let v = ("hello\x00world", Some "x", [ 1; 2; 3; 0 ], true) in
  Alcotest.(check bool) "container roundtrip" true
    (Codec.decode dec_payload (Codec.encode enc_payload v) = v)

let test_malformed_inputs () =
  let check_error name input dec =
    match Codec.decode dec input with
    | exception Codec.Error _ -> ()
    | _ -> Alcotest.failf "%s: expected Codec.Error" name
  in
  check_error "truncated string" "\x05ab" Codec.Dec.string;
  check_error "trailing bytes" "\x01ab" Codec.Dec.string;
  check_error "bad option tag" "\x07" (fun d -> Codec.Dec.option d Codec.Dec.u8);
  check_error "bad bool" "\x02" Codec.Dec.bool;
  check_error "overlong varint" "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"
    Codec.Dec.varint;
  (* Regression: 8 continuation bytes then 0x61 overflowed the 63-bit
     int into a negative length (found by fuzzing). *)
  check_error "varint 63-bit overflow" "\x80\x80\x80\x80\x80\x80\x80\x80a"
    Codec.Dec.varint;
  check_error "negative string length"
    "\x80\x80\x80\x80\x80\x80\x80\x80a" Codec.Dec.string;
  check_error "list count overrun" "\xf0\x01" (fun d ->
      Codec.Dec.list d Codec.Dec.u8);
  Alcotest.(check bool) "decode_opt absorbs" true
    (Codec.decode_opt Codec.Dec.string "\x05ab" = None)

(* ------------------------------------------------------------------ *)
(* Fuzzing: decoders must never crash, whatever the bytes             *)
(* ------------------------------------------------------------------ *)

let prop_codec_fuzz =
  QCheck.Test.make ~name:"primitive decoders are total" ~count:500 QCheck.string
    (fun junk ->
      let safe dec = match Codec.decode dec junk with
        | _ -> true
        | exception Codec.Error _ -> true
      in
      safe Codec.Dec.varint
      && safe Codec.Dec.string
      && safe (fun d -> Codec.Dec.list d Codec.Dec.string)
      && safe (fun d -> Codec.Dec.option d Codec.Dec.float))

let prop_envelope_fuzz =
  QCheck.Test.make ~name:"store envelope decoder is total" ~count:500
    QCheck.string
    (fun junk ->
      match Store.Payload.decode_envelope junk with
      | Some _ | None -> true)

let prop_response_fuzz =
  QCheck.Test.make ~name:"store response decoder is total" ~count:500
    QCheck.string
    (fun junk ->
      match Store.Payload.decode_response junk with Some _ | None -> true)

(* Bit-flip fuzzing: valid envelopes with one corrupted byte must decode
   to None or to a *different* well-formed value, never crash. *)
let prop_envelope_bitflip =
  QCheck.Test.make ~name:"bit-flipped envelopes never crash" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos, bit) ->
      let uid = Store.Uid.make ~group:"g" ~item:"x" in
      let env =
        {
          Store.Payload.token = Some "token"; epoch = 0;
          request =
            Store.Payload.Write_req
              {
                Store.Payload.uid;
                stamp = Store.Stamp.scalar 42;
                wctx = None;
                value = "some value";
                writer = "alice";
                evidence = Store.Payload.Sig (String.make 64 's');
                frags = None;
              };
        }
      in
      let encoded = Store.Payload.encode_envelope env in
      let pos = pos mod String.length encoded in
      let flipped =
        String.mapi
          (fun i c ->
            if i = pos then Char.chr (Char.code c lxor (1 lsl (bit mod 8))) else c)
          encoded
      in
      match Store.Payload.decode_envelope flipped with Some _ | None -> true)

(* Fixed-width codec fields: exact round-trip, length enforcement on
   both sides. *)
let test_fixed_roundtrip () =
  let h = String.init 32 (fun i -> Char.chr (i * 7 mod 256)) in
  let encoded =
    Codec.encode
      (fun enc () ->
        Codec.Enc.fixed enc ~len:32 h;
        Codec.Enc.string enc "tail")
      ()
  in
  let h', tail =
    Codec.decode
      (fun dec ->
        let h' = Codec.Dec.fixed dec ~len:32 in
        (h', Codec.Dec.string dec))
      encoded
  in
  Alcotest.(check string) "fixed field" h h';
  Alcotest.(check string) "rest intact" "tail" tail;
  Alcotest.check_raises "wrong width rejected at encode"
    (Invalid_argument "Codec.Enc.fixed: expected 32 bytes, got 3") (fun () ->
      ignore (Codec.encode (fun enc () -> Codec.Enc.fixed enc ~len:32 "abc") ()));
  Alcotest.(check bool) "truncated input fails" true
    (match Codec.decode (fun dec -> Codec.Dec.fixed dec ~len:32) "short" with
    | _ -> false
    | exception Codec.Error _ -> true)

(* Every evidence form survives the write codec round-trip. *)
let test_evidence_roundtrip () =
  let uid = Store.Uid.make ~group:"g" ~item:"x" in
  let base evidence =
    {
      Store.Payload.uid;
      stamp = Store.Stamp.scalar 7;
      wctx = None;
      value = "v";
      writer = "alice";
      evidence;
      frags = None;
    }
  in
  let roundtrip w =
    let encoded =
      Codec.encode (fun enc () -> Store.Payload.encode_write enc w) ()
    in
    Codec.decode Store.Payload.decode_write encoded
  in
  let h i = String.make 32 (Char.chr i) in
  List.iter
    (fun w -> Alcotest.(check bool) "write round-trips" true (roundtrip w = w))
    [
      base (Store.Payload.Sig (String.make 64 's'));
      base
        (Store.Payload.Batch
           {
             root = h 1;
             size = 8;
             proof =
               {
                 Crypto.Merkle.index = 3;
                 path = [ (h 2, `Left); (h 3, `Right); (h 4, `Right) ];
               };
             root_sig = String.make 64 'r';
           });
      base (Store.Payload.Mac [ (0, h 5); (2, h 6); (3, h 7) ]);
    ]

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "varint edges" `Quick test_varint_edges;
          Alcotest.test_case "float" `Quick test_float_roundtrip;
          Alcotest.test_case "containers" `Quick test_string_and_containers;
          Alcotest.test_case "malformed" `Quick test_malformed_inputs;
          Alcotest.test_case "fixed fields" `Quick test_fixed_roundtrip;
          Alcotest.test_case "evidence forms" `Quick test_evidence_roundtrip;
        ] );
      ( "fuzz",
        qsuite
          [
            prop_codec_fuzz; prop_envelope_fuzz; prop_response_fuzz;
            prop_envelope_bitflip;
          ] );
    ]
