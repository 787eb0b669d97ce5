(* The experiment drivers are part of the deliverable (they regenerate
   the paper's evaluation), so they are tested like everything else:
   fast experiments run for real and their measured columns must equal
   the paper's closed forms. *)

let find_col (t : Workload.Table.t) name =
  let rec idx i = function
    | [] -> Alcotest.failf "no column %s in %s" name t.Workload.Table.id
    | h :: _ when h = name -> i
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 t.Workload.Table.header

let cell t row col_name = List.nth row (find_col t col_name)

let test_e1_matches_formula () =
  let t = Workload.Experiments.e1_context_messages () in
  Alcotest.(check bool) "has rows" true (List.length t.Workload.Table.rows >= 4);
  List.iter
    (fun row ->
      Alcotest.(check string) "read msgs = paper" (cell t row "paper 2q")
        (cell t row "read msgs");
      Alcotest.(check string) "store msgs = paper" (cell t row "paper 2q")
        (cell t row "store msgs"))
    t.Workload.Table.rows

let test_e2_single_sign () =
  let t = Workload.Experiments.e2_context_crypto () in
  List.iter
    (fun row ->
      Alcotest.(check string) "1 sign" "1" (cell t row "store signs");
      Alcotest.(check string) "1 read verify" "1" (cell t row "read verifies");
      Alcotest.(check string) "q server verifies" (cell t row "q")
        (cell t row "store srv-verifies"))
    t.Workload.Table.rows

let test_e3_matches_formula () =
  let t = Workload.Experiments.e3_data_costs () in
  List.iter
    (fun row ->
      Alcotest.(check string) "write = b+1" (cell t row "paper b+1")
        (cell t row "write msgs");
      Alcotest.(check string) "read formula" (cell t row "paper 2(b+1)")
        (cell t row "read msgs"))
    t.Workload.Table.rows

let test_e4_matches_formula () =
  let t = Workload.Experiments.e4_multi_writer_costs () in
  List.iter
    (fun row ->
      Alcotest.(check string) "write = 2b+1" (cell t row "paper 2b+1")
        (cell t row "write msgs");
      Alcotest.(check string) "no client verify" "0" (cell t row "read verifies"))
    t.Workload.Table.rows

let test_e6_matches_formula () =
  let t = Workload.Experiments.e6_pbft_messages () in
  List.iter
    (fun row ->
      Alcotest.(check string) "pbft O(n^2)" (cell t row "formula")
        (cell t row "msgs/op"))
    t.Workload.Table.rows

let test_e8b_guard () =
  let t = Workload.Experiments.e8b_spurious_context () in
  match t.Workload.Table.rows with
  | [ off_row; on_row ] ->
    Alcotest.(check string) "guard-off poisoned ctx" "yes"
      (cell t off_row "reader ctx poisoned");
    Alcotest.(check string) "guard-off DoS on dep" "(stale forever: DoS)"
      (cell t off_row "dep read");
    Alcotest.(check string) "guard-on clean ctx" "no"
      (cell t on_row "reader ctx poisoned");
    Alcotest.(check string) "guard-on invisible" "(not visible)"
      (cell t on_row "doc read");
    Alcotest.(check string) "guard-on dep readable" "base" (cell t on_row "dep read")
  | _ -> Alcotest.fail "expected exactly two rows"

let test_e8_no_violations () =
  let t = Workload.Experiments.e8_fault_injection ~seed:3 () in
  List.iter
    (fun row ->
      Alcotest.(check string) "no MRC violations" "0" (cell t row "MRC violations");
      Alcotest.(check string) "no integrity violations" "0"
        (cell t row "integrity violations"))
    t.Workload.Table.rows

(* E12's rows must measure what they are named: replication rows keep
   b+1 whole copies at every size (the client's dispersal threshold must
   not turn them into coded writes), and coded rows store less than
   replication and gather only k fragments, not all n. *)
let test_e12_strategies () =
  let n = 7 and b = 2 in
  let t = Workload.Experiments.e12_dispersal () in
  let num row col = int_of_string (cell t row col) in
  let size row =
    match cell t row "value" with
    | "1 KiB" -> 1024
    | "64 KiB" -> 65536
    | "1 MiB" -> 1 lsl 20
    | s -> Alcotest.failf "unknown size %s" s
  in
  let rows strategy =
    List.filter
      (fun row -> String.starts_with ~prefix:strategy (cell t row "strategy"))
      t.Workload.Table.rows
  in
  let replication = rows "replication" and coded = rows "dispersal" in
  Alcotest.(check int) "three sizes each" 6
    (List.length replication + List.length coded);
  List.iter2
    (fun r c ->
      let size = size r in
      let what fmt = Printf.sprintf ("%d B: " ^^ fmt) size in
      Alcotest.(check bool) (what "replication writes b+1 copies") true
        (num r "write bytes" >= (b + 1) * size);
      Alcotest.(check bool) (what "replication stores b+1 copies") true
        (num r "stored bytes" >= (b + 1) * size);
      Alcotest.(check bool) (what "coded stores less than replication") true
        (num c "stored bytes" < num r "stored bytes");
      Alcotest.(check bool) (what "coded read gathers k of n fragments") true
        (num c "read bytes" * (b + 1) < n * size);
      (* at 1 KiB, the descriptor's n digests and the rounds' framing
         add about half the value *)
      if size >= 65536 then
        Alcotest.(check bool) (what "coded read at most 1.1x the value") true
          (num c "read bytes" * 10 <= size * 11))
    replication coded

let test_table_printing () =
  let t =
    {
      Workload.Table.id = "T";
      title = "test";
      header = [ "a"; "bee" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
      notes = [ "a note" ];
    }
  in
  let rendered = Format.asprintf "%a" Workload.Table.print t in
  Alcotest.(check bool) "mentions title" true
    (String.length rendered > 0
    &&
    let re = Str.regexp_string "test" in
    (try
       ignore (Str.search_forward re rendered 0);
       true
     with Not_found -> false))

let () =
  Alcotest.run "workload"
    [
      ( "experiments",
        [
          Alcotest.test_case "e1 formulas" `Quick test_e1_matches_formula;
          Alcotest.test_case "e2 crypto" `Quick test_e2_single_sign;
          Alcotest.test_case "e3 formulas" `Quick test_e3_matches_formula;
          Alcotest.test_case "e4 formulas" `Quick test_e4_matches_formula;
          Alcotest.test_case "e6 pbft" `Slow test_e6_matches_formula;
          Alcotest.test_case "e8 safety" `Slow test_e8_no_violations;
          Alcotest.test_case "e8b guard" `Quick test_e8b_guard;
          Alcotest.test_case "e12 strategies" `Quick test_e12_strategies;
        ] );
      ("table", [ Alcotest.test_case "printing" `Quick test_table_printing ]);
    ]
