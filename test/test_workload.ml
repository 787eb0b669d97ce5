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

(* The paper's side of every cost table is [Store.Quorums.cost]: each
   listed column, measured or "paper", must equal what [expected] reads
   off the row's costs (messages are requests + replies; the paper
   counts a write one-way, its requests). *)
let num t row col = int_of_string (cell t row col)
let msgs = Store.Quorums.messages

let check_costs ?(data_class = Store.Quorums.Single_writer) ?(b = "b") t columns =
  List.iter
    (fun row ->
      let cost op = Store.Quorums.cost op ~n:(num t row "n") ~b:(num t row b) data_class in
      List.iter
        (fun (col, expected) -> Alcotest.(check int) col (expected cost) (num t row col))
        columns)
    t.Workload.Table.rows

let test_e1_matches_formula () =
  let t = Workload.Experiments.e1_context_messages () in
  Alcotest.(check bool) "has rows" true (List.length t.Workload.Table.rows >= 4);
  check_costs t
    [ ("read msgs", fun c -> msgs (c Context_read));
      ("store msgs", fun c -> msgs (c Context_store));
      ("paper 2q", fun c -> msgs (c Context_store)) ]

let test_e2_single_sign () =
  check_costs (Workload.Experiments.e2_context_crypto ())
    [ ("store signs", fun c -> (c Context_store).signs);
      ("store srv-verifies", fun c -> (c Context_store).server_verifies);
      ("read verifies", fun c -> (c Context_read).client_verifies);
      ("q", fun c -> (c Context_store).server_verifies) ]

let test_e3_matches_formula () =
  check_costs (Workload.Experiments.e3_data_costs ())
    [ ("write msgs", fun c -> msgs (c Write)); ("paper b+1", fun c -> (c Write).requests);
      ("signs", fun c -> (c Write).signs); ("srv-verifies", fun c -> (c Write).server_verifies);
      ("read msgs", fun c -> msgs (c Read_hit)); ("paper 2(b+1)", fun c -> msgs (c Read_hit));
      ("read verifies", fun c -> (c Read_hit).client_verifies) ]

let test_e4_matches_formula () =
  check_costs ~data_class:Multi_writer (Workload.Experiments.e4_multi_writer_costs ())
    [ ("write msgs", fun c -> msgs (c Write)); ("paper 2b+1", fun c -> (c Write).requests);
      ("read msgs", fun c -> msgs (c Read_hit)); ("paper 2(2b+1)", fun c -> msgs (c Read_hit));
      ("read verifies", fun c -> (c Read_hit).client_verifies);
      ("read digests", fun c -> (c Read_hit).digests) ]

let test_e6_matches_formula () =
  let t = Workload.Experiments.e6_pbft_messages () in
  List.iter
    (fun row ->
      Alcotest.(check string) "pbft O(n^2)" (cell t row "formula")
        (cell t row "msgs/op"))
    t.Workload.Table.rows;
  check_costs ~b:"f" t
    [ ("store write+read msgs", fun c -> msgs (c Write) + msgs (c Read_hit)) ]

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
  let num = num t in
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
