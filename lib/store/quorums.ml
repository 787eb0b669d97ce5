let ceil_div a b = (a + b - 1) / b
let context_quorum ~n ~b = ceil_div (n + b + 1) 2
let write_set ~b = b + 1
let read_set ~b = b + 1
let mw_write_set ~b = (2 * b) + 1
let mw_read_quorum ~b = (2 * b) + 1
let mw_vouch ~b = b + 1
let masking_quorum ~n ~b = ceil_div (n + (2 * b) + 1) 2
let majority_quorum ~n = ceil_div (n + 1) 2
let context_overlap ~n ~b = (2 * context_quorum ~n ~b) - n
let max_b ~n = (n - 1) / 3

let validate ~n ~b =
  if n <= 0 then Error "need at least one server"
  else if b < 0 then Error "b must be non-negative"
  else if n < (3 * b) + 1 then
    Error (Printf.sprintf "n=%d cannot tolerate b=%d faults: need n >= 3b+1 = %d" n b ((3 * b) + 1))
  else Ok ()

type data_class = Single_writer | Multi_writer
type op = Context_read | Context_store | Write | Read_hit | Read_miss

type cost = {
  requests : int;
  replies : int;
  signs : int;
  server_verifies : int;
  client_verifies : int;
  digests : int;
}

let messages c = c.requests + c.replies

let cost op ~n ~b data_class =
  let mw = data_class = Multi_writer in
  let q = context_quorum ~n ~b in
  (* A multi-writer value is bound to its stamp by one digest: the
     writer's, or the reader's check of the vouched stamp. *)
  let data requests ~signs ~server_verifies ~client_verifies =
    let digests = if mw then 1 else 0 in
    { requests; replies = requests; signs; server_verifies; client_verifies; digests }
  in
  let read ~fetch =
    data ((if mw then mw_read_quorum ~b else read_set ~b) + fetch)
      ~signs:0 ~server_verifies:0 ~client_verifies:(if mw then 0 else 1)
  in
  match op with
  | Context_read ->
    { requests = q; replies = q; signs = 0; server_verifies = 0; client_verifies = 1; digests = 0 }
  | Context_store ->
    { requests = q; replies = q; signs = 1; server_verifies = q; client_verifies = 0; digests = 0 }
  | Write ->
    let k = if mw then mw_write_set ~b else write_set ~b in
    data k ~signs:1 ~server_verifies:k ~client_verifies:0
  | Read_hit -> read ~fetch:0
  | Read_miss -> read ~fetch:1
