(* Client CLI for the networked secure store.

     # one-shot session: connect, write, disconnect
     dune exec bin/store_cli.exe -- write --servers 127.0.0.1:7000,... \
       --uid alice --group notes --item todo --value "buy milk"

     # read it back (a different session; the context comes from the store)
     dune exec bin/store_cli.exe -- read --servers ... --uid alice \
       --group notes --item todo

     # self-contained demo over real sockets
     dune exec bin/store_cli.exe -- demo *)

open Cmdliner

let endpoints_of servers =
  match Keys.parse_endpoints servers with
  | Some eps -> eps
  | None -> failwith "bad --servers (expected host:port,host:port,...)"

let session_config ~n ~b ~cc ~multi ~dispersal =
  let c = Store.Client.default_config ~n ~b in
  let c =
    {
      c with
      Store.Client.consistency = (if cc then Store.Client.CC else Store.Client.MRC);
      mode = (if multi then Store.Client.Multi_writer else Store.Client.Single_writer);
      timeout = 2.0;
    }
  in
  let threshold, chunk = dispersal in
  let c =
    match threshold with
    | Some t -> { c with Store.Client.dispersal_threshold = t }
    | None -> c
  in
  match chunk with
  | Some s -> { c with Store.Client.dispersal_chunk = s }
  | None -> c

let with_session ~servers ~b ~uid ~group ~cc ~multi ~dispersal fn =
  let eps = Array.of_list (endpoints_of servers) in
  let n = Array.length eps in
  let endpoints id = if id >= 0 && id < n then Some eps.(id) else None in
  let keyring = Keys.keyring [ uid ] in
  Tcpnet.Live.run ~endpoints (fun () ->
      match
        Store.Client.connect
          ~config:(session_config ~n ~b ~cc ~multi ~dispersal)
          ~uid ~key:(Keys.keypair uid) ~keyring ~group ()
      with
      | Error e -> failwith ("connect: " ^ Store.Client.error_to_string e)
      | Ok session ->
        let result = fn session in
        (match Store.Client.disconnect session with
        | Ok () -> ()
        | Error e ->
          Printf.eprintf "warning: context store failed: %s\n"
            (Store.Client.error_to_string e));
        result)

(* Coded bulk transport knobs (DESIGN.md section 13). The library
   defaults apply when a flag is absent; reads follow whatever the
   stored metadata says, so only the write side strictly needs them,
   but the chunk size also shapes fragment gathers. *)
let dispersal_term =
  let threshold =
    Arg.(value & opt (some int) None
         & info [ "dispersal-threshold" ]
             ~doc:"Disperse values of at least $(docv) bytes instead of \
                   replicating them (0 disables dispersal)." ~docv:"BYTES")
  in
  let chunk =
    Arg.(value & opt (some int) None
         & info [ "dispersal-chunk" ]
             ~doc:"Fragment streaming chunk size in bytes." ~docv:"BYTES")
  in
  Term.(const (fun t c -> (t, c)) $ threshold $ chunk)

let write_cmd =
  let run servers b uid group item value cc multi dispersal =
    with_session ~servers ~b ~uid ~group ~cc ~multi ~dispersal
      (fun session ->
        match Store.Client.write session ~item value with
        | Ok () -> Printf.printf "ok\n"
        | Error e -> failwith (Store.Client.error_to_string e))
  in
  let servers = Arg.(required & opt (some string) None & info [ "servers" ] ~doc:"host:port,...") in
  let b = Arg.(value & opt int 1 & info [ "b" ] ~doc:"Fault bound.") in
  let uid = Arg.(value & opt string "alice" & info [ "uid" ] ~doc:"Client name.") in
  let group = Arg.(value & opt string "notes" & info [ "group" ] ~doc:"Item group.") in
  let item = Arg.(required & opt (some string) None & info [ "item" ] ~doc:"Item name.") in
  let value = Arg.(required & opt (some string) None & info [ "value" ] ~doc:"Value to write.") in
  let cc = Arg.(value & flag & info [ "cc" ] ~doc:"Causal consistency.") in
  let multi = Arg.(value & flag & info [ "multi" ] ~doc:"Multi-writer mode.") in
  Cmd.v (Cmd.info "write" ~doc:"Write a value")
    Term.(const run $ servers $ b $ uid $ group $ item $ value $ cc $ multi
          $ dispersal_term)

let read_cmd =
  let run servers b uid group item cc multi dispersal =
    with_session ~servers ~b ~uid ~group ~cc ~multi ~dispersal
      (fun session ->
        match Store.Client.read session ~item with
        | Ok v -> Printf.printf "%s\n" v
        | Error e -> failwith (Store.Client.error_to_string e))
  in
  let servers = Arg.(required & opt (some string) None & info [ "servers" ] ~doc:"host:port,...") in
  let b = Arg.(value & opt int 1 & info [ "b" ] ~doc:"Fault bound.") in
  let uid = Arg.(value & opt string "alice" & info [ "uid" ] ~doc:"Client name.") in
  let group = Arg.(value & opt string "notes" & info [ "group" ] ~doc:"Item group.") in
  let item = Arg.(required & opt (some string) None & info [ "item" ] ~doc:"Item name.") in
  let cc = Arg.(value & flag & info [ "cc" ] ~doc:"Causal consistency.") in
  let multi = Arg.(value & flag & info [ "multi" ] ~doc:"Multi-writer mode.") in
  Cmd.v (Cmd.info "read" ~doc:"Read a value")
    Term.(const run $ servers $ b $ uid $ group $ item $ cc $ multi
          $ dispersal_term)

(* Self-contained end-to-end demo: n servers on ephemeral localhost
   ports, gossip threads between them, and two client sessions over real
   sockets. *)
let demo_cmd =
  let run () =
    let n = 4 and b = 1 in
    let clients = [ "alice"; "bob" ] in
    let keyring = Keys.keyring clients in
    let servers =
      Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ())
    in
    let hosts =
      Array.map
        (fun server -> Tcpnet.Server_host.start ~server ~port:0 ())
        servers
    in
    let eps = Array.map (fun h -> ("127.0.0.1", Tcpnet.Server_host.port h)) hosts in
    Printf.printf "started %d servers on ports: %s\n%!" n
      (String.concat ", "
         (Array.to_list (Array.map (fun (_, p) -> string_of_int p) eps)));
    let endpoints id = if id >= 0 && id < n then Some eps.(id) else None in
    let config = { (Store.Client.default_config ~n ~b) with Store.Client.timeout = 2.0 } in
    Tcpnet.Live.run ~endpoints (fun () ->
        (match
           Store.Client.connect ~config ~uid:"alice" ~key:(Keys.keypair "alice")
             ~keyring ~group:"notes" ()
         with
        | Error e -> failwith (Store.Client.error_to_string e)
        | Ok alice ->
          (match Store.Client.write alice ~item:"todo" "ship the release" with
          | Ok () -> Printf.printf "alice wrote over TCP\n%!"
          | Error e -> failwith (Store.Client.error_to_string e));
          ignore (Store.Client.disconnect alice));
        match
          Store.Client.connect ~config ~uid:"bob" ~key:(Keys.keypair "bob")
            ~keyring ~group:"notes" ()
        with
        | Error e -> failwith (Store.Client.error_to_string e)
        | Ok bob -> (
          match Store.Client.read bob ~item:"todo" with
          | Ok v -> Printf.printf "bob read over TCP: %S\n%!" v
          | Error e -> failwith (Store.Client.error_to_string e)));
    Array.iter Tcpnet.Server_host.stop hosts;
    let m = Store.Metrics.read () in
    let r = Store.Metrics.rpc_latency_stats () in
    Printf.printf
      "transport: %d rpc rounds over %d pooled connections (%d reuses, %d \
       reconnects), rpc p50 %.0f us\n"
      m.Store.Metrics.rpcs m.Store.Metrics.tcp_connects
      m.Store.Metrics.tcp_reuses m.Store.Metrics.tcp_reconnects
      (r.Store.Metrics.p50_ns /. 1e3);
    let now = Unix.gettimeofday () in
    List.iter
      (fun h -> Format.printf "endpoint %a@." (Tcpnet.Pool.pp_health ~now) h)
      (Tcpnet.Pool.health (Tcpnet.Pool.shared ()));
    Printf.printf "demo ok\n"
  in
  Cmd.v (Cmd.info "demo" ~doc:"Self-contained networked demo") Term.(const run $ const ())

(* --- stats: scrape a server's /metrics and pretty-print ----------------- *)

(* One exposition sample: "name{l=\"v\",...} value". The label parser is
   deliberately simple — our label values (endpoints, op and phase
   names) never contain commas or escaped quotes. *)
let parse_sample line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some sp -> (
    let metric = String.sub line 0 sp in
    match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
    | None -> None
    | Some v ->
      let name, labels =
        match String.index_opt metric '{' with
        | None -> (metric, [])
        | Some i when String.length metric > i + 1 && metric.[String.length metric - 1] = '}' ->
          let name = String.sub metric 0 i in
          let inner = String.sub metric (i + 1) (String.length metric - i - 2) in
          let labels =
            List.filter_map
              (fun kv ->
                match String.index_opt kv '=' with
                | None -> None
                | Some eq ->
                  let k = String.sub kv 0 eq in
                  let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
                  let v =
                    if String.length v >= 2 && v.[0] = '"' then
                      String.sub v 1 (String.length v - 2)
                    else v
                  in
                  Some (k, v))
              (String.split_on_char ',' inner)
          in
          (name, labels)
        | Some _ -> (metric, [])
      in
      Some (name, labels, v))

let pp_dur_s fmt s =
  if s < 1e-3 then Format.fprintf fmt "%.0fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%.2fms" (s *. 1e3)
  else Format.fprintf fmt "%.3fs" s

(* Nearest-rank percentile from cumulative buckets, same convention the
   server used to fill them: first bucket whose cumulative count covers
   the rank; its upper bound is the answer. *)
let bucket_percentile buckets total p =
  if total = 0 then 0.0
  else begin
    let rank = max 1 (min total (int_of_float (ceil (p /. 100.0 *. float_of_int total)))) in
    let rec find = function
      | [] -> 0.0
      | (le, cum) :: rest -> if cum >= rank then le else find rest
    in
    find buckets
  end

let stats_cmd =
  let run host port spans =
    (match Tcpnet.Metrics_http.get ~host ~port ~path:"/metrics" () with
    | Error e -> failwith ("scrape http://" ^ host ^ ":" ^ string_of_int port ^ "/metrics failed: " ^ e)
    | Ok body ->
      let lines = String.split_on_char '\n' body in
      (* Histograms reassemble from their _bucket samples, keyed by base
         name + labels minus "le"; everything else prints as-is. *)
      let histos : (string * (string * string) list, (float * int) list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let scalars = ref [] in
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match parse_sample line with
            | None -> ()
            | Some (name, labels, v) ->
              if Filename.check_suffix name "_bucket" then begin
                let base = Filename.chop_suffix name "_bucket" in
                let le =
                  match List.assoc_opt "le" labels with
                  | Some "+Inf" -> infinity
                  | Some s -> (try float_of_string s with _ -> infinity)
                  | None -> infinity
                in
                let rest =
                  List.sort compare (List.remove_assoc "le" labels)
                in
                let cell =
                  match Hashtbl.find_opt histos (base, rest) with
                  | Some c -> c
                  | None ->
                    let c = ref [] in
                    Hashtbl.add histos (base, rest) c;
                    c
                in
                cell := (le, int_of_float v) :: !cell
              end
              else if
                Filename.check_suffix name "_sum"
                || Filename.check_suffix name "_count"
              then () (* folded into the histogram line below *)
              else scalars := (name, labels, v) :: !scalars)
        lines;
      let pp_labels fmt = function
        | [] -> ()
        | labels ->
          Format.fprintf fmt "{%s}"
            (String.concat ","
               (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))
      in
      Format.printf "@[<v>== scalars ==@,";
      List.iter
        (fun (name, labels, v) ->
          Format.printf "%s%a %.0f@," name pp_labels labels v)
        (List.sort compare !scalars);
      Format.printf "@,== latency histograms ==@,";
      let entries =
        List.sort compare
          (Hashtbl.fold (fun k c acc -> (k, List.sort compare !c) :: acc) histos [])
      in
      List.iter
        (fun ((base, labels), buckets) ->
          let total =
            match List.rev buckets with (_, cum) :: _ -> cum | [] -> 0
          in
          Format.printf "%s%a n=%d p50=%a p95=%a p99=%a@," base pp_labels
            labels total pp_dur_s
            (bucket_percentile buckets total 50.0)
            pp_dur_s
            (bucket_percentile buckets total 95.0)
            pp_dur_s
            (bucket_percentile buckets total 99.0))
        entries;
      Format.printf "@]@?");
    if spans then
      match Tcpnet.Metrics_http.get ~host ~port ~path:"/spans" () with
      | Error e -> failwith ("scrape /spans failed: " ^ e)
      | Ok body -> Printf.printf "%s\n" body
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Metrics host.") in
  let port =
    Arg.(required & opt (some int) None
         & info [ "metrics-port"; "p" ] ~doc:"The server's --metrics-port.")
  in
  let spans =
    Arg.(value & flag & info [ "spans" ] ~doc:"Also dump the span journal (/spans JSON).")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Scrape a server's /metrics endpoint and pretty-print it")
    Term.(const run $ host $ port $ spans)

(* --- trace: fetch a stitched trace and render it as a tree --------------- *)

(* One span as parsed back out of a /trace dump (the same JSON
   Obs.Span.trace_json emits, so --file artifacts and live fetches
   render identically). *)
type trace_span = {
  sid : int;
  sop : string;
  sstart : float;
  sdur_ns : float;
  sparent : int;
  snode : string;
  sattrs : string list;
  sphases : (string * float * float) list;  (* name, start_ns, dur_ns *)
}

let span_of_json v =
  let open Obs.Jsonx in
  let num k = Option.bind (member k v) num_of in
  let str k = Option.bind (member k v) str_of in
  match (num "id", str "op", num "start", num "dur_ns") with
  | Some id, Some op, Some start, Some dur ->
    let phases =
      match Option.bind (member "phases" v) arr_of with
      | None -> []
      | Some ps ->
        List.filter_map
          (fun p ->
            match
              ( Option.bind (member "name" p) str_of,
                Option.bind (member "start_ns" p) num_of,
                Option.bind (member "dur_ns" p) num_of )
            with
            | Some n, Some s, Some d -> Some (n, s, d)
            | _ -> None)
          ps
    in
    let attrs =
      match Option.bind (member "attrs" v) arr_of with
      | None -> []
      | Some vs -> List.filter_map str_of vs
    in
    Some
      {
        sid = int_of_float id;
        sop = op;
        sstart = start;
        sdur_ns = dur;
        sparent = (match num "parent" with Some p -> int_of_float p | None -> 0);
        snode = Option.value ~default:"" (str "node");
        sattrs = attrs;
        sphases = phases;
      }
  | _ -> None

(* Time-aligned tree: children under their parent span, every line
   carrying an offset from the trace start and a proportional bar, so a
   retry gap or a gossip hop trailing the client op is visible at a
   glance. *)
let render_trace ~id ~node spans =
  match spans with
  | [] -> Printf.printf "trace %s: no spans\n" id
  | _ ->
    let t0 = List.fold_left (fun a s -> min a s.sstart) infinity spans in
    let t1 =
      List.fold_left (fun a s -> max a (s.sstart +. (s.sdur_ns /. 1e9))) t0 spans
    in
    let window = max (t1 -. t0) 1e-9 in
    let width = 32 in
    let bar start_s dur_s =
      let b = Bytes.make width '.' in
      let lo = int_of_float (float_of_int width *. (start_s -. t0) /. window) in
      let hi =
        int_of_float
          (ceil (float_of_int width *. (start_s +. dur_s -. t0) /. window))
      in
      let lo = max 0 (min (width - 1) lo) in
      let hi = max (lo + 1) (min width hi) in
      for i = lo to hi - 1 do
        Bytes.set b i '='
      done;
      Bytes.to_string b
    in
    Printf.printf "trace %s%s: %d spans, %.2fms\n" id
      (if node = "" then "" else " (assembled on " ^ node ^ ")")
      (List.length spans) (window *. 1e3);
    let ids = List.map (fun s -> s.sid) spans in
    let roots, children =
      List.partition (fun s -> s.sparent = 0 || not (List.mem s.sparent ids)) spans
    in
    let by_start l = List.sort (fun a b -> compare a.sstart b.sstart) l in
    let rec render indent s =
      let off_ms = (s.sstart -. t0) *. 1e3 in
      let dur_ms = s.sdur_ns /. 1e6 in
      Printf.printf "%s|%s| %+9.2fms %9.2fms  %s%s%s\n" indent
        (bar s.sstart (s.sdur_ns /. 1e9))
        off_ms dur_ms s.sop
        (if s.snode = "" then "" else "@" ^ s.snode)
        (match s.sattrs with
        | [] -> ""
        | l -> "  [" ^ String.concat "; " (List.rev l) ^ "]");
      List.iter
        (fun (n, pstart_ns, pdur_ns) ->
          Printf.printf "%s %s  %+9.2fms %9.2fms    - %s\n" indent
            (bar (s.sstart +. (pstart_ns /. 1e9)) (pdur_ns /. 1e9))
            (((s.sstart +. (pstart_ns /. 1e9)) -. t0) *. 1e3)
            (pdur_ns /. 1e6) n)
        (List.rev s.sphases);
      List.iter
        (render (indent ^ "  "))
        (by_start (List.filter (fun c -> c.sparent = s.sid) children))
    in
    List.iter (render "") (by_start roots)

let trace_cmd =
  let run host port id file =
    let body =
      match (file, id) with
      | Some path, _ ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | None, Some id -> (
        match
          Tcpnet.Metrics_http.get ~host ~port ~path:("/trace?id=" ^ id) ()
        with
        | Ok body -> body
        | Error e -> failwith ("fetch /trace failed: " ^ e))
      | None, None -> failwith "need --id (with --metrics-port) or --file"
    in
    match Obs.Jsonx.parse body with
    | None -> failwith "trace dump is not valid JSON"
    | Some v -> (
      match Option.bind (Obs.Jsonx.member "error" v) Obs.Jsonx.str_of with
      | Some err -> failwith ("server: " ^ err)
      | None ->
        let id =
          Option.value ~default:"?"
            (Option.bind (Obs.Jsonx.member "trace" v) Obs.Jsonx.str_of)
        in
        let node =
          Option.value ~default:""
            (Option.bind (Obs.Jsonx.member "node" v) Obs.Jsonx.str_of)
        in
        let spans =
          match Option.bind (Obs.Jsonx.member "spans" v) Obs.Jsonx.arr_of with
          | None -> []
          | Some vs -> List.filter_map span_of_json vs
        in
        render_trace ~id ~node spans)
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Metrics host.") in
  let port =
    Arg.(value & opt int 0
         & info [ "metrics-port"; "p" ] ~doc:"The server's --metrics-port.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~doc:"Trace id (lowercase hex) to fetch via /trace.")
  in
  let file =
    Arg.(value & opt (some string) None
         & info [ "file" ] ~doc:"Render a saved trace dump instead of fetching.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Fetch a stitched distributed trace and render it as a time-aligned tree")
    Term.(const run $ host $ port $ id $ file)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "store_cli" ~doc:"Secure distributed store client (DSN 2001 reproduction)")
          [ write_cmd; read_cmd; demo_cmd; stats_cmd; trace_cmd ]))
