(* Minimal HTTP/1.0 exposition server.

   One accept loop, one short-lived thread per request, Connection:
   close on every response — a Prometheus scrape arrives every few
   seconds at most, so there is nothing to win from keep-alive and a
   whole protocol's worth of complexity to lose. Routes are thunks so
   the body is rendered at scrape time, under no lock of ours (the
   renderers take their own). *)

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  mutable running : bool;
  mutable accept_th : Thread.t option;
}

let http_date () =
  (* Fixed-format; exposition clients ignore it but proxies like it. *)
  let open Unix in
  let t = gmtime (time ()) in
  let day = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |].(t.tm_wday) in
  let mon =
    [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun"; "Jul"; "Aug"; "Sep"; "Oct";
       "Nov"; "Dec" |].(t.tm_mon)
  in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT" day t.tm_mday mon
    (t.tm_year + 1900) t.tm_hour t.tm_min t.tm_sec

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      if w > 0 then go (off + w)
  in
  go 0

let respond fd ~status ~content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.0 %s\r\nDate: %s\r\nContent-Type: %s\r\n\
        Content-Length: %d\r\nConnection: close\r\n\r\n%s"
       status (http_date ()) content_type (String.length body) body)

(* Read up to the end of the header block. Request bodies are ignored —
   every method we accept has none. *)
let read_request fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  (* Headers end at the first CRLFCRLF; nothing after it matters. *)
  let headers_done contents =
    let rec find i =
      if i + 3 >= String.length contents then false
      else if String.sub contents i 4 = "\r\n\r\n" then true
      else find (i + 1)
    in
    find 0
  in
  let rec go () =
    if Buffer.length buf > 16384 then None
    else
      let contents = Buffer.contents buf in
      if headers_done contents then Some contents
      else
        match Unix.read fd chunk 0 512 with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error _ -> None
  in
  go ()

let parse_request_line req =
  match String.index_opt req '\r' with
  | None -> None
  | Some i -> (
    match String.split_on_char ' ' (String.sub req 0 i) with
    | [ meth; target; _version ] ->
      (* Routes key on the bare path; the query string (sans '?') is
         handed to the renderer, "" when absent. *)
      let path, query =
        match String.index_opt target '?' with
        | Some q ->
          ( String.sub target 0 q,
            String.sub target (q + 1) (String.length target - q - 1) )
        | None -> (target, "")
      in
      Some (meth, path, query)
    | _ -> None)

let handle routes fd =
  Addr.set_nodelay fd;
  (try
     match read_request fd with
     | None -> ()
     | Some req -> (
       match parse_request_line req with
       | None ->
         respond fd ~status:"400 Bad Request" ~content_type:"text/plain"
           "bad request\n"
       | Some (meth, _, _) when meth <> "GET" ->
         respond fd ~status:"405 Method Not Allowed" ~content_type:"text/plain"
           "only GET is served here\n"
       | Some (_, path, query) -> (
         match List.assoc_opt path routes with
         | None ->
           respond fd ~status:"404 Not Found" ~content_type:"text/plain"
             (Printf.sprintf "no route %s\n" path)
         | Some render -> (
           (* A failing renderer must not 200: the scraper should mark
              the target down, not ingest an error message as metrics. *)
           match render query with
           | content_type, body -> respond fd ~status:"200 OK" ~content_type body
           | exception e ->
             respond fd ~status:"500 Internal Server Error"
               ~content_type:"text/plain"
               (Printf.sprintf "render failed: %s\n" (Printexc.to_string e)))))
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ?(host = "127.0.0.1") ~port ~routes () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Addr.inet_addr host, port));
  Unix.listen listener 16;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let t = { listener; bound_port; running = true; accept_th = None } in
  let accept_loop () =
    while t.running do
      match Unix.accept listener with
      | fd, _ -> ignore (Thread.create (handle routes) fd)
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    done
  in
  t.accept_th <- Some (Thread.create accept_loop ());
  t

let port t = t.bound_port

(* Same shutdown-close-join dance as Server_host.stop: shutdown wakes
   the blocked accept, joining guarantees the port is free on return. *)
let stop t =
  t.running <- false;
  (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  match t.accept_th with Some th -> Thread.join th | None -> ()

let get ?(host = "127.0.0.1") ~port ~path () =
  match
    Addr.connect ~read_timeout:5.0 ~deadline:(Unix.gettimeofday () +. 5.0)
      (host, port)
  with
  | None -> Error (Printf.sprintf "connect to %s:%d failed" host port)
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          write_all fd
            (Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" path host);
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd chunk 0 4096 with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          in
          drain ();
          let raw = Buffer.contents buf in
          let rec header_end i =
            if i + 3 >= String.length raw then None
            else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
            else header_end (i + 1)
          in
          match header_end 0 with
          | None -> Error "malformed HTTP response"
          | Some body_at ->
            let status_line =
              match String.index_opt raw '\r' with
              | Some i -> String.sub raw 0 i
              | None -> raw
            in
            let body =
              String.sub raw body_at (String.length raw - body_at)
            in
            if
              String.length status_line >= 12
              && String.sub status_line 9 3 = "200"
            then Ok body
            else Error status_line
        with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
