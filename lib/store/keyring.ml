type t = {
  keys : (string, Crypto.Rsa.public) Hashtbl.t;
  (* Pairwise client<->server HMAC keys for the MAC-vector write fast
     path. Key distribution itself is out of scope (as for the public
     keys); both the client and the addressed server register the same
     secret. *)
  macs : (string * int, string) Hashtbl.t;
}

let create () = { keys = Hashtbl.create 16; macs = Hashtbl.create 16 }

let register t uid key =
  match Hashtbl.find_opt t.keys uid with
  | Some existing when Crypto.Rsa.public_to_string existing <> Crypto.Rsa.public_to_string key ->
    invalid_arg ("Keyring.register: uid already bound: " ^ uid)
  | _ -> Hashtbl.replace t.keys uid key

let find t uid = Hashtbl.find_opt t.keys uid
let known t uid = Hashtbl.mem t.keys uid
let size t = Hashtbl.length t.keys

let register_mac t ~client ~server secret =
  match Hashtbl.find_opt t.macs (client, server) with
  | Some existing when existing <> secret ->
    invalid_arg
      (Printf.sprintf "Keyring.register_mac: pair already bound: %s<->%d" client
         server)
  | _ -> Hashtbl.replace t.macs (client, server) secret

let mac_key t ~client ~server = Hashtbl.find_opt t.macs (client, server)

