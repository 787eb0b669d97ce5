(* The benchmark cluster's shape, shared by the driver and the servers it
   spawns: n=4 replicas tolerating b=1, two shards, and the two client
   identities whose keys every process derives (Demokeys). *)

let n = 4
let b = 1
let shards = 2
let client_names = [ "t0"; "t1" ]

let keyring () = Demokeys.keyring ~mac_servers:(shards * n) client_names

(* Where replica [replica] of [shard] finds its preloaded state. *)
let snapshot_path ~dir ~replica ~shard =
  Filename.concat dir (Printf.sprintf "r%ds%d.snap" replica shard)
