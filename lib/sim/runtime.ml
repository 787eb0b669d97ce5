type node_id = int
type reply = { from : node_id; payload : string }

type call_spec = {
  dsts : node_id list;
  request : string;
  quorum : int;
  timeout : float;
}

type scatter_spec = {
  parts : (node_id * string) list;
  quorum : int;
  timeout : float;
}

type _ Effect.t +=
  | Now : float Effect.t
  | Sleep : float -> unit Effect.t
  | Call_many : call_spec -> reply list Effect.t
  | Call_scatter : scatter_spec -> reply list Effect.t
  | Send_oneway : (node_id * string) -> unit Effect.t
  | Fork : (unit -> unit) -> unit Effect.t
  | Rank : node_id list -> (node_id list * node_id list) Effect.t

let default_timeout = 5.0

let now () = Effect.perform Now
let sleep d = Effect.perform (Sleep d)

let call_many ?(timeout = default_timeout) ~quorum dsts request =
  let quorum = min quorum (List.length dsts) in
  Effect.perform (Call_many { dsts; request; quorum; timeout })

let call_scatter ?(timeout = default_timeout) ~quorum parts =
  let quorum = min quorum (List.length parts) in
  Effect.perform (Call_scatter { parts; quorum; timeout })

let call_one ?timeout dst request =
  match call_many ?timeout ~quorum:1 [ dst ] request with
  | { payload; _ } :: _ -> Some payload
  | [] -> None

let send dst payload = Effect.perform (Send_oneway (dst, payload))
let fork fn = Effect.perform (Fork fn)
let rank dsts = Effect.perform (Rank dsts)
