open Effect.Deep

type endpoints = Sim.Runtime.node_id -> (string * int) option

let do_call_many ~pool ~endpoints ~shard_of (spec : Sim.Runtime.call_spec) =
  let dsts =
    List.filter_map
      (fun dst -> Option.map (fun ep -> (dst, ep)) (endpoints dst))
      spec.Sim.Runtime.dsts
  in
  (* One quorum round always addresses one replica set, and a replica
     set lives wholly inside one shard — so the first destination's
     shard speaks for the round. *)
  let shard =
    match spec.Sim.Runtime.dsts with [] -> None | dst :: _ -> shard_of dst
  in
  Pool.call_many pool ~timeout:spec.Sim.Runtime.timeout ?shard
    ~quorum:spec.Sim.Runtime.quorum dsts spec.Sim.Runtime.request
  |> List.map (fun (from, payload) -> { Sim.Runtime.from; payload })

let do_call_scatter ~pool ~endpoints ~shard_of (spec : Sim.Runtime.scatter_spec)
    =
  let parts =
    List.filter_map
      (fun (dst, request) ->
        Option.map (fun ep -> (dst, ep, request)) (endpoints dst))
      spec.Sim.Runtime.parts
  in
  let shard =
    match spec.Sim.Runtime.parts with
    | [] -> None
    | (dst, _) :: _ -> shard_of dst
  in
  Pool.call_scatter pool ~timeout:spec.Sim.Runtime.timeout ?shard
    ~quorum:spec.Sim.Runtime.quorum parts
  |> List.map (fun (from, payload) -> { Sim.Runtime.from; payload })

let run ?(pool = Pool.shared ()) ?(shard_of = fun _ -> None) ~endpoints fn =
  let send_oneway dst payload =
    match endpoints dst with
    | None -> ()
    | Some endpoint ->
      ignore (Pool.send pool ?shard:(shard_of dst) endpoint payload : bool)
  in
  let rec interpret : 'a. (unit -> 'a) -> 'a =
    fun fn ->
      match_with fn ()
        {
          retc = Fun.id;
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Sim.Runtime.Now ->
                Some
                  (fun (k : (a, _) continuation) ->
                    continue k (Unix.gettimeofday ()))
              | Sim.Runtime.Sleep d ->
                Some
                  (fun (k : (a, _) continuation) ->
                    Thread.delay (max 0.0 d);
                    continue k ())
              | Sim.Runtime.Fork f ->
                Some
                  (fun (k : (a, _) continuation) ->
                    ignore (Thread.create (fun () -> interpret f) ());
                    continue k ())
              | Sim.Runtime.Send_oneway (dst, payload) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    send_oneway dst payload;
                    continue k ())
              | Sim.Runtime.Call_many spec ->
                Some
                  (fun (k : (a, _) continuation) ->
                    continue k (do_call_many ~pool ~endpoints ~shard_of spec))
              | Sim.Runtime.Call_scatter spec ->
                Some
                  (fun (k : (a, _) continuation) ->
                    continue k (do_call_scatter ~pool ~endpoints ~shard_of spec))
              | Sim.Runtime.Rank dsts ->
                Some
                  (fun (k : (a, _) continuation) ->
                    continue k
                      (List.partition
                         (fun dst ->
                           match endpoints dst with
                           | Some ep -> not (Pool.suspected pool ep)
                           | None -> true)
                         dsts))
              | _ -> None);
        }
  in
  interpret fn
