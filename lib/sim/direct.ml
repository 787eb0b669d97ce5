open Effect.Deep

type handlers = Runtime.node_id -> from:Runtime.node_id -> string -> string option

let client_id = -1
let epsilon = 1e-6

let run ~handlers fn =
  let clock = ref 0.0 in
  let tick () =
    clock := !clock +. epsilon;
    !clock
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
              | Runtime.Now ->
                Some (fun (k : (a, _) continuation) -> continue k (tick ()))
              | Runtime.Sleep _ ->
                Some
                  (fun (k : (a, _) continuation) ->
                    ignore (tick ());
                    continue k ())
              | Runtime.Fork f ->
                Some
                  (fun (k : (a, _) continuation) ->
                    interpret f;
                    continue k ())
              | Runtime.Rank dsts ->
                Some (fun (k : (a, _) continuation) -> continue k (dsts, []))
              | Runtime.Send_oneway (dst, payload) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    ignore (handlers dst ~from:client_id payload);
                    continue k ())
              | Runtime.Call_many spec ->
                Some
                  (fun (k : (a, _) continuation) ->
                    ignore (tick ());
                    let replies =
                      List.filter_map
                        (fun dst ->
                          match handlers dst ~from:client_id spec.request with
                          | None -> None
                          | Some payload -> Some { Runtime.from = dst; payload })
                        spec.dsts
                    in
                    continue k replies)
              | Runtime.Call_scatter spec ->
                Some
                  (fun (k : (a, _) continuation) ->
                    ignore (tick ());
                    let replies =
                      List.filter_map
                        (fun (dst, request) ->
                          match handlers dst ~from:client_id request with
                          | None -> None
                          | Some payload -> Some { Runtime.from = dst; payload })
                        spec.parts
                    in
                    continue k replies)
              | _ -> None);
        }
  in
  interpret fn
