module Make (O : Sequential_object.OBJECT) = struct
  type payload =
    | Request of { origin : int; operation : O.operation }
    | Reply of { result : O.result }

  let label = function
    | Request { operation; _ } -> O.operation_to_string operation
    | Reply _ -> "reply"

  let holder = 1

  type t = {
    net : payload Sim.Network.t;
    n : int;
    mutable object_state : O.state;
    mutable last_result : O.result option;
    mutable operations : int;
  }

  let supported_n n = max 1 n

  let handle st ~self:_ ~src = function
    | Request { origin; operation } ->
        ignore src;
        let state, result = O.apply st.object_state operation in
        st.object_state <- state;
        Sim.Network.send st.net ~src:holder ~dst:origin (Reply { result })
    | Reply { result } -> st.last_result <- Some result

  let create ?(seed = 42) ?delay ~n () =
    if n < 1 then invalid_arg "Central_object: n must be >= 1";
    let net = Sim.Network.create ~seed ?delay ~label ~n () in
    let st =
      {
        net;
        n;
        object_state = O.initial;
        last_result = None;
        operations = 0;
      }
    in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        handle st ~self ~src payload);
    st

  let n t = t.n

  let state t = t.object_state

  let operations t = t.operations

  let metrics t = Sim.Network.metrics t.net

  let traces t = Sim.Network.traces t.net
  let observe t f = Sim.Network.observe t.net f

  let execute t ~origin operation =
    if origin < 1 || origin > t.n then
      invalid_arg "Central_object.execute: origin out of range";
    Sim.Network.begin_op t.net ~origin;
    let result =
      if origin = holder then begin
        let state, result = O.apply t.object_state operation in
        t.object_state <- state;
        result
      end
      else begin
        t.last_result <- None;
        Sim.Network.send t.net ~src:origin ~dst:holder
          (Request { origin; operation });
        ignore (Sim.Network.run_to_quiescence t.net);
        match t.last_result with
        | Some r -> r
        | None -> failwith "Central_object.execute: no reply"
      end
    in
    ignore (Sim.Network.end_op t.net);
    t.operations <- t.operations + 1;
    result

  let clone t =
    let net = Sim.Network.clone_quiescent t.net in
    let st =
      {
        net;
        n = t.n;
        object_state = t.object_state;
        last_result = t.last_result;
        operations = t.operations;
      }
    in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        handle st ~self ~src payload);
    st
end
