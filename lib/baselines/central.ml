(* [op] threads an operation id through the request/reply pair so the
   open-loop path can match completions when an origin has several
   operations in flight; the sequential path uses op = -1 and is
   unchanged message for message. *)
type payload =
  | Request of { origin : int; op : int }
  | Reply of { value : int; op : int }

let label = function Request _ -> "req" | Reply _ -> "val"

type t = {
  net : payload Sim.Network.t;
  n : int;
  mutable value : int;
  mutable last_returned : int;
  mutable open_rev : (int * int * float) list;  (* op, value, completed_at *)
}

let name = "central"

let describe = "single holder processor; message-optimal, maximal bottleneck"

let holder = 1

let supported_n n = max 1 n

let handle st ~self ~src:_ = function
  | Request { origin; op } ->
      assert (self = holder);
      Sim.Network.send st.net ~src:holder ~dst:origin
        (Reply { value = st.value; op });
      st.value <- st.value + 1
  | Reply { value; op } ->
      if op >= 0 then
        st.open_rev <- (op, value, Sim.Network.now st.net) :: st.open_rev
      else st.last_returned <- value

let create ?(seed = 42) ?delay ?faults ~n () =
  if n < 1 then invalid_arg "Central.create: n must be >= 1";
  let net = Sim.Network.create ~seed ?delay ?faults ~label ~n () in
  let st =
    { net; n; value = 0; last_returned = -1; open_rev = [] }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st

let n t = t.n

let value t = t.value

let metrics t = Sim.Network.metrics t.net

let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f

let inc t ~origin =
  if origin < 1 || origin > t.n then
    invalid_arg "Central.inc: origin out of range";
  Sim.Network.begin_op t.net ~origin;
  let result =
    if origin = holder then begin
      (* The holder increments locally: no messages at all. *)
      let v = t.value in
      t.value <- v + 1;
      v
    end
    else begin
      t.last_returned <- -1;
      Sim.Network.send t.net ~src:origin ~dst:holder (Request { origin; op = -1 });
      ignore (Sim.Network.run_to_quiescence t.net);
      t.last_returned
    end
  in
  ignore (Sim.Network.end_op t.net);
  if result < 0 then
    raise
      (Counter.Counter_intf.Stall
         "Central.inc: no reply (holder crashed or message lost)");
  result

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let launch_at t ~op ~origin ~at =
  if origin < 1 || origin > t.n then
    invalid_arg "Central.launch_at: origin out of range";
  let delay = at -. Sim.Network.now t.net in
  if delay < 0. then invalid_arg "Central.launch_at: arrival in the past";
  Sim.Network.schedule_local t.net ~delay (fun () ->
      if origin = holder then begin
        (* Local increment, completing at the arrival instant. *)
        let v = t.value in
        t.value <- v + 1;
        t.open_rev <- (op, v, Sim.Network.now t.net) :: t.open_rev
      end
      else Sim.Network.send t.net ~src:origin ~dst:holder (Request { origin; op }))

let run_open t = ignore (Sim.Network.run_to_quiescence t.net)

let completions t = List.rev t.open_rev

let clone t =
  let net = Sim.Network.clone_quiescent t.net in
  let st =
    {
      net;
      n = t.n;
      value = t.value;
      last_returned = t.last_returned;
      open_rev = t.open_rev;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st
