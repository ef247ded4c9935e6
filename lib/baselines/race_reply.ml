type payload =
  | Request of { origin : int }
  | Reply of { value : int }
  | Echo of { origin : int; value : int }

let label = function
  | Request _ -> "req"
  | Reply _ -> "val"
  | Echo _ -> "echo"

type t = {
  net : payload Sim.Network.t;
  n : int;
  mutable value : int;
  mutable last_returned : int;
}

let name = "race-reply"

let describe =
  "broken: holder races a stale relayed reply against the direct one"

let holder = 1

let relay = 2

let supported_n n = max 3 n

(* The bug: besides the correct direct reply, the holder "helpfully"
   pushes the value to the origin a second time through a relay — but it
   builds that message after the increment, so the relayed copy carries
   [v + 1]. The origin keeps whichever reply arrives first. Under the
   default delivery order the direct reply (one hop) always beats the
   relayed one (two hops) and the counter looks correct on every
   schedule; only an adversarial scheduler that delays the direct reply
   behind both relay hops exposes the stale value. When the origin IS the
   relay both messages share the (holder, relay) link, whose FIFO order
   protects the direct reply — that origin is immune. *)
let handle st ~self ~src:_ = function
  | Request { origin } ->
      assert (self = holder);
      let v = st.value in
      st.value <- v + 1;
      Sim.Network.send st.net ~src:holder ~dst:origin (Reply { value = v });
      if origin <> relay then
        Sim.Network.send st.net ~src:holder ~dst:relay
          (Echo { origin; value = st.value })
  | Echo { origin; value } ->
      assert (self = relay);
      Sim.Network.send st.net ~src:relay ~dst:origin (Reply { value })
  | Reply { value } -> if st.last_returned < 0 then st.last_returned <- value

let create ?(seed = 42) ?delay ?faults ~n () =
  if n < 3 then invalid_arg "Race_reply.create: n must be >= 3";
  let net = Sim.Network.create ~seed ?delay ?faults ~label ~n () in
  let st = { net; n; value = 0; last_returned = -1 } in
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
    invalid_arg "Race_reply.inc: origin out of range";
  Sim.Network.begin_op t.net ~origin;
  let result =
    if origin = holder then begin
      let v = t.value in
      t.value <- v + 1;
      v
    end
    else begin
      t.last_returned <- -1;
      Sim.Network.send t.net ~src:origin ~dst:holder (Request { origin });
      ignore (Sim.Network.run_to_quiescence t.net);
      t.last_returned
    end
  in
  ignore (Sim.Network.end_op t.net);
  if result < 0 then
    raise
      (Counter.Counter_intf.Stall
         "Race_reply.inc: no reply (holder crashed or message lost)");
  result

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let clone t =
  let net = Sim.Network.clone_quiescent t.net in
  let st =
    {
      net;
      n = t.n;
      value = t.value;
      last_returned = t.last_returned;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st
