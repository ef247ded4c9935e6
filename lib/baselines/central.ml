(* [op] threads the operation id through the request/reply pair, so
   completions can be matched when an origin has several operations in
   flight. *)
type payload =
  | Request of { origin : int; op : int }
  | Reply of { value : int; op : int }

module P = struct
  type nonrec payload = payload
  type config = unit

  type state = {
    k : payload Counter.Kernel.ctx;
    net : payload Sim.Network.t;
    mutable value : int;
  }

  let name = "central"

  let describe = "single holder processor; message-optimal, maximal bottleneck"

  let supported_n n = max 1 n

  let label = function Request _ -> "req" | Reply _ -> "val"

  let default ~n:_ = ()

  let init k ~n () =
    if n < 1 then invalid_arg "Central.create: n must be >= 1";
    { k; net = Counter.Kernel.net k; value = 0 }

  let holder = 1

  let allocate st =
    let v = st.value in
    st.value <- v + 1;
    v

  let handle st ~self ~src:_ = function
    | Request { origin; op } ->
        assert (self = holder);
        Sim.Network.send st.net ~src:holder ~dst:origin
          (Reply { value = allocate st; op })
    | Reply { value; op } -> Counter.Kernel.complete st.k ~op ~value

  let start st ~op ~origin =
    if origin = holder then
      (* The holder increments locally: no messages at all. *)
      Counter.Kernel.complete st.k ~op ~value:(allocate st)
    else Sim.Network.send st.net ~src:origin ~dst:holder (Request { origin; op })

  let settle _ = ()

  let no_value = "Central.inc: no reply (holder crashed or message lost)"

  let copy k st = { st with k; net = Counter.Kernel.net k }
end

include Counter.Kernel.Make (P)

let holder = P.holder
