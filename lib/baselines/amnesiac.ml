type t = {
  net : unit Sim.Network.t;
  n : int;
  locals : int array;
  mutable ops : int;
}

let name = "amnesiac"

let describe = "broken: purely local counting, no communication"

let supported_n n = max 1 n

let create ?(seed = 42) ?delay ?faults ~n () =
  {
    net = Sim.Network.create ~seed ?delay ?faults ~n ();
    n;
    locals = Array.make (n + 1) 0;
    ops = 0;
  }

let n t = t.n

let value t = t.ops

let metrics t = Sim.Network.metrics t.net

let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f

let inc t ~origin =
  Sim.Network.begin_op t.net ~origin;
  let v = t.locals.(origin) in
  t.locals.(origin) <- v + 1;
  t.ops <- t.ops + 1;
  ignore (Sim.Network.end_op t.net);
  v

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let clone t =
  {
    net = Sim.Network.clone_quiescent t.net;
    n = t.n;
    locals = Array.copy t.locals;
    ops = t.ops;
  }
