(* [op] threads an operation id through a token's full traversal so the
   open-loop path can match completions when an origin has several
   operations in flight; the sequential path uses op = -1 and is
   unchanged message for message. *)
type payload =
  | Token of { origin : int; op : int; at : Bitonic.link }
  | Value of { value : int; op : int }

let label = function Token _ -> "token" | Value _ -> "val"

type t = {
  net : payload Sim.Network.t;
  n : int;
  bitonic : Bitonic.network;
  toggles : bool array;
  counts : int array;  (* per output wire *)
  mutable completed_rev : (int * int * int * float) list;
      (* origin, op, value, time *)
  mutable ops : int;
  mutable step_ok : bool;
}

let name = "counting-net"

let describe =
  "bitonic counting network (AHS); O(log^2 w) messages/op, Theta(n/w) \
   bottleneck"

let supported_n n = max 1 n

let width t = t.bitonic.Bitonic.width

let network_depth t = Bitonic.depth t.bitonic

let balancer_count t = Array.length t.bitonic.Bitonic.balancers

let output_counts t = Array.copy t.counts

let step_property_held t = t.step_ok

(* Hosting: spread balancers and output counters round-robin over the
   processors. *)
let balancer_host t id = (id mod t.n) + 1

let output_host t wire =
  ((balancer_count t + wire) mod t.n) + 1

let host_of_link t = function
  | Bitonic.To_balancer id -> balancer_host t id
  | Bitonic.To_output wire -> output_host t wire

let handle st ~self ~src:_ = function
  | Value { value; op } ->
      st.completed_rev <-
        (self, op, value, Sim.Network.now st.net) :: st.completed_rev
  | Token { origin; op; at } -> (
      match at with
      | Bitonic.To_output wire ->
          let w = st.bitonic.Bitonic.width in
          let value = wire + (w * st.counts.(wire)) in
          st.counts.(wire) <- st.counts.(wire) + 1;
          Sim.Network.send st.net ~src:(output_host st wire) ~dst:origin
            (Value { value; op })
      | Bitonic.To_balancer id ->
          let bal = st.bitonic.Bitonic.balancers.(id) in
          let top = st.toggles.(id) in
          st.toggles.(id) <- not top;
          let next = if top then bal.Bitonic.out_top else bal.Bitonic.out_bot in
          Sim.Network.send st.net ~src:(balancer_host st id)
            ~dst:(host_of_link st next)
            (Token { origin; op; at = next }))

let create_custom ?(seed = 42) ?delay ?faults ~n ~network:bitonic () =
  if n < 1 then invalid_arg "Counting_network: n must be >= 1";
  let net = Sim.Network.create ~seed ?delay ?faults ~label ~n () in
  let st =
    {
      net;
      n;
      bitonic;
      toggles = Array.make (Array.length bitonic.Bitonic.balancers) true;
      counts = Array.make bitonic.Bitonic.width 0;
      completed_rev = [];
      ops = 0;
      step_ok = true;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st

let create_width ?seed ?delay ?faults ~n ~width () =
  create_custom ?seed ?delay ?faults ~n ~network:(Bitonic.build ~width) ()

let default_width n =
  if n <= 1 then 1
  else begin
    let target = int_of_float (sqrt (float_of_int n)) in
    let rec grow w = if 2 * w <= target then grow (2 * w) else w in
    max 2 (grow 1)
  end

let create ?seed ?delay ?faults ~n () =
  create_width ?seed ?delay ?faults ~n ~width:(default_width n) ()

let n t = t.n

let value t = t.ops

let metrics t = Sim.Network.metrics t.net

let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f

let launch_op t ~op ~origin =
  if origin < 1 || origin > t.n then
    invalid_arg "Counting_network: origin out of range";
  let wire = (origin - 1) mod t.bitonic.Bitonic.width in
  let entry = t.bitonic.Bitonic.entry.(wire) in
  Sim.Network.send t.net ~src:origin ~dst:(host_of_link t entry)
    (Token { origin; op; at = entry })

let launch t ~origin = launch_op t ~op:(-1) ~origin

let finish_op t =
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net);
  if not (Bitonic.step_property t.counts) then t.step_ok <- false

let inc t ~origin =
  if origin < 1 || origin > t.n then
    invalid_arg "Counting_network: origin out of range";
  Sim.Network.begin_op t.net ~origin;
  t.completed_rev <- [];
  launch t ~origin;
  finish_op t;
  t.ops <- t.ops + 1;
  (* First completion for this origin (duplication faults can deliver the
     value twice; without faults there is exactly one). *)
  match
    List.find_opt (fun (o, _, _, _) -> o = origin) (List.rev t.completed_rev)
  with
  | Some (_, _, value, _) -> value
  | None ->
      raise
        (Counter.Counter_intf.Stall
           "Counting_network.inc: no value returned (balancer host crashed \
            or token lost)")

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let run_batch t ~origins =
  (* Concurrent tokens — the regime counting networks were built for.
     All tokens traverse simultaneously; the result is quiescently
     consistent: a contiguous distinct value block, with the step
     property restored at quiescence. *)
  (match origins with
  | [] -> invalid_arg "Counting_network.run_batch: empty batch"
  | o :: _ -> Sim.Network.begin_op t.net ~origin:o);
  t.completed_rev <- [];
  List.iter (fun origin -> launch t ~origin) origins;
  finish_op t;
  t.ops <- t.ops + List.length origins;
  List.rev_map (fun (o, _, v, _) -> (o, v)) t.completed_rev

let run_batch_timed t ?(stagger = 0.) ~origins () =
  (match origins with
  | [] -> invalid_arg "Counting_network.run_batch_timed: empty batch"
  | o :: _ -> Sim.Network.begin_op t.net ~origin:o);
  t.completed_rev <- [];
  let start = Sim.Network.now t.net in
  let invoked = Hashtbl.create (List.length origins) in
  List.iteri
    (fun i origin ->
      let at = start +. (float_of_int i *. stagger) in
      Hashtbl.replace invoked origin at;
      if Float.equal stagger 0. then launch t ~origin
      else
        Sim.Network.schedule_local t.net
          ~delay:(float_of_int i *. stagger)
          (fun () -> launch t ~origin))
    origins;
  finish_op t;
  t.ops <- t.ops + List.length origins;
  List.rev_map
    (fun (origin, _, value, completed_at) ->
      {
        Counter.History.origin;
        value;
        invoked_at = Hashtbl.find invoked origin;
        completed_at;
      })
    t.completed_rev

let launch_at t ~op ~origin ~at =
  let delay = at -. Sim.Network.now t.net in
  if delay < 0. then invalid_arg "Counting_network.launch_at: arrival in the past";
  Sim.Network.schedule_local t.net ~delay (fun () -> launch_op t ~op ~origin)

let run_open t =
  ignore (Sim.Network.run_to_quiescence t.net);
  let done_ops =
    List.fold_left
      (fun acc (_, op, _, _) -> if op >= 0 then acc + 1 else acc)
      0 t.completed_rev
  in
  t.ops <- t.ops + done_ops;
  if not (Bitonic.step_property t.counts) then t.step_ok <- false

let completions t =
  List.filter_map
    (fun (_, op, value, at) -> if op >= 0 then Some (op, value, at) else None)
    (List.rev t.completed_rev)

let clone t =
  let net = Sim.Network.clone_quiescent t.net in
  let st =
    {
      net;
      n = t.n;
      bitonic = t.bitonic;
      toggles = Array.copy t.toggles;
      counts = Array.copy t.counts;
      completed_rev = t.completed_rev;
      ops = t.ops;
      step_ok = t.step_ok;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st
