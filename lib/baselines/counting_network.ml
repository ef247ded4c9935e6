(* [op] threads an operation id through a token's full traversal so
   completions can be matched when an origin has several operations in
   flight. *)
type payload =
  | Token of { origin : int; op : int; at : Bitonic.link }
  | Value of { value : int; op : int }

let default_width n =
  if n <= 1 then 1
  else begin
    let target = int_of_float (sqrt (float_of_int n)) in
    let rec grow w = if 2 * w <= target then grow (2 * w) else w in
    max 2 (grow 1)
  end

module P = struct
  type nonrec payload = payload

  type config = Bitonic.network

  type state = {
    k : payload Counter.Kernel.ctx;
    net : payload Sim.Network.t;
    n : int;
    bitonic : Bitonic.network;
    toggles : bool array;
    counts : int array;  (* per output wire *)
    mutable step_ok : bool;
  }

  let name = "counting-net"

  let describe =
    "bitonic counting network (AHS); O(log^2 w) messages/op, Theta(n/w) \
     bottleneck"

  let supported_n n = max 1 n

  let label = function Token _ -> "token" | Value _ -> "val"

  let default ~n = Bitonic.build ~width:(default_width n)

  let init k ~n bitonic =
    if n < 1 then invalid_arg "Counting_network: n must be >= 1";
    {
      k;
      net = Counter.Kernel.net k;
      n;
      bitonic;
      toggles = Array.make (Array.length bitonic.Bitonic.balancers) true;
      counts = Array.make bitonic.Bitonic.width 0;
      step_ok = true;
    }

  (* Hosting: spread balancers and output counters round-robin over the
     processors. *)
  let balancer_host t id = (id mod t.n) + 1

  let output_host t wire =
    ((Array.length t.bitonic.Bitonic.balancers + wire) mod t.n) + 1

  let host_of_link t = function
    | Bitonic.To_balancer id -> balancer_host t id
    | Bitonic.To_output wire -> output_host t wire

  let handle st ~self:_ ~src:_ = function
    | Value { value; op } -> Counter.Kernel.complete st.k ~op ~value
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
            let next =
              if top then bal.Bitonic.out_top else bal.Bitonic.out_bot
            in
            Sim.Network.send st.net ~src:(balancer_host st id)
              ~dst:(host_of_link st next)
              (Token { origin; op; at = next }))

  let start st ~op ~origin =
    let wire = (origin - 1) mod st.bitonic.Bitonic.width in
    let entry = st.bitonic.Bitonic.entry.(wire) in
    Sim.Network.send st.net ~src:origin ~dst:(host_of_link st entry)
      (Token { origin; op; at = entry })

  let settle st =
    if not (Bitonic.step_property st.counts) then st.step_ok <- false

  let no_value =
    "Counting_network.inc: no value returned (balancer host crashed or \
     token lost)"

  let copy k st =
    {
      st with
      k;
      net = Counter.Kernel.net k;
      toggles = Array.copy st.toggles;
      counts = Array.copy st.counts;
    }
end

include Counter.Kernel.Make (P)

let create_custom ?seed ?delay ?faults ~n ~network () =
  create_with ?seed ?delay ?faults ~n network

let create_width ?seed ?delay ?faults ~n ~width () =
  create_custom ?seed ?delay ?faults ~n ~network:(Bitonic.build ~width) ()

let width t = (state t).bitonic.Bitonic.width

let network_depth t = Bitonic.depth (state t).bitonic

let balancer_count t = Array.length (state t).bitonic.Bitonic.balancers

let output_counts t = Array.copy (state t).counts

let step_property_held t = (state t).step_ok
