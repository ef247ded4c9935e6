(* The periodic counting network as a registry counter: the
   Counting_network wrapper over Periodic.build. *)

type t = Counting_network.t

let name = "periodic-net"

let describe =
  "AHS periodic counting network (reflector blocks); lg^2 w depth, \
   Theta(n/w) bottleneck"

let supported_n n = max 1 n

let default_width n =
  if n <= 1 then 1
  else begin
    let target = int_of_float (sqrt (float_of_int n)) in
    let rec grow w = if 2 * w <= target then grow (2 * w) else w in
    max 2 (grow 1)
  end

let create ?seed ?delay ?faults ~n () =
  Counting_network.create_custom ?seed ?delay ?faults ~n
    ~network:(Periodic.build ~width:(default_width n))
    ()

let n = Counting_network.n

let inc = Counting_network.inc

let inc_result = Counting_network.inc_result

let crashed = Counting_network.crashed

let value = Counting_network.value

let metrics = Counting_network.metrics

let traces = Counting_network.traces
let observe = Counting_network.observe

let clone = Counting_network.clone
