(* The periodic counting network as a registry counter: the counting
   network's protocol over a Periodic.build balancer network. *)

include Counting_network

let name = "periodic-net"

let describe =
  "AHS periodic counting network (reflector blocks); lg^2 w depth, \
   Theta(n/w) bottleneck"

let create ?seed ?delay ?faults ~n () =
  create_custom ?seed ?delay ?faults ~n
    ~network:(Periodic.build ~width:(default_width n))
    ()
