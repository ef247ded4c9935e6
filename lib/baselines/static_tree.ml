type t = Core.Retire_counter.t

let name = "static-tree"

let describe =
  "the paper's tree without retirement: Theta(n) load at the root worker"

let supported_n = Core.Retire_counter.supported_n

let create ?seed ?delay ?faults ~n () =
  match Core.Params.k_of_n_exact n with
  | Some k ->
      let cfg =
        { (Core.Retire_counter.paper_config ~k) with retire_threshold = max_int }
      in
      Core.Retire_counter.create_with ?seed ?delay ?faults cfg
  | None ->
      invalid_arg
        (Printf.sprintf
           "Static_tree.create: n = %d is not of the form k^(k+1); use \
            supported_n"
           n)

let n = Core.Retire_counter.n

let inc = Core.Retire_counter.inc

let inc_result = Core.Retire_counter.inc_result

let crashed = Core.Retire_counter.crashed

let value = Core.Retire_counter.value

let metrics = Core.Retire_counter.metrics

let traces = Core.Retire_counter.traces
let observe = Core.Retire_counter.observe

let clone = Core.Retire_counter.clone
