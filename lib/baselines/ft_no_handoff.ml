(* Negative control for the failure-aware retire tree: identical to
   [Core.Retire_ft] except that an emergency retirement skips the
   job-description handoff, so the successor starts from a blank role —
   a deposed root forgets the counter value and re-issues numbers it
   already handed out. The model checker's crash adversary must find the
   resulting duplicate (stored counterexample in test/data). *)

module Ft = Core.Retire_ft

type t = Ft.t

let name = "ft-no-handoff"

let describe =
  "broken: retire-ft whose emergency retirement skips the handoff, so a \
   re-staffed root restarts from zero"

let supported_n = Ft.supported_n

let create ?seed ?delay ?faults ~n () =
  match Core.Params.k_of_n_exact n with
  | Some k ->
      Ft.create_with ?seed ?delay ?faults ~emergency_handoff:false
        (Ft.paper_config ~k)
  | None ->
      invalid_arg
        (Printf.sprintf
           "Ft_no_handoff.create: n = %d is not of the form k^(k+1); use \
            supported_n"
           n)

let n = Ft.n

let value = Ft.value

let metrics = Ft.metrics

let traces = Ft.traces
let observe = Ft.observe

let inc = Ft.inc

let inc_result = Ft.inc_result

let crashed = Ft.crashed

let clone = Ft.clone
