(* Negative control for the phase-king counter: identical to
   [Core.Sync_counter] except that round 3 adopts the king's tiebreaker
   unconditionally — the [mult2 >= n - f] guard that lets replicas ignore
   a lying king is skipped. A Byzantine king that equivocates in the last
   phase then deterministically splits the correct replicas, and the
   per-op agreement oracle raises the "spec: agreement violated" stall
   the model checker's corruption adversary must find (stored
   counterexample in test/data). *)

module Sc = Core.Sync_counter

type t = Sc.t

let name = "sync-no-threshold"

let describe =
  "broken: phase-king counting whose replicas adopt the king's value \
   unconditionally, so an equivocating king splits them"

let supported_n = Sc.supported_n

let create ?seed ?delay ?faults ~n () =
  Sc.create_with ?seed ?delay ?faults ~guard:false ~n ()

let n = Sc.n

let value = Sc.value

let metrics = Sc.metrics

let traces = Sc.traces
let observe = Sc.observe

let inc = Sc.inc

let inc_result = Sc.inc_result

let crashed = Sc.crashed

let clone = Sc.clone
