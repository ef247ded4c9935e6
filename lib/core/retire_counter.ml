(* The paper's exact protocol, as a thin veneer over the shared engine in
   Retire_plumbing (Retire_ft layers the failure-aware client over the
   same engine). With no fault plan the plumbing's failure-aware fields
   are inert and this module is observably identical — send for send —
   to the pre-refactor implementation; the determinism goldens pin it. *)

module P = Retire_plumbing

type config = P.config = { arity : int; depth : int; retire_threshold : int }

let paper_config = P.paper_config
let config_n = P.config_n

type t = P.t

let name = "retire-tree"

let describe =
  "the paper's communication tree with processor retirement (Section 4); \
   O(k) bottleneck where k*k^k = n"

let supported_n n = Params.round_up_n (max 1 n)

let who = "Retire_counter"

let install st =
  Sim.Network.set_handler st.P.net (fun ~self ~src payload ->
      P.handle st ~self ~src payload);
  st

let create_with ?seed ?delay ?faults cfg =
  install (P.create_state ?seed ?delay ?faults ~who cfg)

let create ?seed ?delay ?faults ~n () =
  match Params.k_of_n_exact n with
  | Some k -> create_with ?seed ?delay ?faults (paper_config ~k)
  | None ->
      invalid_arg
        (Printf.sprintf
           "Retire_counter.create: n = %d is not of the form k^(k+1); use \
            supported_n"
           n)

let n = P.n
let config = P.config
let tree = P.tree
let value = P.value
let metrics = P.metrics
let traces = P.traces
let observe = P.observe
let node_worker = P.node_worker
let node_age = P.node_age
let retirements_of_node = P.retirements_of_node
let retirements_by_level = P.retirements_by_level
let max_retirements_at_level = P.max_retirements_at_level
let total_retirements = P.total_retirements
let stale_forwards = P.stale_forwards
let max_message_bits = P.max_message_bits
let total_bits = P.total_bits
let believed_consistent = P.believed_consistent
let crashed = P.crashed
let inc t ~origin = P.inc ~who t ~origin

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let run_batch t ~origins = P.run_batch ~who t ~origins

let run_batch_timed t ?stagger ~origins () =
  P.run_batch_timed ~who t ?stagger ~origins ()

(* Open-loop path. The paper's protocol is inherently serialising — an
   operation holds the client until its grant descends — so arrivals are
   served strictly in order: each op starts at its arrival instant or as
   soon as the previous op finishes, whichever is later. Queueing delay
   therefore shows up honestly in completion times, and the resulting
   history is trivially linearizable (zero overlap by construction). *)
let launch_at t ~op ~origin ~at =
  if op < 0 then invalid_arg "Retire_counter.launch_at: op must be >= 0";
  let now = Sim.Network.now t.P.net in
  if at > now then begin
    (* Idle until the arrival: a no-op timer advances the clock without
       charging any processor load. *)
    Sim.Network.schedule_local t.P.net ~delay:(at -. now) (fun () -> ());
    ignore (Sim.Network.run_to_quiescence t.P.net)
  end;
  match inc_result t ~origin with
  | Counter.Counter_intf.Completed v ->
      t.P.open_completed_rev <-
        (op, v, Sim.Network.now t.P.net) :: t.P.open_completed_rev
  | Counter.Counter_intf.Stalled _ -> ()

let run_open _t = ()

let completions t = List.rev t.P.open_completed_rev

let clone t = install (P.clone_state t)
