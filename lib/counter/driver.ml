type report = {
  counter_name : string;
  n : int;
  ops : int;
  schedule : string;
  values : int array;
  completed : int;
  stalled : int;
  stall_reasons : string list;
  values_exact : bool;
  sequentially_ordered : bool;
  hotspot_ok : bool;
  hotspot_violations : int;
  total_messages : int;
  bottleneck_proc : int;
  bottleneck_load : int;
  average_load : float;
  max_op_messages : int;
  overflow_processors : int;
  emergency_retirements : int;
  recoveries : int;
  mean_op_latency : float;
  max_op_latency : float;
}

let values_sequential values =
  let ok = ref true in
  Array.iteri (fun i v -> if v <> i then ok := false) values;
  !ok

let values_permutation values =
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  values_sequential sorted

let values_distinct values =
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  let ok = ref true in
  Array.iteri
    (fun i v -> if i > 0 && sorted.(i - 1) = v then ok := false)
    sorted;
  !ok

let run ?(seed = 42) ?delay ?faults ?(sim_domains = 1)
    (module C : Counter_intf.S) ~n ~schedule =
  let n = C.supported_n n in
  let counter =
    (* Counters build their networks inside [create]; the ambient shard
       count reaches them there (see Sim.Network.with_shards). Dispatch
       stays sequential, so reports are bit-identical for any count. *)
    if sim_domains = 1 then C.create ?delay ?faults ~seed ~n ()
    else
      Sim.Network.with_shards sim_domains (fun () ->
          C.create ?delay ?faults ~seed ~n ())
  in
  (* One pass over each operation's trace as it closes, so nothing is
     retained: the Hot Spot monitor keeps the previous operation's
     processors, and the latency sum is added in chronological order. *)
  let hotspot = Hotspot.create () in
  let traced = ref 0 and max_op_messages = ref 0 in
  let total_latency = ref 0. and max_op_latency = ref 0. in
  C.observe counter (fun trace ->
      Hotspot.feed hotspot trace;
      incr traced;
      max_op_messages := max !max_op_messages (Sim.Trace.message_count trace);
      let d = Sim.Trace.duration trace in
      total_latency := !total_latency +. d;
      max_op_latency := Float.max !max_op_latency d);
  let schedule_rng = Sim.Rng.create ~seed:(seed + 1) in
  let origins = Schedule.origins schedule schedule_rng ~n in
  let ops = ref 0 and values_rev = ref [] and stalls_rev = ref [] in
  List.iter
    (fun origin ->
      incr ops;
      match C.inc_result counter ~origin with
      | Counter_intf.Completed v -> values_rev := v :: !values_rev
      | Counter_intf.Stalled reason -> stalls_rev := reason :: !stalls_rev)
    origins;
  let values = Array.of_list (List.rev !values_rev) in
  let stall_reasons = List.rev !stalls_rev in
  let stalled = List.length stall_reasons in
  let violations = Hotspot.violations hotspot in
  let metrics = C.metrics counter in
  let bottleneck_proc, bottleneck_load = Sim.Metrics.bottleneck metrics in
  let mean_op_latency =
    if !traced = 0 then 0. else !total_latency /. float_of_int !traced
  in
  {
    counter_name = C.name;
    n;
    ops = !ops;
    schedule = Format.asprintf "%a" Schedule.pp schedule;
    values;
    completed = Array.length values;
    stalled;
    stall_reasons;
    values_exact = stalled = 0 && values_permutation values;
    sequentially_ordered = values_sequential values;
    hotspot_ok = violations = [];
    hotspot_violations = List.length violations;
    total_messages = Sim.Metrics.total_messages metrics;
    bottleneck_proc;
    bottleneck_load;
    average_load = Sim.Metrics.average_load metrics;
    max_op_messages = !max_op_messages;
    overflow_processors = Sim.Metrics.overflow_processors metrics;
    emergency_retirements = Sim.Metrics.emergency_retirements metrics;
    recoveries = Sim.Metrics.recoveries metrics;
    mean_op_latency;
    max_op_latency = !max_op_latency;
  }

let run_each_once ?seed ?delay c ~n = run ?seed ?delay c ~n ~schedule:Schedule.Each_once

let load_profile ?(seed = 42) (module C : Counter_intf.S) ~n ~schedule =
  let n = C.supported_n n in
  let counter = C.create ~seed ~n () in
  let schedule_rng = Sim.Rng.create ~seed:(seed + 1) in
  let origins = Schedule.origins schedule schedule_rng ~n in
  List.iter (fun origin -> ignore (C.inc counter ~origin)) origins;
  Sim.Metrics.load_array (C.metrics counter)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>counter=%s n=%d ops=%d schedule=%s@,\
     values_exact=%b ordered=%b hotspot_ok=%b (violations=%d)@,\
     messages=%d bottleneck=p%d(%d) avg_load=%.2f max_op_msgs=%d overflow=%d@,\
     latency: mean=%.2f max=%.2f (virtual time)@]"
    r.counter_name r.n r.ops r.schedule r.values_exact r.sequentially_ordered
    r.hotspot_ok
    r.hotspot_violations r.total_messages r.bottleneck_proc r.bottleneck_load
    r.average_load r.max_op_messages r.overflow_processors r.mean_op_latency
    r.max_op_latency;
  if r.emergency_retirements > 0 || r.recoveries > 0 then
    Format.fprintf ppf "@,emergency_retirements=%d recoveries=%d"
      r.emergency_retirements r.recoveries;
  if r.stalled > 0 then
    Format.fprintf ppf "@,completed=%d/%d stalled=%d (first: %s)" r.completed
      r.ops r.stalled
      (match r.stall_reasons with [] -> "-" | reason :: _ -> reason)

(* Open-loop load runs. *)

type load_report = {
  counter_name : string;
  n : int;
  arrivals : string;
  requested : int;
  completed : int;
  lost : int;
  makespan : float;
  throughput : float;
  latency : Analysis.Histogram.latency_summary;
  analysis : History.analysis;
  history : History.op list;
  total_messages : int;
  bottleneck_proc : int;
  bottleneck_load : int;
  average_load : float;
}

let run_load ?(seed = 42) ?delay ?faults ?(sim_domains = 1)
    (module C : Counter_intf.CONCURRENT) ~n ~arrivals ~ops =
  if ops < 1 then invalid_arg "Driver.run_load: ops must be >= 1";
  let n = C.supported_n n in
  let counter =
    if sim_domains = 1 then C.create ?delay ?faults ~seed ~n ()
    else
      Sim.Network.with_shards sim_domains (fun () ->
          C.create ?delay ?faults ~seed ~n ())
  in
  (* The arrival plan is a pure function of (arrivals, seed, n, ops),
     computed before the network runs: every operation's identity is its
     index, so completions can be joined back to invocation times no
     matter what order the protocol finishes them in. *)
  let plan = Sim.Arrivals.merge arrivals ~seed:(seed + 1) ~n ~ops in
  Array.iteri (fun op (at, origin) -> C.launch_at counter ~op ~origin ~at) plan;
  C.run_open counter;
  let history =
    List.filter_map
      (fun (op, value, completed_at) ->
        if op < 0 || op >= ops then None
        else
          let invoked_at, origin = plan.(op) in
          Some { History.origin; value; invoked_at; completed_at })
      (C.completions counter)
  in
  let completed = List.length history in
  let first_invoked, last_completed =
    List.fold_left
      (fun (first, last) (o : History.op) ->
        (Float.min first o.invoked_at, Float.max last o.completed_at))
      (infinity, neg_infinity) history
  in
  let makespan =
    if completed = 0 then 0. else last_completed -. first_invoked
  in
  let throughput =
    if makespan > 0. then float_of_int completed /. makespan else 0.
  in
  let latency =
    if completed = 0 then
      { Analysis.Histogram.p50 = 0.; p90 = 0.; p99 = 0.; max = 0. }
    else
      Analysis.Histogram.summary
        (Array.of_list
           (List.map
              (fun (o : History.op) -> o.completed_at -. o.invoked_at)
              history))
  in
  let metrics = C.metrics counter in
  let bottleneck_proc, bottleneck_load = Sim.Metrics.bottleneck metrics in
  {
    counter_name = C.name;
    n;
    arrivals = Sim.Arrivals.to_string arrivals;
    requested = ops;
    completed;
    lost = ops - completed;
    makespan;
    throughput;
    latency;
    analysis = History.analyze history;
    history;
    total_messages = Sim.Metrics.total_messages metrics;
    bottleneck_proc;
    bottleneck_load;
    average_load = Sim.Metrics.average_load metrics;
  }

let pp_load_report ppf r =
  let a = r.analysis in
  Format.fprintf ppf
    "@[<v>counter=%s n=%d arrivals=%s ops=%d completed=%d lost=%d@,\
     makespan=%.2f throughput=%.3f ops/unit@,\
     latency: p50=%.2f p90=%.2f p99=%.2f max=%.2f (virtual time)@,\
     overlap: peak=%d mean=%.2f@,\
     quiescently_consistent=%b linearizable=%b@,\
     messages=%d bottleneck=p%d(%d) avg_load=%.2f@]" r.counter_name r.n
    r.arrivals r.requested r.completed r.lost r.makespan r.throughput
    r.latency.Analysis.Histogram.p50 r.latency.Analysis.Histogram.p90
    r.latency.Analysis.Histogram.p99 r.latency.Analysis.Histogram.max
    a.History.peak_overlap a.History.mean_overlap a.History.quiescent
    a.History.linearizable r.total_messages r.bottleneck_proc
    r.bottleneck_load r.average_load;
  match a.History.verdict with
  | History.Linearizable -> ()
  | History.Violation (x, y) ->
      Format.fprintf ppf "@,witness: %a completed before %a was invoked"
        History.pp_op x History.pp_op y
