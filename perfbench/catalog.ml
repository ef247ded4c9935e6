(* What each metric the benchmark reports measures or, for a per-layer
   metric, which end-to-end metric it should move and on which workload.
   The names, in this order, are BENCHMARK.json's; units and directions
   are kept there only, and run.py attaches them to the result and
   refuses one whose names differ. *)

type metric = { name : string; note : string }

let m name note = { name; note }

let end_to_end =
  [
    m "ops_per_s"
      "completed ops per host second of a Driver call, built-in checks \
       included, at the reference kernel's nominal host speed: the median \
       over the run's timed calls, each scaled by the kernel run before it \
       (see reference.ml)";
    m "setup_s"
      "host time to build the counter and generate the inputs: the median \
       over batches of repeated set-ups, each batch scaled to the nominal \
       host speed by the kernel run before it";
    m "peak_heap_mb" "OCaml heap high-water (top_heap_words)";
    m "ok_op_share"
      "1 - failed/attempted ops; the failed count is the result's [failed]";
    m "msgs_per_op" "simulated messages per operation";
    m "bottleneck_load" "simulated max_p m_p";
    m "lat_virtual_p50" "median virtual latency per operation";
    m "lat_virtual_tail"
      "virtual latency at the highest percentile with >= 10 samples beyond it";
  ]

let per_layer =
  [
    m "heap.ns_per_event"
      "ops_per_s, mostly load-combining (the only deep pending set)";
    m "heap.alloc_words_per_event" "ops_per_s, peak_heap_mb";
    m "network.ns_per_delivery"
      "ops_per_s on run-retire-tree and byz-sync-count; a small share on \
       load-combining";
    m "network.alloc_words_per_delivery" "ops_per_s";
    m "network.deliveries_per_op"
      "ops_per_s (the work every other per-delivery figure multiplies)";
    m "metrics.ns_per_charge"
      "ops_per_s in proportion to msgs_per_op";
    m "trace.ns_per_delivery"
      "ops_per_s on run-retire-tree and byz-sync-count; no change on \
       load-combining";
    m "trace.alloc_words_per_delivery"
      "ops_per_s and peak_heap_mb on the run-* workloads";
    m "trace.retained_bytes_per_op"
      "peak_heap_mb on the run-* workloads; no change on load-combining";
    m "fault.inert_ns_per_delivery"
      "ops_per_s of any run under a fault plan that never fires \
       (crash:2@1e12); measured on every workload for the ladder, n/a \
       where the workload runs without a plan";
    m "fault.ns_per_delivery" "ops_per_s on byz-sync-count only";
    m "fault.corruptions_per_op"
      "ops_per_s on byz-sync-count only (payloads rewritten per op)";
    m "fault.protocol_s"
      "ops_per_s on byz-sync-count only (faulted minus clean counter run)";
    m "counter.busy_s" "ops_per_s on all three workloads";
    m "counter.op_us_p50"
      "ops_per_s on the run-* workloads (host time of one inc_result)";
    m "counter.op_us_tail"
      "ops_per_s on the run-* workloads; the tail is GC under retention";
    m "counter.alloc_words_per_op" "ops_per_s, peak_heap_mb";
    m "counter.retained_bytes_per_op" "peak_heap_mb, ops_per_s";
    m "counter.self_ns_per_delivery"
      "ops_per_s: protocol self time, busy time minus the lower rungs";
    m "counter.create_s" "setup_s";
    m "schedule.origins_s" "setup_s on the run-* workloads";
    m "arrivals.merge_s" "setup_s on load-combining";
    m "counter.traces_s"
      "ops_per_s on the run-* workloads; no change on load-combining";
    m "hotspot.check_s"
      "ops_per_s on the run-* workloads; no change on load-combining";
    m "history.analyze_s" "ops_per_s on load-combining only";
    m "histogram.summary_s" "ops_per_s on load-combining only";
    m "gc.minor_collections"
      "ops_per_s and peak_heap_mb on the run-* workloads";
    m "gc.major_collections"
      "ops_per_s and peak_heap_mb on the run-* workloads";
    m "trace_overhead"
      "none: traced replica time over untraced Driver time";
    m "unattributed_s"
      "ops_per_s: Driver time the ladder and the spans leave unexplained";
  ]

(* Layer metrics that measure a path the workload does not take. They are
   still measured (a residual between two equivalent configurations, or an
   empty span where the stage is skipped) and flagged n/a in the report.
   On the open loop an operation's work happens inside [run_open], so the
   per-operation spans time only the [launch_at] timer registration. *)
let applicable (w : Workload.t) name =
  let closed = match w.shape with Workload.Closed _ -> true | Open _ -> false in
  let faulted = not (Sim.Fault.is_none w.faults) in
  match name with
  | "trace.ns_per_delivery" | "trace.alloc_words_per_delivery"
  | "trace.retained_bytes_per_op" | "counter.traces_s" | "hotspot.check_s"
  | "counter.op_us_p50" | "counter.op_us_tail" | "schedule.origins_s" ->
      closed
  | "arrivals.merge_s" | "history.analyze_s" | "histogram.summary_s" ->
      not closed
  | "fault.inert_ns_per_delivery" | "fault.ns_per_delivery"
  | "fault.corruptions_per_op" | "fault.protocol_s" ->
      faulted
  | _ -> true
