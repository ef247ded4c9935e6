(* The repository benchmark.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
   perfbench.exe --selftest

   --trace 0 runs the workload through its driver entry point, tracing
   off, repeatedly for S seconds with the reference kernel timed before
   each call, and reports the end-to-end metrics at the kernel's nominal
   host speed (reference.ml).
   --trace 1 runs the ablation ladder and a replica with a span around
   every call into a layer, reports the per-layer metrics and writes the
   spans to DIR/NAME.trace.json (Chrome trace-event format).

   Human-readable lines come first; the last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "values"}, where
   "values" maps each metric name to its number. run.py attaches the
   units from BENCHMARK.json. *)

let pr fmt = Printf.printf fmt

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* A value that is not a finite number makes the result incorrect. *)
let print_json r =
  let fields =
    List.map
      (fun (name, v) -> Printf.sprintf "%S: %s" name (json_number v))
      r.values
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) r.values in
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n"
    (r.correct && finite) r.attempted r.failed
    (String.concat ", " fields)

let median xs = Analysis.Histogram.quantile (Array.of_list xs) ~q:0.5

let controls () =
  let results = Controls.all () in
  List.iter
    (fun (name, ok) ->
      pr "control  %-34s %s\n" name (if ok then "ok" else "FAILED"))
    results;
  List.for_all snd results

(* Set-up time: the median over 11 batches of back-to-back set-ups, each
   batch long enough (~40 ms) that a microsecond set-up is not lost in
   clock and cache noise, each started from a freshly collected heap. The
   first set-up only warms up and sizes the batches. [scaled] times the
   reference kernel before each batch and scales that batch's total to the
   nominal host speed, as the timed driver calls are. *)
let setups ?(scaled = false) w ~seed =
  Gc.full_major ();
  let c, i = Workload.setup w ~seed in
  let batch = max 1 (int_of_float (0.04 /. Float.max 1e-7 (c +. i))) in
  let samples =
    List.init 11 (fun _ ->
        let k = if scaled then Reference.run () else Reference.nominal_s in
        Gc.full_major ();
        let create = ref 0. and inputs = ref 0. in
        for _ = 1 to batch do
          let c, i = Workload.setup w ~seed in
          create := !create +. c;
          inputs := !inputs +. i
        done;
        let per x = x /. float_of_int batch in
        (per !create, per !inputs, k /. Reference.nominal_s))
  in
  ( median (List.map (fun (c, i, speed) -> (c +. i) /. speed) samples),
    median (List.map (fun (c, _, _) -> c) samples),
    median (List.map (fun (_, i, _) -> i) samples) )

let latency_metrics latencies =
  let p50 = Analysis.Histogram.quantile latencies ~q:0.5 in
  let tail, pct, count = Clock.tail latencies in
  pr "virtual latency: p50 %.4g vt, tail p%.3f %.4g vt (%d samples, 10 \
      beyond)\n"
    p50 pct tail count;
  [ ("lat_virtual_p50", p50); ("lat_virtual_tail", tail) ]

(* ------------------------------------------------------------------ *)
(* End-to-end run: tracing off. *)

let end_to_end (w : Workload.t) ~seed ~seconds =
  (* Builds the kernel's buffers before any workload runs. *)
  ignore (Reference.run ());
  let controls_ok = controls () in
  let setup_s, create_s, inputs_s = setups ~scaled:true w ~seed in
  (* Warm-up, untimed: grows the heap to its working size and yields the
     reference outputs. The heap high-water is read straight after it, so
     it is the driver call's. *)
  Gc.full_major ();
  let _, reference = Workload.run_driver w ~seed in
  let peak_heap_mb = Clock.peak_heap_mb () in
  (* The closed-loop driver report has neither per-operation latencies nor
     a corruption count: an untraced replica supplies them, and must
     reproduce the driver's outputs. *)
  let latencies, replica_ok =
    match reference.latencies with
    | Some latencies -> (latencies, true)
    | None ->
        Gc.full_major ();
        let _, r =
          Workload.replica ~per_op:false w ~seed ~faults:(Some w.faults)
            (Span.create ~capacity:64)
        in
        ( Option.get r.outcome.latencies,
          r.outcome.ok
          && Workload.same_outputs reference r.outcome
          && (w.faults.Sim.Fault.byz_rules = [] || r.corruptions > 0) )
  in
  let calls = ref 1 and failed = ref 0 and consistent = ref true in
  let count (o : Workload.outcome) =
    if not o.ok then failed := !failed + w.ops;
    if not (Workload.same_outputs reference o) then consistent := false
  in
  count reference;
  (* Timed driver calls, each scaled by the reference kernel run just
     before it: at least three, and no more than fit in [seconds] at the
     pace of the last. *)
  let rates = ref [] and scaled = ref [] and kernel = ref [] in
  let t0 = Clock.now_ns () and last = ref 0. in
  while List.length !rates < 3 || Clock.since t0 +. !last <= seconds do
    let t = Clock.now_ns () in
    let k = Reference.run () in
    Gc.full_major ();
    let s, o = Workload.run_driver w ~seed in
    last := Clock.since t;
    incr calls;
    count o;
    let rate = float_of_int w.ops /. s in
    rates := rate :: !rates;
    kernel := k :: !kernel;
    scaled := (rate *. k /. Reference.nominal_s) :: !scaled
  done;
  let attempted = !calls * w.ops in
  let correct = controls_ok && replica_ok && !consistent && !failed = 0 in
  let failed = if correct then !failed else attempted in
  let kernel_s = median !kernel in
  let speed = kernel_s /. Reference.nominal_s in
  pr "%d driver calls of %d ops (%.2f s with the kernel runs); checks %s\n\
      ops/s per call:%s\n\
      kernel s per call:%s\n\
      raw: median %.0f ops/s, set-up %.6g s (create) + %.6g s (inputs); \
      reference kernel median %.4f s = %.3fx nominal\n"
    (List.length !rates) w.ops (Clock.since t0)
    (if correct then "passed" else "FAILED")
    (String.concat ""
       (List.rev_map (fun r -> Printf.sprintf " %.0f" r) !rates))
    (String.concat ""
       (List.rev_map (fun k -> Printf.sprintf " %.4f" k) !kernel))
    (median !rates) create_s inputs_s kernel_s speed;
  let o = reference in
  let values =
    [
      ("ops_per_s", median !scaled);
      ("setup_s", setup_s);
      ("peak_heap_mb", peak_heap_mb);
      ( "ok_op_share",
        float_of_int (attempted - failed) /. float_of_int attempted );
      ("msgs_per_op", float_of_int o.total_messages /. float_of_int w.ops);
      ("bottleneck_load", float_of_int (snd o.bottleneck));
    ]
    @ latency_metrics latencies
  in
  List.iter
    (fun (m : Catalog.metric) ->
      pr "%-18s %16.6g  %s\n" m.name (List.assoc m.name values) m.note)
    Catalog.end_to_end;
  { correct; attempted; failed; values }

(* ------------------------------------------------------------------ *)
(* Traced run: the ablation ladder and the replica with spans. *)

let inert_plan = Workload.parse_plan "crash:2@1e12"

let per_layer (w : Workload.t) ~seed ~out =
  let closed =
    match w.shape with Workload.Closed _ -> true | Workload.Open _ -> false
  in
  let faulted = not (Sim.Fault.is_none w.faults) in
  let spans = Span.create ~capacity:(w.ops + 1024) in
  let controls_ok =
    Span.record spans Span.Driver "negative controls" controls
  in
  let _, create_s, inputs_s = setups w ~seed in
  (* The first call in the process also pays for growing the heap: the
     untraced time is the faster of two calls. *)
  let driver () =
    Gc.full_major ();
    Span.record spans Span.Driver "driver entry point, untraced" (fun () ->
        Workload.run_driver w ~seed)
  in
  let first_s, o = driver () in
  let second_s, o' = driver () in
  let driver_s = Float.min first_s second_s in
  Gc.full_major ();
  let traced_s, r = Workload.replica w ~seed ~faults:(Some w.faults) spans in
  (* Protocol-level fault rung: the counter under the workload's plan and
     without one, no per-operation spans. *)
  let untraced ~retained faults label =
    Gc.full_major ();
    Span.record spans Span.Protocol label (fun () ->
        snd
          (Workload.replica ~per_op:false ~retained w ~seed ~faults
             (Span.create ~capacity:64)))
  in
  let planned =
    untraced ~retained:true (Some w.faults) "counter under the workload plan"
  in
  let clean = untraced ~retained:false None "counter without a plan" in
  (* Relay rungs at the workload's shape. *)
  let total = r.outcome.total_messages in
  let injection =
    match w.shape with
    | Workload.Closed _ -> Ladder.Per_op (Workload.origins w ~seed)
    | Workload.Open (_, arrivals) ->
        Ladder.Timers (Workload.arrival_plan w arrivals ~seed)
  in
  let rung lane name f =
    Gc.full_major ();
    Span.record spans lane name f
  in
  let bare =
    rung Span.Network "relay" (fun () ->
        Ladder.relay ~retained:true w ~seed ~total injection)
  in
  (* The open-loop path records no traces: its trace rung is the relay in
     that same observation mode, so the difference is a residual. *)
  let kept =
    rung Span.Trace "relay + kept traces" (fun () ->
        Ladder.relay
          ~observe:(if closed then Ladder.Kept_traces else Ladder.No_traces)
          ~retained:true w ~seed ~total injection)
  in
  let inert =
    rung Span.Fault "relay + inert plan" (fun () ->
        Ladder.relay ~faults:inert_plan w ~seed ~total injection)
  in
  let planned_relay =
    rung Span.Fault "relay + workload plan" (fun () ->
        Ladder.relay ~faults:w.faults w ~seed ~total injection)
  in
  let heap_s, heap_words, events =
    rung Span.Heap "heap push/pop_top" (fun () ->
        Ladder.heap w ~seed ~total injection)
  in
  let metrics_s =
    rung Span.Metrics "metrics on_send/on_recv" (fun () ->
        Ladder.metrics ~deliveries:total w)
  in
  let checks =
    [
      ("driver runs pass their checks", o.ok && o'.ok);
      ("traced replica passes its checks", r.outcome.ok);
      ( "traced replica reproduces the driver's values, messages, bottleneck",
        Workload.same_outputs o r.outcome );
      ( "untraced replica has the traced replica's outputs and checksum",
        planned.checksum = r.checksum
        && Workload.same_outputs planned.outcome r.outcome );
      ( "clean counter sends as many messages as under the plan",
        clean.outcome.ok
        && clean.outcome.total_messages = planned.outcome.total_messages
        && (faulted || clean.checksum = planned.checksum) );
      ( "the plan corrupts payloads",
        w.faults.Sim.Fault.byz_rules = [] || planned.corruptions > 0 );
      ( "every relay delivers the workload's message count",
        List.for_all
          (fun (x : Ladder.relay) -> x.deliveries = total)
          [ bare; kept; inert; planned_relay ] );
    ]
  in
  List.iter
    (fun (name, ok) ->
      pr "check    %-66s %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  let correct = controls_ok && List.for_all snd checks in
  let d = bare.deliveries in
  let per_d s = s *. 1e9 /. float_of_int (max 1 d) in
  let words_per_d x = x /. float_of_int (max 1 d) in
  let bytes_per_op words =
    Clock.bytes_of_words (float_of_int words) /. float_of_int w.ops
  in
  let bare_ns = per_d bare.seconds in
  let trace_ns = per_d (kept.seconds -. bare.seconds) in
  let fault_ns = per_d (planned_relay.seconds -. bare.seconds) in
  let heap_ns = heap_s *. 1e9 /. float_of_int events in
  let charge_ns = metrics_s *. 1e9 /. float_of_int (2 * max 1 total) in
  let lower_ns =
    bare_ns
    +. (if closed then trace_ns else 0.)
    +. if faulted then fault_ns else 0.
  in
  let op_us =
    Array.map
      (fun s -> s *. 1e6)
      (Span.durations spans (if closed then "inc_result" else "launch_at"))
  in
  let op_tail, op_tail_pct, op_count = Clock.tail op_us in
  (* A stage the workload skips reads as an empty span. *)
  let stage name =
    if Catalog.applicable w (name ^ "_s") then Span.total spans name
    else
      let id = Span.enter spans ~op:(-1) Span.Checkers ("n/a " ^ name) in
      Span.leave spans id;
      Span.seconds spans id
  in
  (* Work the driver does after the operations. *)
  let checker_names =
    [
      "counter.traces";
      "hotspot.check";
      "values.check";
      "history.analyze";
      "histogram.summary";
      "metrics.read";
    ]
  in
  let checkers_s =
    List.fold_left (fun acc n -> acc +. Span.total spans n) 0. checker_names
  in
  let used_input, skipped_input =
    if closed then ("schedule.origins", "arrivals.merge")
    else ("arrivals.merge", "schedule.origins")
  in
  let replica_s =
    Span.total spans "counter.create"
    +. Span.total spans used_input +. r.cost.busy_s +. checkers_s
  in
  let unattributed_s = driver_s -. replica_s in
  let empty_input = stage skipped_input in
  let values =
    [
      ("heap.ns_per_event", heap_ns);
      ("heap.alloc_words_per_event", heap_words /. float_of_int events);
      ("network.ns_per_delivery", bare_ns);
      ("network.alloc_words_per_delivery", words_per_d bare.alloc_words);
      ("network.deliveries_per_op", float_of_int d /. float_of_int w.ops);
      ("metrics.ns_per_charge", charge_ns);
      ("trace.ns_per_delivery", trace_ns);
      ( "trace.alloc_words_per_delivery",
        words_per_d (kept.alloc_words -. bare.alloc_words) );
      ( "trace.retained_bytes_per_op",
        bytes_per_op (kept.retained_words - bare.retained_words) );
      ("fault.inert_ns_per_delivery", per_d (inert.seconds -. bare.seconds));
      ("fault.ns_per_delivery", fault_ns);
      ( "fault.corruptions_per_op",
        float_of_int planned.corruptions /. float_of_int w.ops );
      ("fault.protocol_s", planned.cost.busy_s -. clean.cost.busy_s);
      ("counter.busy_s", r.cost.busy_s);
      ("counter.op_us_p50", Analysis.Histogram.quantile op_us ~q:0.5);
      ("counter.op_us_tail", op_tail);
      ( "counter.alloc_words_per_op",
        r.cost.alloc_words /. float_of_int w.ops );
      ( "counter.retained_bytes_per_op",
        bytes_per_op (Option.value planned.cost.retained_words ~default:0) );
      ("counter.self_ns_per_delivery", per_d r.cost.busy_s -. lower_ns);
      ("counter.create_s", create_s);
      ("schedule.origins_s", if closed then inputs_s else empty_input);
      ("arrivals.merge_s", if closed then empty_input else inputs_s);
      ("counter.traces_s", stage "counter.traces");
      ("hotspot.check_s", stage "hotspot.check");
      ("history.analyze_s", stage "history.analyze");
      ("histogram.summary_s", stage "histogram.summary");
      ("gc.minor_collections", float_of_int r.cost.minor_gcs);
      ("gc.major_collections", float_of_int r.cost.major_gcs);
      ("trace_overhead", traced_s /. driver_s);
      ("unattributed_s", unattributed_s);
    ]
  in
  pr "\nper-layer metrics (n/a: the workload does not take this path; the \
      value is the residual or empty span measured in its place)\n";
  List.iter
    (fun (m : Catalog.metric) ->
      pr "%-34s %14.6g %-4s moves: %s\n" m.name (List.assoc m.name values)
        (if Catalog.applicable w m.name then "" else "n/a")
        m.note)
    Catalog.per_layer;
  pr "counter.op_us_tail is p%.3f of %d operation spans (10 beyond)\n"
    op_tail_pct op_count;
  (* Where the Driver call's time goes. The per-delivery rungs split the
     protocol's busy time; the rest comes from spans. *)
  let secs ns = ns *. float_of_int d *. 1e-9 in
  let heap_part = heap_ns *. float_of_int events *. 1e-9 in
  let metrics_part = charge_ns *. float_of_int (2 * total) *. 1e-9 in
  let rows =
    [
      ("inputs + counter.create", replica_s -. r.cost.busy_s -. checkers_s);
      ("heap", heap_part);
      ("metrics", metrics_part);
      ("network (self)", secs bare_ns -. heap_part -. metrics_part);
      ("trace", if closed then secs trace_ns else 0.);
      ("fault", if faulted then secs fault_ns else 0.);
      ("protocol (self)", r.cost.busy_s -. secs lower_ns);
      ("checkers", checkers_s);
      ("unattributed", unattributed_s);
    ]
  in
  pr "\nattribution of the Driver call (%.4f s untraced, %.4f s traced):\n"
    driver_s traced_s;
  List.iter
    (fun (name, s) ->
      pr "  %-26s %9.4f s  %6.1f%%\n" name s (100. *. s /. driver_s))
    rows;
  pr "ladder (ns/delivery): relay %.1f, + inert fault plan %.1f%s\n" bare_ns
    (bare_ns +. per_d (inert.seconds -. bare.seconds))
    (if closed then Printf.sprintf ", + kept traces %.1f" (bare_ns +. trace_ns)
     else ", kept traces n/a");
  pr "span self time by lane (replica, driver calls and ladder rungs):\n";
  List.iter
    (fun (lane, s) ->
      if s > 0. then pr "  %-10s %9.4f s\n" (Span.lane_name lane) s)
    (Span.self_by_lane spans);
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let path = Filename.concat out (w.name ^ ".trace.json") in
  Span.write_chrome spans path;
  pr "spans: %d written to %s\n" spans.Span.count path;
  (* Two driver calls, the traced replica, the planned and clean runs. *)
  let attempted = 5 * w.ops in
  { correct; attempted; failed = (if correct then 0 else attempted); values }

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out = ref "perfbench/out" and selftest = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes spans");
      ("--selftest", Arg.Set selftest, " run the negative controls only");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then exit (if controls () then 0 else 1);
  match Workload.find !workload with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", "
           (List.map (fun (w : Workload.t) -> w.name) Workload.all));
      exit 2
  | Some w ->
      pr "workload %s\nseed %d\n" (Workload.describe w) !seed;
      if !trace = 0 then
        print_json (end_to_end w ~seed:!seed ~seconds:!seconds)
      else print_json (per_layer w ~seed:!seed ~out:!out)
