(* The benchmark's named workloads, the calls that set them up and run
   them, and the checks every run's outputs must pass.

   End-to-end runs go through the same entry points as [dcount run] and
   [dcount load] ([Counter.Driver.run], [Counter.Driver.run_load]). The
   replica below repeats what those entry points do, call by call, with a
   span around each call into a layer; the traced run checks that it
   reproduces the untraced outputs, so both describe the same program. *)

type shape =
  | Closed of Counter.Counter_intf.counter
      (** One client, each [inc] run to quiescence: the paper's model. *)
  | Open of Counter.Counter_intf.concurrent * Sim.Arrivals.t
      (** Open-loop arrivals injected regardless of completions. *)

type t = {
  name : string;
  n : int;
  ops : int;
  delay : Sim.Delay.t;
  faults : Sim.Fault.t;
  shape : shape;
  relay_width : int;
      (** Parallel relay chains per operation in the ladder's null
          protocol: the size of one message wave of the real protocol. *)
}

let byz_king_plan =
  "byz:3@0/byz:2@0/byzval:3:off-by-7/byzval:2:max-int/byzeq:3"

let parse_plan s =
  match Sim.Fault.of_string s with
  | Ok plan -> plan
  | Error e -> invalid_arg ("Workload: bad fault plan: " ^ e)

let closed name =
  match Baselines.Registry.find name with
  | Some c -> c
  | None -> invalid_arg ("Workload: no counter " ^ name)

let concurrent name =
  match Baselines.Registry.find_concurrent name with
  | Some c -> c
  | None -> invalid_arg ("Workload: no concurrent counter " ^ name)

let all =
  [
    {
      name = "run-retire-tree";
      n = 1024;
      ops = 100_000;
      delay = Sim.Delay.default;
      faults = Sim.Fault.none;
      shape = Closed (closed "retire-tree");
      relay_width = 1;
    };
    {
      name = "load-combining";
      n = 64;
      ops = 100_000;
      delay = Sim.Delay.Exponential 1.0;
      faults = Sim.Fault.none;
      shape = Open (concurrent "combining", Sim.Arrivals.Poisson 0.2);
      relay_width = 1;
    };
    {
      name = "byz-sync-count";
      n = 7;
      ops = 5_000;
      delay = Sim.Delay.default;
      faults = parse_plan byz_king_plan;
      shape = Closed Baselines.Registry.sync_count;
      relay_width = 7 * 6;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let counter_name w =
  match w.shape with
  | Closed (module C) -> C.name
  | Open ((module C), _) -> C.name

let describe w =
  let inputs =
    match w.shape with
    | Closed _ -> Printf.sprintf "closed loop, schedule random:%d" w.ops
    | Open (_, a) ->
        Printf.sprintf "open loop, arrivals %s, %d ops"
          (Sim.Arrivals.to_string a) w.ops
  in
  Printf.sprintf "%s: counter=%s n=%d delay=%s faults=%s; %s" w.name
    (counter_name w) w.n
    (Sim.Delay.to_string w.delay)
    (if Sim.Fault.is_none w.faults then "none"
     else Sim.Fault.to_string w.faults)
    inputs

(* Origins of the closed loop and plan of the open loop, exactly as the
   driver derives them from its seed. *)
let origins w ~seed =
  Counter.Schedule.origins (Counter.Schedule.Random w.ops)
    (Sim.Rng.create ~seed:(seed + 1))
    ~n:w.n

let arrival_plan w arrivals ~seed =
  Sim.Arrivals.merge arrivals ~seed:(seed + 1) ~n:w.n ~ops:w.ops

(* One set-up: build the counter and generate the inputs, in the driver's
   order. Returns the two host times. *)
let setup w ~seed =
  let timed f =
    fst (Clock.time (fun () -> ignore (Sys.opaque_identity (f ()))))
  in
  match w.shape with
  | Closed (module C) ->
      let create_s =
        timed (fun () ->
            C.create ~delay:w.delay ~faults:w.faults ~seed ~n:w.n ())
      in
      (create_s, timed (fun () -> origins w ~seed))
  | Open ((module C), arrivals) ->
      let create_s =
        timed (fun () ->
            C.create ~delay:w.delay ~faults:w.faults ~seed ~n:w.n ())
      in
      (create_s, timed (fun () -> arrival_plan w arrivals ~seed))

(* ------------------------------------------------------------------ *)
(* Output checks *)

let closed_ok ~ops (r : Counter.Driver.report) =
  r.ops = ops && r.completed = ops && r.stalled = 0 && r.values_exact
  && r.sequentially_ordered && r.hotspot_ok

let open_ok ~ops (r : Counter.Driver.load_report) =
  r.requested = ops && r.completed = ops && r.lost = 0
  && r.analysis.Counter.History.linearizable

(* What an end-to-end run reports besides its time. *)
type outcome = {
  ok : bool;
  values : int array;
      (** Closed loop: values in completion order. Open loop: values in
          invocation order. *)
  total_messages : int;
  bottleneck : int * int;
  latencies : float array option;
      (** Virtual latency per operation, when the entry point returns it. *)
}

(* Open-loop values in invocation order, the plan's operation order. *)
let open_values (history : Counter.History.op list) =
  let by_invocation (a : Counter.History.op) (b : Counter.History.op) =
    match Float.compare a.invoked_at b.invoked_at with
    | 0 -> Int.compare a.origin b.origin
    | c -> c
  in
  Array.of_list
    (List.map
       (fun (o : Counter.History.op) -> o.value)
       (List.sort by_invocation history))

let latencies_of (history : Counter.History.op list) =
  Array.of_list
    (List.map
       (fun (o : Counter.History.op) -> o.completed_at -. o.invoked_at)
       history)

(* One end-to-end run through the driver entry point: host seconds of the
   call and its checked outcome. *)
let run_driver w ~seed =
  match w.shape with
  | Closed c ->
      let s, r =
        Clock.time (fun () ->
            Counter.Driver.run ~seed ~delay:w.delay ~faults:w.faults c ~n:w.n
              ~schedule:(Counter.Schedule.Random w.ops))
      in
      ( s,
        {
          ok = closed_ok ~ops:w.ops r;
          values = r.values;
          total_messages = r.total_messages;
          bottleneck = (r.bottleneck_proc, r.bottleneck_load);
          latencies = None;
        } )
  | Open (c, arrivals) ->
      let s, r =
        Clock.time (fun () ->
            Counter.Driver.run_load ~seed ~delay:w.delay ~faults:w.faults c
              ~n:w.n ~arrivals ~ops:w.ops)
      in
      ( s,
        {
          ok = open_ok ~ops:w.ops r;
          values = open_values r.history;
          total_messages = r.total_messages;
          bottleneck = (r.bottleneck_proc, r.bottleneck_load);
          latencies = Some (latencies_of r.history);
        } )

(* ------------------------------------------------------------------ *)
(* The replica: the driver's calls, one span per call into a layer. *)

(* What a replica's operation calls cost on the host. *)
type cost = {
  busy_s : float;  (** Host time inside the counter's operation calls. *)
  alloc_words : float;  (** Allocated during the operation calls. *)
  retained_words : int option;
      (** Live words the counter gained over the run, when measured. *)
  minor_gcs : int;
  major_gcs : int;
}

type replica = {
  outcome : outcome;
  checksum : int;
  corruptions : int;
  cost : cost;
}

(* Runs the operation calls [f] inside one "ops" span. [retained]
   measures live words before and after, with full collections that stay
   outside the span. *)
let measure_ops ~retained spans f =
  let base = if retained then Clock.live_words () else 0 in
  let minor0, major0 = Clock.collections () in
  let w0 = Clock.allocated_words () in
  let loop = Span.enter spans ~op:(-1) Span.Protocol "ops" in
  let x = f () in
  Span.leave spans loop;
  let alloc_words = Clock.allocated_words () -. w0 in
  let minor1, major1 = Clock.collections () in
  let retained_words =
    if retained then Some (Clock.live_words () - base) else None
  in
  ( x,
    {
      busy_s = Span.seconds spans loop;
      alloc_words;
      retained_words;
      minor_gcs = minor1 - minor0;
      major_gcs = major1 - major0;
    } )

let per_op_spans spans ~per_op ~op lane name =
  if per_op then Span.enter spans ~op lane name else -1

let leave_op spans id = if id >= 0 then Span.leave spans id

(* [per_op] records a span around every operation call; [retained]
   measures the live words the counter gains; [faults] overrides the
   workload's plan ([None] builds the counter without one). *)
let replica ?(per_op = true) ?(retained = false) w ~seed ~faults spans =
  let root = Span.enter spans ~op:(-1) Span.Driver ("replica " ^ w.name) in
  let result =
    match w.shape with
    | Closed (module C) ->
        let c =
          Span.record spans Span.Protocol "counter.create" (fun () ->
              C.create ~delay:w.delay ?faults ~seed ~n:w.n ())
        in
        let origins =
          Span.record spans Span.Inputs "schedule.origins" (fun () ->
              origins w ~seed)
        in
        let outcomes = Array.make w.ops (-1) in
        let stalls = ref 0 in
        let (), cost =
          measure_ops ~retained spans (fun () ->
              List.iteri
                (fun op origin ->
                  let id =
                    per_op_spans spans ~per_op ~op Span.Protocol "inc_result"
                  in
                  (match C.inc_result c ~origin with
                  | Counter.Counter_intf.Completed v -> outcomes.(op) <- v
                  | Counter.Counter_intf.Stalled _ -> incr stalls);
                  leave_op spans id)
                origins)
        in
        let traces =
          Span.record spans Span.Checkers "counter.traces" (fun () ->
              C.traces c)
        in
        let violations =
          Span.record spans Span.Checkers "hotspot.check" (fun () ->
              Counter.Hotspot.check traces)
        in
        let m =
          Span.record spans Span.Metrics "metrics.read" (fun () -> C.metrics c)
        in
        let values =
          Array.of_list
            (List.filter (fun v -> v >= 0) (Array.to_list outcomes))
        in
        let ok =
          Span.record spans Span.Checkers "values.check" (fun () ->
              !stalls = 0
              && Array.length values = w.ops
              && Counter.Driver.values_permutation values
              && Counter.Driver.values_sequential values
              && violations = [])
        in
        let latencies =
          Array.of_list (List.map Sim.Trace.duration traces)
        in
        {
          outcome =
            {
              ok;
              values;
              total_messages = Sim.Metrics.total_messages m;
              bottleneck = Sim.Metrics.bottleneck m;
              latencies = Some latencies;
            };
          checksum = Sim.Metrics.checksum m;
          corruptions = Sim.Metrics.corruptions m;
          cost;
        }
    | Open ((module C), arrivals) ->
        let c =
          Span.record spans Span.Protocol "counter.create" (fun () ->
              C.create ~delay:w.delay ?faults ~seed ~n:w.n ())
        in
        let plan =
          Span.record spans Span.Inputs "arrivals.merge" (fun () ->
              arrival_plan w arrivals ~seed)
        in
        let completions, cost =
          measure_ops ~retained spans (fun () ->
              Array.iteri
                (fun op (at, origin) ->
                  let id =
                    per_op_spans spans ~per_op ~op Span.Protocol "launch_at"
                  in
                  C.launch_at c ~op ~origin ~at;
                  leave_op spans id)
                plan;
              Span.record spans Span.Protocol "run_open" (fun () ->
                  C.run_open c);
              Span.record spans Span.Protocol "completions" (fun () ->
                  C.completions c))
        in
        let history =
          List.filter_map
            (fun (op, value, completed_at) ->
              if op < 0 || op >= w.ops then None
              else
                let invoked_at, origin = plan.(op) in
                Some
                  { Counter.History.origin; value; invoked_at; completed_at })
            completions
        in
        let analysis =
          Span.record spans Span.Checkers "history.analyze" (fun () ->
              Counter.History.analyze history)
        in
        let latencies = latencies_of history in
        let (_ : Analysis.Histogram.latency_summary) =
          Span.record spans Span.Checkers "histogram.summary" (fun () ->
              Analysis.Histogram.summary latencies)
        in
        let m =
          Span.record spans Span.Metrics "metrics.read" (fun () -> C.metrics c)
        in
        let lost = w.ops - List.length history in
        {
          outcome =
            {
              ok = lost = 0 && analysis.Counter.History.linearizable;
              values = open_values history;
              total_messages = Sim.Metrics.total_messages m;
              bottleneck = Sim.Metrics.bottleneck m;
              latencies = Some latencies;
            };
          checksum = Sim.Metrics.checksum m;
          corruptions = Sim.Metrics.corruptions m;
          cost;
        }
  in
  Span.leave spans root;
  (Span.seconds spans root, result)

(* The deterministic outputs two runs of the same inputs must share. *)
let same_outputs (a : outcome) (b : outcome) =
  a.values = b.values
  && a.total_messages = b.total_messages
  && a.bottleneck = b.bottleneck
