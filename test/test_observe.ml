(* Streaming observation against retained history: the Hot Spot monitor
   against the pairwise definition, Driver.run's streamed report against
   one computed from a retained twin's traces, and the observe contract
   of every counter (one trace per operation, in order, nothing retained,
   clones start unobserved). *)

let check = Alcotest.check

(* The Hot Spot Lemma checked pairwise over a retained history, as
   [Hotspot.check] did before it became a fold over the monitor. *)
let reference_violations traces =
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
        let acc =
          if Sim.Trace.intersects a b then acc
          else
            {
              Counter.Hotspot.first_op = Sim.Trace.op_index a;
              second_op = Sim.Trace.op_index b;
              first_origin = Sim.Trace.origin a;
              second_origin = Sim.Trace.origin b;
            }
            :: acc
        in
        walk acc rest
    | [ _ ] | [] -> List.rev acc
  in
  walk [] traces

(* ------------------------------------------------------------------ *)
(* (a) The monitor agrees with the pairwise definition *)

let n = 6

(* A trace is an origin in 1..n plus messages between ids up to 3n, so
   replacement ids above n, self-sends and message-free traces (origin
   only) all occur. *)
let gen_traces =
  let open QCheck2.Gen in
  let id = int_range 1 (3 * n) in
  let trace = pair (int_range 1 n) (list_size (int_range 0 4) (pair id id)) in
  list_size (int_range 0 12) trace

let build specs =
  List.mapi
    (fun op_index (origin, msgs) ->
      let t = Sim.Trace.create ~op_index ~origin () in
      List.iteri
        (fun seq (src, dst) ->
          Sim.Trace.record t
            { Sim.Trace.seq; time = float_of_int seq; src; dst; tag = "m";
              parent = 0 })
        msgs;
      t)
    specs

let print_specs =
  QCheck2.Print.(list (pair int (list (pair int int))))

let prop_monitor_matches_pairwise =
  QCheck2.Test.make ~name:"monitor = pairwise intersects" ~count:1000
    ~print:print_specs gen_traces (fun specs ->
      let traces = build specs in
      let monitor = Counter.Hotspot.create () in
      List.iter (Counter.Hotspot.feed monitor) traces;
      let expected = reference_violations traces in
      Counter.Hotspot.violations monitor = expected
      && Counter.Hotspot.check traces = expected)

let test_monitor_cases () =
  let violations specs = List.length (Counter.Hotspot.check (build specs)) in
  check Alcotest.int "two origin-only traces of one processor meet" 0
    (violations [ (3, []); (3, []) ]);
  check Alcotest.int "origin-only traces of two processors are disjoint" 1
    (violations [ (1, []); (2, []) ]);
  check Alcotest.int "a self-send puts its processor in I_p" 0
    (violations [ (1, [ (5, 5) ]); (5, []) ]);
  check Alcotest.int "ids far above the stamp array still meet" 0
    (violations [ (1, [ (1, 5000) ]); (2, [ (2, 5000) ]) ]);
  (* Meeting a trace two back is not enough: only the predecessor counts. *)
  check Alcotest.int "only consecutive pairs count" 2
    (violations [ (1, []); (2, []); (1, []) ])

(* ------------------------------------------------------------------ *)
(* (b) Driver.run's streamed report = the retained twin's *)

type case = {
  label : string;
  counter : Counter.Counter_intf.counter;
  case_n : int;
  schedule : Counter.Schedule.t;
  faults : Sim.Fault.t option;
}

let plan s =
  match Sim.Fault.of_string s with
  | Ok p -> p
  | Error e -> invalid_arg e

let fault_free counter =
  let (module C : Counter.Counter_intf.S) = counter in
  {
    label = C.name;
    counter;
    case_n = 27;
    schedule = Counter.Schedule.Random 60;
    faults = None;
  }

let faulted label counter ~n ~ops faults =
  {
    label;
    counter;
    case_n = n;
    schedule = Counter.Schedule.Random ops;
    faults = Some (plan faults);
  }

let cases =
  List.map fault_free (Baselines.Registry.all @ Baselines.Registry.broken)
  @ [
      faulted "retire-ft crash plan" Baselines.Registry.retire_ft ~n:81
        ~ops:200 "crash:5@3/crash:9@40/drop:0.01";
      faulted "quorum-majority crash plan" Baselines.Registry.quorum_majority
        ~n:9 ~ops:60 "crash:2@5/crash:3@10";
      faulted "durable crash/recover" Baselines.Registry.durable ~n:4 ~ops:40
        "crash:1@30/recover:1@60";
      faulted "sync-count b = f kings" Baselines.Registry.sync_count ~n:7
        ~ops:40 "byz:3@0/byz:2@0/byzval:3:off-by-7/byzval:2:max-int/byzeq:3";
    ]

let seed = 11

(* What Driver.run reports from traces, computed the old way: run the
   same operations on a twin that retains everything, then read
   [C.traces]. *)
let retained_reference c =
  let (module C : Counter.Counter_intf.S) = c.counter in
  let n = C.supported_n c.case_n in
  let twin = C.create ?faults:c.faults ~seed ~n () in
  let origins =
    Counter.Schedule.origins c.schedule (Sim.Rng.create ~seed:(seed + 1)) ~n
  in
  let outcomes = List.map (fun origin -> C.inc_result twin ~origin) origins in
  let traces = C.traces twin in
  let total, worst =
    List.fold_left
      (fun (total, worst) t ->
        let d = Sim.Trace.duration t in
        (total +. d, Float.max worst d))
      (0., 0.) traces
  in
  let violations = reference_violations traces in
  let metrics = C.metrics twin in
  ( List.length traces,
    List.filter_map Counter.Counter_intf.outcome_value outcomes,
    List.length violations,
    List.fold_left (fun m t -> max m (Sim.Trace.message_count t)) 0 traces,
    (match traces with
    | [] -> 0.
    | _ -> total /. float_of_int (List.length traces)),
    worst,
    Sim.Metrics.total_messages metrics,
    Sim.Metrics.bottleneck metrics )

let test_driver_matches_retained () =
  let reports =
    List.map
      (fun c ->
        let ( traced,
              values,
              violations,
              max_msgs,
              mean_lat,
              max_lat,
              messages,
              (bproc, bload) ) =
          retained_reference c
        in
        let r =
          Counter.Driver.run ~seed ?faults:c.faults c.counter ~n:c.case_n
            ~schedule:c.schedule
        in
        let l = c.label in
        check Alcotest.int (l ^ ": one trace per op") r.ops traced;
        check Alcotest.(list int) (l ^ ": values") values
          (Array.to_list r.values);
        check Alcotest.int (l ^ ": hot spot violations") violations
          r.hotspot_violations;
        check Alcotest.bool (l ^ ": hotspot_ok") (violations = 0) r.hotspot_ok;
        check Alcotest.int (l ^ ": max_op_messages") max_msgs
          r.max_op_messages;
        (* Bit-identical, not approximately equal: the sum runs in the
           same chronological order. *)
        check Alcotest.bool (l ^ ": mean latency bits") true
          (Int64.equal (Int64.bits_of_float mean_lat)
             (Int64.bits_of_float r.mean_op_latency));
        check Alcotest.bool (l ^ ": max latency bits") true
          (Int64.equal (Int64.bits_of_float max_lat)
             (Int64.bits_of_float r.max_op_latency));
        check Alcotest.int (l ^ ": messages") messages r.total_messages;
        check Alcotest.(pair int int) (l ^ ": bottleneck") (bproc, bload)
          (r.bottleneck_proc, r.bottleneck_load);
        r)
      cases
  in
  (* Without a stalling run and a run with Hot Spot violations, the
     comparison above would prove nothing about those paths. *)
  check Alcotest.bool "some case stalls" true
    (List.exists (fun (r : Counter.Driver.report) -> r.stalled > 0) reports);
  check Alcotest.bool "some case violates the Hot Spot Lemma" true
    (List.exists
       (fun (r : Counter.Driver.report) -> r.hotspot_violations > 0)
       reports)

(* ------------------------------------------------------------------ *)
(* (c) The observe contract *)

(* What must match between an observed trace and its retained twin; the
   duration is printed in hex so equality is bit-exact. *)
let shape t =
  Printf.sprintf "#%d p%d %d msgs %h [%s]" (Sim.Trace.op_index t)
    (Sim.Trace.origin t) (Sim.Trace.message_count t) (Sim.Trace.duration t)
    (String.concat " " (List.map string_of_int (Sim.Trace.processors t)))

let test_observe_conformance () =
  List.iter
    (fun (module C : Counter.Counter_intf.S) ->
      let n = C.supported_n 16 in
      let observed = C.create ~seed:5 ~n () in
      let twin = C.create ~seed:5 ~n () in
      let before = 3 and after = 2 * n in
      let origin i = 1 + (i * 7 mod n) in
      for i = 0 to before - 1 do
        ignore (C.inc observed ~origin:(origin i));
        ignore (C.inc twin ~origin:(origin i))
      done;
      let seen = ref [] in
      C.observe observed (fun t -> seen := t :: !seen);
      for i = before to before + after - 1 do
        let got = List.length !seen in
        ignore (C.inc observed ~origin:(origin i));
        ignore (C.inc twin ~origin:(origin i));
        check Alcotest.int (C.name ^ ": one trace per op") (got + 1)
          (List.length !seen)
      done;
      let twin_traces = C.traces twin in
      check Alcotest.int (C.name ^ ": retained log stopped growing") before
        (List.length (C.traces observed));
      let shapes = List.map shape in
      check
        Alcotest.(list string)
        (C.name ^ ": retained part = twin's first ops")
        (shapes (List.filteri (fun i _ -> i < before) twin_traces))
        (shapes (C.traces observed));
      check
        Alcotest.(list string)
        (C.name ^ ": observed = twin's later ops, in order")
        (shapes (List.filteri (fun i _ -> i >= before) twin_traces))
        (shapes (List.rev !seen));
      (* A clone inherits the retained log but not the observer: its
         operations are its own to retain. *)
      let clone = C.clone observed in
      check Alcotest.int (C.name ^ ": clone starts with the retained log")
        before (List.length (C.traces clone));
      let seen_before = List.length !seen in
      ignore (C.inc clone ~origin:1);
      check Alcotest.int (C.name ^ ": clone's op not observed") seen_before
        (List.length !seen);
      check Alcotest.int (C.name ^ ": clone retains its own op") (before + 1)
        (List.length (C.traces clone));
      check Alcotest.int (C.name ^ ": original's log untouched by clone")
        before (List.length (C.traces observed)))
    ((Baselines.Registry.sync_count :: Baselines.Registry.all)
    @ Baselines.Registry.broken)

let () =
  Alcotest.run "observe"
    [
      ( "hotspot-monitor",
        [
          QCheck_alcotest.to_alcotest prop_monitor_matches_pairwise;
          Alcotest.test_case "edge cases" `Quick test_monitor_cases;
        ] );
      ( "driver-vs-retained",
        [
          Alcotest.test_case "every counter, faults, king plan" `Quick
            test_driver_matches_retained;
        ] );
      ( "observe",
        [ Alcotest.test_case "conformance and clones" `Quick
            test_observe_conformance ] );
    ]
