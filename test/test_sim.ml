(* Tests for the simulator substrate: Rng, Heap, Delay, Trace, Comm_list,
   Metrics, Network, Ltbl. *)

let check = Alcotest.check

module Heap = Sim.Heap

(* A trivial ping protocol used by the network and DAG tests: processor p
   sends "ping" to q, q replies "pong". *)
type ping = Ping | Pong

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:123 and b = Sim.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let draws_a = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let draws_b = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (draws_a <> draws_b)

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Sim.Rng.int_in rng ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create ~seed:99 in
  let child = Sim.Rng.split parent in
  (* The child stream must not be a shifted copy of the parent stream. *)
  let a = List.init 10 (fun _ -> Sim.Rng.bits64 parent) in
  let b = List.init 10 (fun _ -> Sim.Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_copy () =
  let a = Sim.Rng.create ~seed:5 in
  ignore (Sim.Rng.int a 10);
  let b = Sim.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int "copy tracks" (Sim.Rng.int a 999) (Sim.Rng.int b 999)
  done

let test_rng_permutation () =
  let rng = Sim.Rng.create ~seed:3 in
  let p = Sim.Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int))
    "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_float_bounds () =
  let rng = Sim.Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0. && v < 2.5)
  done

let prop_rng_int_uniformish =
  QCheck2.Test.make ~name:"rng hits every residue eventually"
    ~count:20
    QCheck2.Gen.(int_range 2 12)
    (fun bound ->
      let rng = Sim.Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to 200 * bound do
        seen.(Sim.Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun (p, v) -> Heap.push h ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list string)) "pop order" [ "z"; "a"; "b"; "c" ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list int)) "ties are FIFO" [ 1; 2; 3; 4; 5 ] order

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~prio:2. "b";
  Heap.push h ~prio:1. "a";
  (match Heap.pop h with
  | Some (p, v) ->
      check (Alcotest.float 0.0) "prio" 1. p;
      check Alcotest.string "value" "a" v
  | None -> Alcotest.fail "expected element");
  Heap.push h ~prio:0.5 "z";
  (match Heap.pop h with
  | Some (_, v) -> check Alcotest.string "later insert wins" "z" v
  | None -> Alcotest.fail "expected element");
  check Alcotest.int "size" 1 (Heap.size h)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~prio:1. 1;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_matches_sorted_model =
  QCheck2.Test.make ~name:"heap pops = stable sort by priority" ~count:200
    QCheck2.Gen.(list (pair (float_bound_inclusive 100.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) items;
      let popped = Heap.to_sorted_list h in
      (* Model: stable sort on priority preserves insertion order of
         ties, like the heap's sequence numbers. *)
      let model =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare p1 p2)
          items
      in
      popped = model)

(* ------------------------------------------------------------------ *)
(* Delay *)

let test_delay_constant () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 10 do
    check (Alcotest.float 0.0) "constant" 1.5
      (Sim.Delay.sample (Sim.Delay.Constant 1.5) rng)
  done

let test_delay_positive () =
  let rng = Sim.Rng.create ~seed:1 in
  List.iter
    (fun d ->
      for _ = 1 to 500 do
        Alcotest.(check bool) "positive" true (Sim.Delay.sample d rng > 0.)
      done)
    [
      Sim.Delay.Constant 0.;
      Sim.Delay.Uniform (0., 1.);
      Sim.Delay.Exponential 1.0;
      Sim.Delay.Adversarial_jitter 1.0;
    ]

let test_delay_uniform_range () =
  let rng = Sim.Rng.create ~seed:2 in
  for _ = 1 to 500 do
    let v = Sim.Delay.sample (Sim.Delay.Uniform (2., 5.)) rng in
    Alcotest.(check bool) "in [2,5)" true (v >= 2. && v < 5.)
  done

let test_delay_parse_roundtrip () =
  List.iter
    (fun d ->
      match Sim.Delay.of_string (Sim.Delay.to_string d) with
      | Ok d' ->
          check Alcotest.string "roundtrip" (Sim.Delay.to_string d)
            (Sim.Delay.to_string d')
      | Error e -> Alcotest.fail e)
    [
      Sim.Delay.Constant 1.;
      Sim.Delay.Uniform (0.5, 2.);
      Sim.Delay.Exponential 3.;
      Sim.Delay.Adversarial_jitter 0.1;
    ]

let test_delay_parse_errors () =
  List.iter
    (fun s ->
      match Sim.Delay.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %s" s
      | Error _ -> ())
    [ ""; "constant"; "uniform:1"; "exp:x"; "nope:1" ]

(* ------------------------------------------------------------------ *)
(* Trace / Comm_list *)

let make_trace events =
  let t = Sim.Trace.create ~op_index:0 ~origin:3 () in
  List.iteri
    (fun i (src, dst) ->
      Sim.Trace.record t
        { Sim.Trace.seq = i + 1; time = float_of_int i; src; dst; tag = "m"; parent = i })
    events;
  t

let test_trace_processors () =
  let t = make_trace [ (3, 11); (11, 17); (17, 3) ] in
  Alcotest.(check (list int)) "I_p" [ 3; 11; 17 ] (Sim.Trace.processors t);
  Alcotest.(check bool) "touches" true (Sim.Trace.touches t 11);
  Alcotest.(check bool) "not touches" false (Sim.Trace.touches t 12)

let test_trace_empty_includes_origin () =
  let t = make_trace [] in
  Alcotest.(check (list int)) "origin only" [ 3 ] (Sim.Trace.processors t);
  check Alcotest.int "no messages" 0 (Sim.Trace.message_count t)

let test_trace_intersects () =
  let a = make_trace [ (3, 11) ] in
  let b = make_trace [ (3, 17) ] in
  Alcotest.(check bool) "share origin 3" true (Sim.Trace.intersects a b);
  let c =
    let t = Sim.Trace.create ~op_index:1 ~origin:20 () in
    Sim.Trace.record t
      { Sim.Trace.seq = 1; time = 0.; src = 20; dst = 21; tag = "m"; parent = 0 };
    t
  in
  Alcotest.(check bool) "disjoint" false (Sim.Trace.intersects a c)

let test_trace_duration () =
  let t = Sim.Trace.create ~start_time:3.0 ~op_index:0 ~origin:1 () in
  check (Alcotest.float 1e-9) "empty duration" 0. (Sim.Trace.duration t);
  Sim.Trace.record t
    { Sim.Trace.seq = 1; time = 4.0; src = 1; dst = 2; tag = "m"; parent = 0 };
  Sim.Trace.record t
    { Sim.Trace.seq = 2; time = 6.5; src = 2; dst = 1; tag = "m"; parent = 1 };
  check (Alcotest.float 1e-9) "duration" 3.5 (Sim.Trace.duration t)

(* Sim.Trace against a plain-list model, at the sizes around its
   128-event chunk boundary and well past it. *)
let prop_trace_matches_list_model =
  let open QCheck2.Gen in
  let gen =
    oneofl [ 0; 1; 127; 128; 129; 256; 257 ] >>= fun small ->
    int_range 900 1100 >>= fun large ->
    oneofl [ small; large ] >>= fun len ->
    int_range 1 40 >>= fun origin ->
    float_bound_inclusive 5. >>= fun start_time ->
    list_repeat len (triple (int_range 1 40) (int_range 1 40) (float_bound_inclusive 50.))
    >>= fun msgs -> pure (origin, start_time, msgs)
  in
  let print (origin, start_time, msgs) =
    Printf.sprintf "origin=%d start=%g %d events" origin start_time
      (List.length msgs)
  in
  QCheck2.Test.make ~name:"trace = a list model across chunk boundaries"
    ~count:60 ~print gen (fun (origin, start_time, msgs) ->
      let events =
        List.mapi
          (fun i (src, dst, time) ->
            { Sim.Trace.seq = i + 1; time; src; dst; tag = "m"; parent = i })
          msgs
      in
      let t = Sim.Trace.create ~start_time ~op_index:5 ~origin () in
      List.iter (Sim.Trace.record t) events;
      let model_seq =
        origin
        :: List.concat_map (fun (e : Sim.Trace.event) -> [ e.dst; e.src ]) events
      in
      let seen = ref [] in
      Sim.Trace.iter_processors (fun p -> seen := p :: !seen) t;
      let model_duration =
        match List.rev events with
        | [] -> 0.
        | last :: _ -> last.time -. start_time
      in
      let model_pp =
        let b = Buffer.create 64 in
        let ppf = Format.formatter_of_buffer b in
        Format.fprintf ppf "@[<v>op #%d initiated by processor %d (%d messages)@,"
          5 origin (List.length events);
        List.iter
          (fun (e : Sim.Trace.event) ->
            Format.fprintf ppf "  %4d -(%s)-> %-4d @@ t=%.3f@," e.src e.tag
              e.dst e.time)
          events;
        Format.fprintf ppf "@]@?";
        Buffer.contents b
      in
      let procs = List.sort_uniq Int.compare model_seq in
      Sim.Trace.events t = events
      && Sim.Trace.message_count t = List.length events
      && Float.equal (Sim.Trace.duration t) model_duration
      && List.rev !seen = model_seq
      && Sim.Trace.processors t = procs
      && List.for_all
           (fun q -> Sim.Trace.touches t q = List.mem q procs)
           (List.init 42 Fun.id)
      && String.equal (Format.asprintf "%a" Sim.Trace.pp t) model_pp)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let test_trace_to_dot () =
  let t = make_trace [ (3, 11); (11, 17); (17, 3) ] in
  let dot = Sim.Trace.to_dot t in
  Alcotest.(check bool) "digraph" true (contains_substring dot "digraph");
  Alcotest.(check bool) "has origin node" true
    (contains_substring dot "[label=\"3\"]");
  Alcotest.(check bool) "has arcs" true (contains_substring dot "->");
  (* The origin both starts the process and receives the final message:
     it must appear as TWO dag nodes (two label-3 declarations). *)
  let count_label3 =
    let needle = "[label=\"3\"];" in
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length dot then acc
      else if String.sub dot i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check Alcotest.int "origin appears twice" 2 count_label3

let test_comm_list_structure () =
  (* The paper's Fig. 1 example flattened: 3 -> 11 -> 17 -> 27, 17 -> 7,
     7 -> 3 (answer). Delivery order gives topological order. *)
  let t = make_trace [ (3, 11); (11, 17); (17, 27); (17, 7); (7, 3) ] in
  let l = Sim.Comm_list.of_trace t in
  check Alcotest.int "origin" 3 (Sim.Comm_list.origin l);
  check Alcotest.int "length = messages (no dups here)" 5
    (Sim.Comm_list.length l);
  Alcotest.(check (list int))
    "nodes" [ 3; 11; 17; 27; 7; 3 ]
    (Sim.Comm_list.nodes l)

let test_comm_list_merges_consecutive () =
  (* Two consecutive deliveries to the same processor merge into one DAG
     node in the list. *)
  let t = make_trace [ (3, 11); (5, 11); (11, 9) ] in
  let l = Sim.Comm_list.of_trace t in
  Alcotest.(check (list int)) "merged" [ 3; 11; 9 ] (Sim.Comm_list.nodes l)

let test_comm_list_empty () =
  let t = make_trace [] in
  let l = Sim.Comm_list.of_trace t in
  check Alcotest.int "length 0" 0 (Sim.Comm_list.length l);
  check Alcotest.int "label 1 = origin" 3 (Sim.Comm_list.label l 1)

let test_comm_list_label_out_of_range () =
  let l = Sim.Comm_list.of_trace (make_trace []) in
  Alcotest.check_raises "label 0" (Invalid_argument "Comm_list.label: position out of range")
    (fun () -> ignore (Sim.Comm_list.label l 0))

let test_trace_pp_lanes () =
  let t = make_trace [ (3, 11); (11, 3) ] in
  let s = Format.asprintf "%a" Sim.Trace.pp_lanes t in
  Alcotest.(check bool) "has header lanes" true
    (contains_substring s "p3" && contains_substring s "p11");
  Alcotest.(check bool) "has forward arrow" true (contains_substring s "*-");
  Alcotest.(check bool) "has backward arrow" true (contains_substring s "<-")

(* ------------------------------------------------------------------ *)
(* Dag *)

(* A trace with explicit causal structure: a chain 3->1->2 plus a fan-out
   1->4, 1->5 caused by event 1's delivery. *)
let causal_trace () =
  let t = Sim.Trace.create ~op_index:0 ~origin:3 () in
  List.iter
    (fun (seq, src, dst, parent) ->
      Sim.Trace.record t
        {
          Sim.Trace.seq;
          time = float_of_int seq;
          src;
          dst;
          tag = "m";
          parent;
        })
    [ (1, 3, 1, 0); (2, 1, 2, 1); (3, 1, 4, 1); (4, 1, 5, 1); (5, 2, 6, 2) ];
  t

let test_dag_structure () =
  let d = Sim.Dag.of_trace (causal_trace ()) in
  check Alcotest.int "events" 5 (Sim.Dag.event_count d);
  (* Chain 3->1->2->6 has length 3. *)
  check Alcotest.int "critical path" 3 (Sim.Dag.critical_path d);
  (* Depth 2 holds events 2,3,4 (to processors 2, 4, 5). *)
  check Alcotest.int "max width" 3 (Sim.Dag.max_width d);
  Alcotest.(check (array int)) "profile" [| 1; 3; 1 |] (Sim.Dag.depth_profile d);
  Alcotest.(check bool) "delivery order topological" true
    (Sim.Dag.consistent_with_delivery_order d)

let test_dag_empty () =
  let t = Sim.Trace.create ~op_index:0 ~origin:7 () in
  let d = Sim.Dag.of_trace t in
  check Alcotest.int "no events" 0 (Sim.Dag.event_count d);
  check Alcotest.int "no path" 0 (Sim.Dag.critical_path d);
  check Alcotest.int "no width" 0 (Sim.Dag.max_width d)

let test_dag_from_real_network () =
  (* Drive a real protocol: 1 pings 2 and 3; each replies. The DAG must
     be a depth-2 tree of width 2, and the dot output must hang the first
     sends off the virtual source. *)
  let net = Sim.Network.create ~n:3 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  Sim.Network.send net ~src:1 ~dst:3 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  let d = Sim.Dag.of_trace (Sim.Network.end_op net) in
  check Alcotest.int "events" 4 (Sim.Dag.event_count d);
  check Alcotest.int "critical path" 2 (Sim.Dag.critical_path d);
  check Alcotest.int "width" 2 (Sim.Dag.max_width d);
  Alcotest.(check bool) "topological" true
    (Sim.Dag.consistent_with_delivery_order d);
  let dot = Sim.Dag.to_dot d in
  Alcotest.(check bool) "has source" true
    (contains_substring dot "doublecircle")

let test_dag_timer_causality () =
  (* A timer armed while handling a delivery passes that delivery on as
     the causal parent of anything the timer sends. *)
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping ->
          Sim.Network.schedule_local net ~delay:1.0 (fun () ->
              Sim.Network.send net ~src:self ~dst:src Pong)
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  let d = Sim.Dag.of_trace (Sim.Network.end_op net) in
  (* Ping then Pong: the Pong's parent is the Ping delivery, so the chain
     has length 2 even though the Pong was sent from a timer. *)
  check Alcotest.int "critical path through timer" 2 (Sim.Dag.critical_path d)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_accounting () =
  let m = Sim.Metrics.create ~n:5 in
  Sim.Metrics.on_send m 1;
  Sim.Metrics.on_recv m 2;
  Sim.Metrics.on_send m 2;
  Sim.Metrics.on_recv m 1;
  check Alcotest.int "load p1" 2 (Sim.Metrics.load m 1);
  check Alcotest.int "load p2" 2 (Sim.Metrics.load m 2);
  check Alcotest.int "sent p1" 1 (Sim.Metrics.sent m 1);
  check Alcotest.int "recv p1" 1 (Sim.Metrics.received m 1);
  check Alcotest.int "total messages" 2 (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" 4 (Sim.Metrics.total_load m)

let test_metrics_bottleneck () =
  let m = Sim.Metrics.create ~n:5 in
  for _ = 1 to 3 do
    Sim.Metrics.on_send m 4
  done;
  Sim.Metrics.on_send m 2;
  let p, l = Sim.Metrics.bottleneck m in
  check Alcotest.int "bottleneck proc" 4 p;
  check Alcotest.int "bottleneck load" 3 l

let test_metrics_overflow () =
  let m = Sim.Metrics.create ~n:3 in
  Sim.Metrics.on_send m 10;
  check Alcotest.int "overflow count" 1 (Sim.Metrics.overflow_processors m);
  check Alcotest.int "load beyond n" 1 (Sim.Metrics.load m 10)

let test_metrics_copy_independent () =
  let m = Sim.Metrics.create ~n:3 in
  Sim.Metrics.on_send m 1;
  let c = Sim.Metrics.copy m in
  Sim.Metrics.on_send m 1;
  check Alcotest.int "copy froze" 1 (Sim.Metrics.load c 1);
  check Alcotest.int "original moved" 2 (Sim.Metrics.load m 1)

let test_metrics_merge () =
  let a = Sim.Metrics.create ~n:3 and b = Sim.Metrics.create ~n:3 in
  Sim.Metrics.on_send a 1;
  Sim.Metrics.on_recv b 1;
  Sim.Metrics.merge_into ~dst:a b;
  check Alcotest.int "merged load" 2 (Sim.Metrics.load a 1);
  check Alcotest.int "merged total" 1 (Sim.Metrics.total_messages a)

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_delivery_and_charges () =
  let net = Sim.Network.create ~n:3 () in
  let got_pong = ref false in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> got_pong := true);
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  let steps = Sim.Network.run_to_quiescence net in
  check Alcotest.int "two deliveries" 2 steps;
  Alcotest.(check bool) "pong received" true !got_pong;
  let m = Sim.Network.metrics net in
  check Alcotest.int "p1 load" 2 (Sim.Metrics.load m 1);
  check Alcotest.int "p2 load" 2 (Sim.Metrics.load m 2);
  check Alcotest.int "p3 untouched" 0 (Sim.Metrics.load m 3)

let test_network_trace_capture () =
  let net = Sim.Network.create ~n:3 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:3 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  let trace = Sim.Network.end_op net in
  check Alcotest.int "messages" 2 (Sim.Trace.message_count trace);
  Alcotest.(check (list int)) "I_p" [ 1; 3 ] (Sim.Trace.processors trace)

let test_network_time_advances () =
  let net = Sim.Network.create ~delay:(Sim.Delay.Constant 2.0) ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ _ -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  check (Alcotest.float 1e-9) "clock" 2.0 (Sim.Network.now net)

let test_network_local_timers_free () =
  let net = Sim.Network.create ~n:2 () in
  let fired = ref false in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.schedule_local net ~delay:1.0 (fun () -> fired := true);
  ignore (Sim.Network.run_to_quiescence net);
  Alcotest.(check bool) "fired" true !fired;
  check Alcotest.int "no messages" 0
    (Sim.Metrics.total_messages (Sim.Network.metrics net))

let test_network_quiescence_guard () =
  (* A protocol that forwards forever must trip the step guard. *)
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self ~src (_ : ping) ->
      Sim.Network.send net ~src:self ~dst:src Ping);
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  match Sim.Network.run_to_quiescence ~max_steps:100 net with
  | exception Sim.Network.Storm { max_steps; pending; now; deliveries } ->
      check Alcotest.int "guard limit carried" 100 max_steps;
      check Alcotest.bool "still pending" true (pending > 0);
      check Alcotest.bool "time advanced" true (now > 0.);
      check Alcotest.int "deliveries = steps taken" 100 deliveries
  | _ -> Alcotest.fail "expected divergence guard"

let test_network_clone_requires_quiescence () =
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  (match Sim.Network.clone_quiescent net with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected clone failure with pending message");
  ignore (Sim.Network.run_to_quiescence net);
  let clone = Sim.Network.clone_quiescent net in
  check Alcotest.int "metrics carried" 1
    (Sim.Metrics.total_messages (Sim.Network.metrics clone))

let test_network_fifo_under_constant_delay () =
  let net = Sim.Network.create ~delay:(Sim.Delay.Constant 1.0) ~n:2 () in
  let received = ref [] in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ msg ->
      received := msg :: !received);
  List.iter (fun i -> Sim.Network.send net ~src:1 ~dst:2 i) [ 1; 2; 3; 4 ];
  ignore (Sim.Network.run_to_quiescence net);
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4 ] (List.rev !received)

let test_network_bits_accounting () =
  let bits = function Ping -> 10 | Pong -> 3 in
  let net = Sim.Network.create ~bits ~n:2 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "total bits" 13 (Sim.Network.total_bits net);
  check Alcotest.int "max bits" 10 (Sim.Network.max_message_bits net)

let test_network_bits_default_zero () =
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "unmeasured" 0 (Sim.Network.total_bits net)

let test_network_fifo_links_under_reordering_delay () =
  (* Exponential delays reorder same-link messages by default; ~fifo:true
     forbids it. *)
  let run ~fifo =
    let net =
      Sim.Network.create ~fifo ~delay:(Sim.Delay.Exponential 1.0) ~seed:9 ~n:2 ()
    in
    let received = ref [] in
    Sim.Network.set_handler net (fun ~self:_ ~src:_ msg ->
        received := msg :: !received);
    List.iter (fun i -> Sim.Network.send net ~src:1 ~dst:2 i) (List.init 20 Fun.id);
    ignore (Sim.Network.run_to_quiescence net);
    List.rev !received
  in
  let in_order = List.init 20 Fun.id in
  Alcotest.(check (list int)) "fifo preserves order" in_order (run ~fifo:true);
  Alcotest.(check bool) "non-fifo reorders (this seed)" true
    (run ~fifo:false <> in_order)

let test_network_fifo_cross_link_free () =
  (* FIFO is per directed link: different links may still interleave. *)
  let net =
    Sim.Network.create ~fifo:true ~delay:(Sim.Delay.Exponential 1.0) ~seed:4 ~n:3 ()
  in
  let received = ref [] in
  Sim.Network.set_handler net (fun ~self:_ ~src msg ->
      received := (src, msg) :: !received);
  for i = 0 to 9 do
    Sim.Network.send net ~src:1 ~dst:3 i;
    Sim.Network.send net ~src:2 ~dst:3 i
  done;
  ignore (Sim.Network.run_to_quiescence net);
  let per_src s =
    List.filter_map (fun (src, m) -> if src = s then Some m else None)
      (List.rev !received)
  in
  Alcotest.(check (list int)) "link 1->3 ordered" (List.init 10 Fun.id) (per_src 1);
  Alcotest.(check (list int)) "link 2->3 ordered" (List.init 10 Fun.id) (per_src 2)

let prop_network_message_conservation =
  QCheck2.Test.make ~name:"total load = 2 * messages (echo protocol)"
    ~count:50
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 1 8) (int_range 1 8)))
    (fun sends ->
      let net = Sim.Network.create ~n:8 () in
      Sim.Network.set_handler net (fun ~self ~src msg ->
          match msg with
          | Ping when self <> src -> Sim.Network.send net ~src:self ~dst:src Pong
          | Ping | Pong -> ());
      List.iter (fun (a, b) -> Sim.Network.send net ~src:a ~dst:b Ping) sends;
      ignore (Sim.Network.run_to_quiescence net);
      let m = Sim.Network.metrics net in
      Sim.Metrics.total_load m = 2 * Sim.Metrics.total_messages m)

(* ------------------------------------------------------------------ *)
(* Ltbl: the sparse per-link table behind Network's FIFO bookkeeping *)

(* Model check against a reference Hashtbl over a key space big enough to
   force several growth rehashes from the tiny initial capacity. *)
let ltbl_vs_model =
  QCheck.Test.make ~count:300 ~name:"Ltbl.get/set agree with a Hashtbl model"
    QCheck.(list (triple (int_range 1 60) (int_range 1 60) (int_range 0 999)))
    (fun ops ->
      let t = Sim.Ltbl.create ~initial:4 ~absent:neg_infinity () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (src, dst, v) ->
          let key = Sim.Ltbl.link_key ~src ~dst in
          let expected =
            match Hashtbl.find_opt model key with
            | Some x -> x
            | None -> neg_infinity
          in
          let got = Sim.Ltbl.get t key in
          let value = float_of_int v in
          Hashtbl.replace model key value;
          Sim.Ltbl.set t key value;
          Float.equal got expected
          && Float.equal (Sim.Ltbl.get t key) value
          && Sim.Ltbl.length t = Hashtbl.length model)
        ops)

let test_ltbl_directed_links () =
  let t = Sim.Ltbl.create ~absent:nan () in
  Sim.Ltbl.set t (Sim.Ltbl.link_key ~src:1 ~dst:2) 1.0;
  Sim.Ltbl.set t (Sim.Ltbl.link_key ~src:2 ~dst:1) 2.0;
  check (Alcotest.float 0.) "1->2" 1.0
    (Sim.Ltbl.get t (Sim.Ltbl.link_key ~src:1 ~dst:2));
  check (Alcotest.float 0.) "2->1 is a distinct link" 2.0
    (Sim.Ltbl.get t (Sim.Ltbl.link_key ~src:2 ~dst:1));
  let copy = Sim.Ltbl.copy t in
  Sim.Ltbl.set copy (Sim.Ltbl.link_key ~src:1 ~dst:2) 9.0;
  check (Alcotest.float 0.) "copy is independent" 1.0
    (Sim.Ltbl.get t (Sim.Ltbl.link_key ~src:1 ~dst:2))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          q prop_rng_int_uniformish;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          q prop_heap_matches_sorted_model;
        ] );
      ( "delay",
        [
          Alcotest.test_case "constant" `Quick test_delay_constant;
          Alcotest.test_case "strictly positive" `Quick test_delay_positive;
          Alcotest.test_case "uniform range" `Quick test_delay_uniform_range;
          Alcotest.test_case "parse roundtrip" `Quick test_delay_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_delay_parse_errors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "processors" `Quick test_trace_processors;
          Alcotest.test_case "empty has origin" `Quick test_trace_empty_includes_origin;
          Alcotest.test_case "intersects" `Quick test_trace_intersects;
          Alcotest.test_case "duration" `Quick test_trace_duration;
          Alcotest.test_case "dot export" `Quick test_trace_to_dot;
          QCheck_alcotest.to_alcotest prop_trace_matches_list_model;
          Alcotest.test_case "lanes chart" `Quick test_trace_pp_lanes;
        ] );
      ( "comm-list",
        [
          Alcotest.test_case "structure" `Quick test_comm_list_structure;
          Alcotest.test_case "merges consecutive" `Quick test_comm_list_merges_consecutive;
          Alcotest.test_case "empty" `Quick test_comm_list_empty;
          Alcotest.test_case "label range" `Quick test_comm_list_label_out_of_range;
        ] );
      ( "dag",
        [
          Alcotest.test_case "structure" `Quick test_dag_structure;
          Alcotest.test_case "empty" `Quick test_dag_empty;
          Alcotest.test_case "from real network" `Quick test_dag_from_real_network;
          Alcotest.test_case "timer causality" `Quick test_dag_timer_causality;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "bottleneck" `Quick test_metrics_bottleneck;
          Alcotest.test_case "overflow ids" `Quick test_metrics_overflow;
          Alcotest.test_case "copy independent" `Quick test_metrics_copy_independent;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery and charges" `Quick test_network_delivery_and_charges;
          Alcotest.test_case "trace capture" `Quick test_network_trace_capture;
          Alcotest.test_case "time advances" `Quick test_network_time_advances;
          Alcotest.test_case "local timers are free" `Quick test_network_local_timers_free;
          Alcotest.test_case "divergence guard" `Quick test_network_quiescence_guard;
          Alcotest.test_case "clone requires quiescence" `Quick test_network_clone_requires_quiescence;
          Alcotest.test_case "FIFO under constant delay" `Quick test_network_fifo_under_constant_delay;
          Alcotest.test_case "bits accounting" `Quick test_network_bits_accounting;
          Alcotest.test_case "bits default zero" `Quick test_network_bits_default_zero;
          Alcotest.test_case "fifo links" `Quick test_network_fifo_links_under_reordering_delay;
          Alcotest.test_case "fifo is per link" `Quick test_network_fifo_cross_link_free;
          q prop_network_message_conservation;
        ] );
      ( "ltbl",
        [
          q ltbl_vs_model;
          Alcotest.test_case "directed links are distinct" `Quick
            test_ltbl_directed_links;
        ] );
    ]
