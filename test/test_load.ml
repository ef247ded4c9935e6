(* Open-loop load engine tests (docs/LOAD.md): the arrival generator's
   determinism and distribution properties, the concurrent-history
   checker against a brute-force linearizability reference, the stored
   E20 / open-loop violation goldens, and Driver.run_load end to end —
   including a pinned digest of one full open-loop report. *)

let check = Alcotest.check

module A = Sim.Arrivals
module H = Counter.History
module D = Counter.Driver

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let test_of_string_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string s s (A.to_string (A.of_string s)))
    [ "fixed:2"; "poisson:0.5"; "bursty:1.5:4:6" ]

let test_of_string_rejects_garbage () =
  List.iter
    (fun s ->
      match A.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail ("accepted " ^ s))
    [ ""; "poisson"; "poisson:0"; "poisson:-1"; "fixed:x"; "bursty:1:2";
      "uniform:1"; "bursty:1:0:5" ]

let test_fixed_stream_is_a_grid () =
  let s = A.stream (A.Fixed 2.0) ~seed:9 ~origin:3 ~count:40 in
  check Alcotest.int "count" 40 (Array.length s);
  Alcotest.(check bool) "starts after 0" true (s.(0) > 0.);
  Array.iteri
    (fun i t ->
      if i > 0 then
        check (Alcotest.float 1e-9)
          (Printf.sprintf "gap %d" i)
          0.5 (t -. s.(i - 1)))
    s

let test_stream_deterministic_per_seed () =
  let p = A.Poisson 0.7 in
  let a = A.stream p ~seed:11 ~origin:4 ~count:200 in
  let b = A.stream p ~seed:11 ~origin:4 ~count:200 in
  Alcotest.(check (array (float 0.))) "same (seed, origin) = same stream" a b;
  let c = A.stream p ~seed:12 ~origin:4 ~count:200 in
  let d = A.stream p ~seed:11 ~origin:5 ~count:200 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "different origin differs" true (a <> d)

let test_poisson_mean () =
  (* Mean inter-arrival of a long stream must sit near 1/rate. *)
  List.iter
    (fun rate ->
      let count = 4000 in
      let s = A.stream (A.Poisson rate) ~seed:5 ~origin:1 ~count in
      let mean = s.(count - 1) /. float_of_int count in
      let expected = 1. /. rate in
      Alcotest.(check bool)
        (Printf.sprintf "rate %g: mean %g within 10%% of %g" rate mean
           expected)
        true
        (Float.abs (mean -. expected) < 0.1 *. expected))
    [ 0.25; 1.0; 4.0 ]

let prop_bursty_envelope =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bursty arrivals respect the on/off envelope"
       ~count:60
       QCheck2.Gen.(
         quad (int_range 0 1000) (float_range 0.5 4.0) (float_range 1.0 8.0)
           (float_range 1.0 8.0))
       (fun (seed, rate, on_len, off_len) ->
         let s =
           A.stream (A.Bursty { rate; on_len; off_len }) ~seed ~origin:2
             ~count:120
         in
         Array.for_all
           (fun t -> Float.rem t (on_len +. off_len) <= on_len +. 1e-9)
           s))

let prop_stream_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"streams are positive and non-decreasing"
       ~count:60
       QCheck2.Gen.(
         pair (int_range 0 1000)
           (oneofl
              [ A.Fixed 1.5; A.Poisson 0.8;
                A.Bursty { rate = 2.0; on_len = 3.0; off_len = 2.0 } ]))
       (fun (seed, proc) ->
         let s = A.stream proc ~seed ~origin:1 ~count:80 in
         let ok = ref (s.(0) > 0.) in
         Array.iteri (fun i t -> if i > 0 && t < s.(i - 1) then ok := false) s;
         !ok))

let prop_merge_sorted_and_complete =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"merge: sorted by time, ops entries, origins in 1..n" ~count:40
       QCheck2.Gen.(
         triple (int_range 0 1000) (int_range 1 32) (int_range 1 300))
       (fun (seed, n, ops) ->
         let plan = A.merge (A.Poisson 0.5) ~seed ~n ~ops in
         Array.length plan = ops
         && Array.for_all (fun (_, o) -> o >= 1 && o <= n) plan
         &&
         let ok = ref true in
         Array.iteri
           (fun i (t, _) -> if i > 0 && t < fst plan.(i - 1) then ok := false)
           plan;
         !ok))

(* ------------------------------------------------------------------ *)
(* History checker vs a brute-force reference *)

let op_equal (a : H.op) (b : H.op) =
  a.origin = b.origin && a.value = b.value
  && Float.equal a.invoked_at b.invoked_at
  && Float.equal a.completed_at b.completed_at

(* A history is linearizable iff some permutation of its operations both
   extends the real-time precedence order and returns increasing values.
   O(ops!) — the reference the O(ops log ops) sweep is checked against. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let brute_force_linearizable history =
  let legal order =
    let rec go = function
      | [] -> true
      | (x : H.op) :: rest ->
          List.for_all
            (fun (y : H.op) ->
              x.value < y.value && not (y.completed_at < x.invoked_at))
            rest
          && go rest
    in
    go order
  in
  List.exists legal (permutations history)

let gen_history =
  (* Up to 8 operations with distinct values 0..k-1 and arbitrary
     overlapping intervals. *)
  QCheck2.Gen.(
    int_range 1 8 >>= fun k ->
    shuffle_l (List.init k Fun.id) >>= fun values ->
    list_size (return k) (pair (float_range 0. 50.) (float_range 0.1 25.))
    >|= fun times ->
    List.map2
      (fun value (invoked_at, dur) ->
        {
          H.origin = value + 1;
          value;
          invoked_at;
          completed_at = invoked_at +. dur;
        })
      values times)

let prop_check_matches_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"check agrees with the O(ops!) reference"
       ~count:150 gen_history (fun h ->
         let fast =
           match H.check h with
           | H.Linearizable -> true
           | H.Violation _ -> false
         in
         fast = brute_force_linearizable h))

let prop_witness_valid =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"every violation witness is a real precedence inversion"
       ~count:150 gen_history (fun h ->
         match H.check h with
         | H.Linearizable -> true
         | H.Violation (a, b) ->
             a.completed_at < b.invoked_at && a.value > b.value))

let prop_check_input_order_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"verdict and witness ignore input order"
       ~count:100
       QCheck2.Gen.(gen_history >>= fun h -> shuffle_l h >|= fun s -> (h, s))
       (fun (h, shuffled) ->
         match (H.check h, H.check shuffled) with
         | H.Linearizable, H.Linearizable -> true
         | H.Violation (a, b), H.Violation (a', b') ->
             op_equal a a' && op_equal b b'
         | _ -> false))

let test_check_small_cases () =
  let op value invoked_at completed_at =
    { H.origin = value + 1; value; invoked_at; completed_at }
  in
  (match H.check [] with
  | H.Linearizable -> ()
  | H.Violation _ -> Alcotest.fail "empty history must be linearizable");
  (* Fully overlapping out-of-order values: vacuously linearizable. *)
  (match H.check [ op 1 0. 10.; op 0 0. 10. ] with
  | H.Linearizable -> ()
  | H.Violation _ -> Alcotest.fail "overlap must excuse reordering");
  (* Disjoint intervals with inverted values: the canonical violation. *)
  match H.check [ op 1 0. 1.; op 0 2. 3. ] with
  | H.Violation (a, b) ->
      check Alcotest.int "a.value" 1 a.value;
      check Alcotest.int "b.value" 0 b.value
  | H.Linearizable -> Alcotest.fail "disjoint inversion missed"

(* ------------------------------------------------------------------ *)
(* Stored goldens: the violations the docs talk about must keep
   reproducing bit-for-bit. *)

let test_e20_golden () =
  (* EXPERIMENTS.md E20: counting network n=64 width=8, exponential
     delays, seed 5, stagger 0.5 — the concrete violation the experiment
     prints. *)
  let c =
    Baselines.Counting_network.create_width ~n:64 ~width:8
      ~delay:(Sim.Delay.Exponential 1.0) ~seed:5 ()
  in
  let h =
    Baselines.Counting_network.run_batch_timed c ~stagger:0.5
      ~origins:(List.init 64 (fun i -> i + 1))
      ()
  in
  match H.check h with
  | H.Violation (a, b) ->
      check Alcotest.int "a.origin" 31 a.origin;
      check Alcotest.int "a.value" 44 a.value;
      check Alcotest.int "b.origin" 53 b.origin;
      check Alcotest.int "b.value" 43 b.value;
      Alcotest.(check bool) "a precedes b" true
        (a.completed_at < b.invoked_at)
  | H.Linearizable -> Alcotest.fail "E20 violation disappeared"

let test_open_loop_violation_golden () =
  (* docs/LOAD.md: the moderate-overlap open-loop violation dcount load
     --check gates on. Saturating rates mask the phenomenon (the
     violation window needs a quiet network to close), so the golden
     lives at rate 0.05 per source. *)
  let r =
    D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
      (module Baselines.Counting_network)
      ~n:64 ~arrivals:(A.Poisson 0.05) ~ops:1000
  in
  check Alcotest.int "all complete" 1000 r.D.completed;
  Alcotest.(check bool) "quiescently consistent" true
    r.D.analysis.H.quiescent;
  match r.D.analysis.H.verdict with
  | H.Violation (a, b) ->
      check Alcotest.int "a.origin" 55 a.origin;
      check Alcotest.int "a.value" 920 a.value;
      check Alcotest.int "b.origin" 36 b.origin;
      check Alcotest.int "b.value" 919 b.value
  | H.Linearizable -> Alcotest.fail "open-loop violation disappeared"

let test_retire_tree_linearizable_at_every_overlap () =
  (* The paper's counter serialises at the root: linearizable at every
     load level, from near-sequential to heavily saturated. *)
  List.iter
    (fun rate ->
      let r =
        D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
          (module Core.Retire_counter) ~n:64 ~arrivals:(A.Poisson rate)
          ~ops:300
      in
      check Alcotest.int
        (Printf.sprintf "rate %g: all complete" rate)
        300 r.D.completed;
      Alcotest.(check bool)
        (Printf.sprintf "rate %g: linearizable" rate)
        true r.D.analysis.H.linearizable)
    [ 0.05; 0.5; 2.0 ]

(* ------------------------------------------------------------------ *)
(* Driver.run_load end to end *)

let test_every_concurrent_counter_completes () =
  List.iter
    (fun (module C : Counter.Counter_intf.CONCURRENT) ->
      let r =
        D.run_load ~seed:7 ~delay:(Sim.Delay.Exponential 1.0)
          (module C) ~n:16 ~arrivals:(A.Poisson 0.5) ~ops:200
      in
      check Alcotest.int (C.name ^ ": fault-free loses nothing") 200
        r.D.completed;
      check Alcotest.int (C.name ^ ": lost") 0 r.D.lost;
      Alcotest.(check bool)
        (C.name ^ ": genuinely overlapping")
        true
        (r.D.analysis.H.peak_overlap > 1);
      (* Quorum counters duplicate values under overlap (documented in
         docs/LOAD.md); every other counter stays quiescently
         consistent. *)
      let quorum =
        String.length C.name >= 6 && String.sub C.name 0 6 = "quorum"
      in
      if not quorum then
        Alcotest.(check bool)
          (C.name ^ ": quiescently consistent")
          true r.D.analysis.H.quiescent)
    Baselines.Registry.concurrent_all

(* Differential: the open-loop path with operations spaced far enough
   apart that none overlaps is the sequential path. For every concurrent
   counter, [inc] over an origin list and [launch_at] over the same
   origins followed by [run_open] must return the same values in the
   same order and send the same number of messages. *)
let test_spaced_open_loop_matches_sequential () =
  let n_req = 16 and ops = 48 and spacing = 1000. in
  List.iter
    (fun (module C : Counter.Counter_intf.CONCURRENT) ->
      let n = C.supported_n n_req in
      let origins =
        List.init ops (fun i -> 1 + ((i * 7) + (i / n)) mod n)
      in
      let seq = C.create ~seed:3 ~n () in
      let seq_values = List.map (fun origin -> C.inc seq ~origin) origins in
      let open_ = C.create ~seed:3 ~n () in
      List.iteri
        (fun op origin ->
          C.launch_at open_ ~op ~origin ~at:(spacing *. float_of_int (op + 1)))
        origins;
      C.run_open open_;
      let completions =
        List.sort
          (fun (a, _, _) (b, _, _) -> Int.compare a b)
          (C.completions open_)
      in
      check Alcotest.int (C.name ^ ": every op completed") ops
        (List.length completions);
      List.iter
        (fun (op, _, completed_at) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: op %d done before the next launch" C.name op)
            true
            (completed_at < spacing *. float_of_int (op + 2)))
        completions;
      Alcotest.(check (list int))
        (C.name ^ ": values")
        seq_values
        (List.map (fun (_, v, _) -> v) completions);
      check Alcotest.int
        (C.name ^ ": total messages")
        (Sim.Metrics.total_messages (C.metrics seq))
        (Sim.Metrics.total_messages (C.metrics open_)))
    Baselines.Registry.concurrent_all

let test_latency_percentiles_ordered () =
  let r =
    D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
      (module Baselines.Central) ~n:32 ~arrivals:(A.Poisson 1.0) ~ops:500
  in
  let l = r.D.latency in
  Alcotest.(check bool) "p50 <= p90" true
    (l.Analysis.Histogram.p50 <= l.Analysis.Histogram.p90);
  Alcotest.(check bool) "p90 <= p99" true
    (l.Analysis.Histogram.p90 <= l.Analysis.Histogram.p99);
  Alcotest.(check bool) "p99 <= max" true
    (l.Analysis.Histogram.p99 <= l.Analysis.Histogram.max);
  Alcotest.(check bool) "positive" true (l.Analysis.Histogram.p50 > 0.);
  Alcotest.(check bool) "throughput positive" true (r.D.throughput > 0.)

let test_run_load_report_golden () =
  (* The full report — counts, percentiles, verdicts, every history entry
     with exact (hex) float times — pins the open-loop path's timer and
     delivery schedule: launch timers and message arrivals share one event
     queue, so any change to their relative order moves the digest. *)
  let r =
    D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
      (module Baselines.Counting_network)
      ~n:64 ~arrivals:(A.Poisson 2.0) ~ops:400
  in
  let rendered =
    Format.asprintf "%a@.%s" D.pp_load_report r
      (String.concat ";"
         (List.map
            (fun (o : H.op) ->
              Printf.sprintf "%d,%d,%h,%h" o.origin o.value o.invoked_at
                o.completed_at)
            r.D.history))
  in
  check Alcotest.string "report + history digest"
    "2da7dbd7709ec9e11d275ded09a7c43b"
    (Digest.to_hex (Digest.string rendered))

let () =
  Alcotest.run "load"
    [
      ( "arrivals",
        [
          Alcotest.test_case "grammar roundtrip" `Quick
            test_of_string_roundtrip;
          Alcotest.test_case "grammar rejects" `Quick
            test_of_string_rejects_garbage;
          Alcotest.test_case "fixed grid" `Quick test_fixed_stream_is_a_grid;
          Alcotest.test_case "deterministic per seed" `Quick
            test_stream_deterministic_per_seed;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          prop_bursty_envelope;
          prop_stream_monotone;
          prop_merge_sorted_and_complete;
        ] );
      ( "checker",
        [
          prop_check_matches_brute_force;
          prop_witness_valid;
          prop_check_input_order_invariant;
          Alcotest.test_case "small cases" `Quick test_check_small_cases;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "E20 seed 5 stagger 0.5" `Quick test_e20_golden;
          Alcotest.test_case "open-loop violation" `Quick
            test_open_loop_violation_golden;
          Alcotest.test_case "retire-tree always linearizable" `Quick
            test_retire_tree_linearizable_at_every_overlap;
        ] );
      ( "run-load",
        [
          Alcotest.test_case "every counter completes" `Quick
            test_every_concurrent_counter_completes;
          Alcotest.test_case "percentiles ordered" `Quick
            test_latency_percentiles_ordered;
          Alcotest.test_case "spaced open loop = sequential" `Quick
            test_spaced_open_loop_matches_sequential;
          Alcotest.test_case "counting-net report golden" `Quick
            test_run_load_report_golden;
        ] );
    ]
