(* Tests for the analysis toolkit: stats, histograms, tables and growth
   fitting. *)

let check = Alcotest.check

module S = Analysis.Stats
module H = Analysis.Histogram
module T = Analysis.Table
module G = Analysis.Growth

let test_summarize_basics () =
  let s = S.summarize [| 1; 2; 3; 4; 5 |] in
  check Alcotest.int "count" 5 s.S.count;
  check Alcotest.int "min" 1 s.S.min;
  check Alcotest.int "max" 5 s.S.max;
  check (Alcotest.float 1e-9) "mean" 3. s.S.mean;
  check (Alcotest.float 1e-9) "median" 3. s.S.median;
  check Alcotest.int "total" 15 s.S.total;
  check (Alcotest.float 1e-9) "stddev" (sqrt 2.) s.S.stddev

let test_summarize_singleton () =
  let s = S.summarize [| 7 |] in
  check (Alcotest.float 1e-9) "median" 7. s.S.median;
  check (Alcotest.float 1e-9) "p99" 7. s.S.p99;
  check (Alcotest.float 1e-9) "stddev" 0. s.S.stddev

let test_summarize_empty_rejected () =
  match S.summarize [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_percentile_interpolation () =
  let samples = [| 0; 10 |] in
  check (Alcotest.float 1e-9) "p50 interpolates" 5. (S.percentile samples 50.);
  check (Alcotest.float 1e-9) "p0" 0. (S.percentile samples 0.);
  check (Alcotest.float 1e-9) "p100" 10. (S.percentile samples 100.)

let test_gini_extremes () =
  check (Alcotest.float 1e-9) "uniform = 0" 0. (S.gini [| 5; 5; 5; 5 |]);
  let concentrated = S.gini [| 0; 0; 0; 100 |] in
  Alcotest.(check bool) "concentrated ~ 0.75" true
    (abs_float (concentrated -. 0.75) < 1e-9);
  check (Alcotest.float 1e-9) "all zero" 0. (S.gini [| 0; 0 |])

let test_gini_orders_distributions () =
  (* The central counter's load profile is maximally unequal; the paper's
     counter is near-uniform. Gini must order them. *)
  let central = Counter.Driver.load_profile Baselines.Registry.central ~n:27
      ~schedule:Counter.Schedule.Each_once
  and retire = Counter.Driver.load_profile Baselines.Registry.retire_tree
      ~n:27 ~schedule:Counter.Schedule.Each_once
  in
  let drop_zeroth a = Array.sub a 1 (Array.length a - 1) in
  Alcotest.(check bool) "central more unequal" true
    (S.gini (drop_zeroth central) > S.gini (drop_zeroth retire))

let prop_gini_in_range =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"gini in [0, 1)" ~count:300
       QCheck2.Gen.(array_size (int_range 1 50) (int_range 0 100))
       (fun samples ->
         let g = S.gini samples in
         g >= -1e-9 && g < 1.))

let prop_percentiles_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"p50 <= p90 <= p99 <= max" ~count:300
       QCheck2.Gen.(array_size (int_range 1 60) (int_range 0 1000))
       (fun samples ->
         let s = S.summarize samples in
         s.S.median <= s.S.p90 +. 1e-9
         && s.S.p90 <= s.S.p99 +. 1e-9
         && s.S.p99 <= float_of_int s.S.max +. 1e-9))

let test_histogram_buckets () =
  let h = H.of_samples ~buckets:2 [| 0; 1; 2; 3 |] in
  Alcotest.(check (list (triple Alcotest.int Alcotest.int Alcotest.int)))
    "buckets" [ (0, 1, 2); (2, 3, 2) ] (H.bucket_counts h)

let test_histogram_single_value () =
  let h = H.of_samples ~buckets:3 [| 5; 5; 5 |] in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (H.bucket_counts h) in
  check Alcotest.int "all counted" 3 total

let prop_histogram_conserves_mass =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"histogram counts sum to sample size" ~count:200
       QCheck2.Gen.(array_size (int_range 1 100) (int_range (-50) 50))
       (fun samples ->
         let h = H.of_samples samples in
         List.fold_left (fun acc (_, _, c) -> acc + c) 0 (H.bucket_counts h)
         = Array.length samples))

let test_table_render () =
  let t = T.create ~columns:[ "name"; "value" ] in
  T.add_row t [ "alpha"; "1" ];
  T.add_row t [ "b"; "22" ];
  let s = Format.asprintf "%a" T.pp t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    &&
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i <> ""
    | None -> false);
  let contains_substring haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "contains alpha" true (contains_substring s "alpha")

let test_table_arity_checked () =
  let t = T.create ~columns:[ "a"; "b" ] in
  match T.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity check"

let test_table_csv () =
  let t = T.create ~columns:[ "a"; "b" ] in
  T.add_row t [ "x,y"; "2" ];
  check Alcotest.string "csv escaping" "a,b\n\"x,y\",2\n" (T.to_csv t)

let test_growth_eval () =
  check (Alcotest.float 1e-9) "log 8" 3. (G.eval G.Log 8.);
  check (Alcotest.float 1e-9) "sqrt 16" 4. (G.eval G.Sqrt 16.);
  check (Alcotest.float 1e-6) "k(81)" 3. (G.eval G.K_of_n 81.)

let test_growth_recovers_shapes () =
  (* Generate clean series from each shape and confirm best_fit recovers
     it. *)
  let ns = [ 64.; 256.; 1024.; 4096.; 16384. ] in
  List.iter
    (fun shape ->
      let points = List.map (fun n -> (n, 3.5 *. G.eval shape n)) ns in
      let best, _ = G.best_fit points in
      check Alcotest.string
        (Printf.sprintf "recovers %s" (G.shape_name shape))
        (G.shape_name shape)
        (G.shape_name best.G.shape);
      Alcotest.(check bool) "scale ~ 3.5" true
        (abs_float (best.G.scale -. 3.5) < 1e-6))
    [ G.Log; G.Sqrt; G.Linear; G.Log_squared ]

let test_growth_distinguishes_k_from_linear () =
  let ns = [ 8.; 81.; 1024.; 15625. ] in
  let points = List.map (fun n -> (n, 14. *. G.eval G.K_of_n n)) ns in
  let best, _ = G.best_fit points in
  check Alcotest.string "k(n) wins" "k(n)" (G.shape_name best.G.shape)

let test_growth_requires_points () =
  match G.best_fit [ (1., 1.) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity check"

let prop_fit_perfect_series_zero_residual =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"perfect series has ~0 residual" ~count:100
       QCheck2.Gen.(pair (int_range 0 5) (float_range 0.5 20.))
       (fun (si, scale) ->
         let shape = List.nth G.all_shapes si in
         let points =
           List.map (fun n -> (n, scale *. G.eval shape n)) [ 10.; 100.; 1000. ]
         in
         let f = G.fit_shape shape points in
         f.G.residual < 1e-9))

(* ------------------------------------------------------------------ *)
(* Replicate *)

module Rep = Analysis.Replicate

let test_replicate_summary () =
  let s = Rep.across_seeds ~seeds:[ 1; 2; 3 ] float_of_int in
  check Alcotest.int "runs" 3 s.Rep.runs;
  check (Alcotest.float 1e-9) "mean" 2. s.Rep.mean;
  check (Alcotest.float 1e-9) "sd (sample)" 1. s.Rep.stddev;
  check (Alcotest.float 1e-9) "min" 1. s.Rep.min;
  check (Alcotest.float 1e-9) "max" 3. s.Rep.max;
  Alcotest.(check bool) "ci95 positive" true (s.Rep.ci95 > 0.)

let test_replicate_single_run () =
  let s = Rep.across_seeds ~seeds:[ 7 ] float_of_int in
  check (Alcotest.float 1e-9) "mean" 7. s.Rep.mean;
  check (Alcotest.float 1e-9) "sd" 0. s.Rep.stddev

let test_replicate_empty_rejected () =
  match Rep.across_seeds ~seeds:[] float_of_int with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_parallel_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "same results" (List.map f xs)
    (Rep.parallel_map f xs);
  Alcotest.(check (list int)) "one domain" (List.map f xs)
    (Rep.parallel_map ~domains:1 f xs);
  Alcotest.(check (list int)) "many domains" (List.map f xs)
    (Rep.parallel_map ~domains:8 f xs)

let test_parallel_map_edge_cases () =
  Alcotest.(check (list int)) "empty" [] (Rep.parallel_map succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Rep.parallel_map succ [ 1 ])

let test_parallel_map_runs_simulations () =
  (* Independent counters in separate domains must produce the same
     results as a sequential sweep — the simulator has no global mutable
     state. *)
  let run seed =
    let r =
      Counter.Driver.run ~seed Baselines.Registry.retire_tree ~n:27
        ~schedule:Counter.Schedule.Each_once
    in
    ( r.Counter.Driver.values_exact && r.Counter.Driver.sequentially_ordered,
      r.Counter.Driver.total_messages )
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list (pair bool int)))
    "parallel = sequential" (List.map run seeds)
    (Rep.parallel_map ~domains:3 run seeds)

(* A failing worker must not orphan its siblings: every domain is joined
   before the exception escapes, and the lowest-numbered failure wins.
   Worker [w] of [d] takes indices [w], [w + d], ...; the caller is
   worker 0. Worker 2's element outlasts worker 1's failure, so a map
   that returns as soon as one join raises leaves it running. *)
let test_parallel_map_joins_every_domain_on_failure () =
  let run ~fail =
    let finished = Atomic.make false in
    let f i =
      if List.mem i fail then failwith (Printf.sprintf "worker %d" i)
      else if i = 2 then begin
        Unix.sleepf 0.3;
        Atomic.set finished true;
        i
      end
      else i
    in
    let raised =
      match Rep.parallel_map ~domains:3 f [ 0; 1; 2 ] with
      | _ -> None
      | exception Failure msg -> Some msg
    in
    (raised, Atomic.get finished)
  in
  let raised, finished = run ~fail:[ 1 ] in
  Alcotest.(check (option string)) "worker 1 raised" (Some "worker 1") raised;
  Alcotest.(check bool) "worker 2 joined before the raise" true finished;
  (* The caller's own chunk raises too: still every domain is joined, and
     the caller's exception (worker 0) wins over worker 1's. *)
  let raised, finished = run ~fail:[ 0; 1 ] in
  Alcotest.(check (option string)) "worker 0 wins" (Some "worker 0") raised;
  Alcotest.(check bool) "worker 2 joined after the caller raised" true
    finished

let () =
  Alcotest.run "analysis"
    [
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize_basics;
          Alcotest.test_case "singleton" `Quick test_summarize_singleton;
          Alcotest.test_case "empty rejected" `Quick test_summarize_empty_rejected;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "gini extremes" `Quick test_gini_extremes;
          Alcotest.test_case "gini orders load profiles" `Quick test_gini_orders_distributions;
          prop_gini_in_range;
          prop_percentiles_monotone;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "single value" `Quick test_histogram_single_value;
          prop_histogram_conserves_mass;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity checked" `Quick test_table_arity_checked;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "growth",
        [
          Alcotest.test_case "eval" `Quick test_growth_eval;
          Alcotest.test_case "recovers shapes" `Quick test_growth_recovers_shapes;
          Alcotest.test_case "k vs linear" `Quick test_growth_distinguishes_k_from_linear;
          Alcotest.test_case "needs points" `Quick test_growth_requires_points;
          prop_fit_perfect_series_zero_residual;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "summary" `Quick test_replicate_summary;
          Alcotest.test_case "single run" `Quick test_replicate_single_run;
          Alcotest.test_case "empty rejected" `Quick test_replicate_empty_rejected;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_map_matches_sequential;
          Alcotest.test_case "edge cases" `Quick test_parallel_map_edge_cases;
          Alcotest.test_case "parallel simulations" `Quick test_parallel_map_runs_simulations;
          Alcotest.test_case "failure joins every domain" `Quick
            test_parallel_map_joins_every_domain_on_failure;
        ] );
    ]
