(* The checks' own tests: each run-time check must reject a known-broken
   counter and accept the correct one on the same inputs. Deterministic
   and small; run at the start of every benchmark run and by
   [perfbench.exe --selftest]. *)

let ops = 200

let load_ops = 1000

let closed_check counter =
  let r =
    Counter.Driver.run ~seed:42 counter ~n:64
      ~schedule:(Counter.Schedule.Random ops)
  in
  Workload.closed_ok ~ops r

(* counting-net at rate 0.05 and seed 42 is a known real-time-order
   violation; combining on the same arrivals is linearizable. *)
let open_check name =
  let r =
    Counter.Driver.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
      (Workload.concurrent name) ~n:64 ~arrivals:(Sim.Arrivals.Poisson 0.05)
      ~ops:load_ops
  in
  Workload.open_ok ~ops:load_ops r

let all () =
  [
    ( "run check rejects amnesiac",
      not (closed_check Baselines.Registry.amnesiac) );
    ( "run check accepts retire-tree",
      closed_check Baselines.Registry.retire_tree );
    ("load check rejects counting-net", not (open_check "counting-net"));
    ("load check accepts combining", open_check "combining");
  ]
