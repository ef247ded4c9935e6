(* Golden determinism regression for the event-engine rewrite.

   The golden values below were produced by the ORIGINAL boxed binary-heap
   engine (the pre-rewrite seed of this repository) running the paper's
   retirement counter at n = 81 with a seed-shuffled each-once order. The
   structure-of-arrays 4-ary heap must deliver events in exactly the same
   order — the (prio, seq) contract is a total order, so any conforming
   implementation reproduces these runs bit-identically. If one of these
   checks ever fails, an engine change silently altered delivery order and
   every seeded experiment in EXPERIMENTS.md is invalidated.

   The checksum is Sim.Metrics.checksum: an FNV-1a fingerprint of the full
   per-processor (sent, received) load vector including overflow hires. *)

let check = Alcotest.check

type golden = {
  name : string;
  seed : int;
  delay : Sim.Delay.t;
  total_messages : int;
  total_load : int;
  bottleneck : int * int;
  overflow : int;
  checksum : int;
}

let goldens =
  [
    {
      name = "constant delay";
      seed = 42;
      delay = Sim.Delay.Constant 1.0;
      total_messages = 1627;
      total_load = 3254;
      bottleneck = (7, 44);
      overflow = 76;
      checksum = 1117116884259558886;
    };
    {
      name = "exponential delay";
      seed = 7;
      delay = Sim.Delay.Exponential 1.0;
      total_messages = 1636;
      total_load = 3272;
      bottleneck = (20, 44);
      overflow = 79;
      checksum = 2181917791483362687;
    };
    {
      name = "adversarial jitter";
      seed = 1;
      delay = Sim.Delay.Adversarial_jitter 0.5;
      total_messages = 1777;
      total_load = 3554;
      bottleneck = (25, 43);
      overflow = 97;
      checksum = 3112887691210187096;
    };
  ]

let run_metrics ?faults g =
  let module R = Core.Retire_counter in
  let n = 81 in
  let c = R.create ?faults ~n ~seed:g.seed ~delay:g.delay () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:g.seed) n in
  Array.iteri
    (fun i p ->
      let v = R.inc c ~origin:(p + 1) in
      check Alcotest.int (Printf.sprintf "%s: value %d" g.name i) i v)
    order;
  R.metrics c

let test_golden g () =
  let m = run_metrics g in
  check Alcotest.int "total messages" g.total_messages
    (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" g.total_load (Sim.Metrics.total_load m);
  check
    Alcotest.(pair int int)
    "bottleneck" g.bottleneck (Sim.Metrics.bottleneck m);
  check Alcotest.int "overflow hires" g.overflow
    (Sim.Metrics.overflow_processors m);
  check Alcotest.int "load-vector checksum" g.checksum (Sim.Metrics.checksum m)

(* Same-process reproducibility: two identical runs must agree exactly —
   catches hidden global state (hash seeds, shared RNGs) leaking into the
   engine. *)
let test_repeat_runs_identical () =
  let g = List.hd goldens in
  let a = run_metrics g and b = run_metrics g in
  check Alcotest.int "checksums agree" (Sim.Metrics.checksum a)
    (Sim.Metrics.checksum b);
  Alcotest.(check (array int))
    "load vectors agree" (Sim.Metrics.load_array a)
    (Sim.Metrics.load_array b)

(* The fault layer's zero-overhead contract: an explicit empty plan makes
   no Rng draw and mixes nothing into the checksum, so every golden must
   reproduce bit-identically with [~faults:Sim.Fault.none]. *)
let test_fault_none_bit_identical () =
  List.iter
    (fun g ->
      let m = run_metrics ~faults:Sim.Fault.none g in
      check Alcotest.int
        (Printf.sprintf "%s: checksum under Fault.none" g.name)
        g.checksum (Sim.Metrics.checksum m))
    goldens

(* Fault runs are seeded like everything else: the same plan twice must
   reproduce the same load vector exactly. *)
let test_fault_plan_reproducible () =
  let faults =
    match Sim.Fault.of_string "drop:0.02/dup:0.01/part:1-9@3,20" with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let run () =
    let module R = Core.Retire_counter in
    let c = R.create ~faults ~n:81 ~seed:42 () in
    let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) 81 in
    Array.iter
      (fun p -> ignore (R.inc_result c ~origin:(p + 1)))
      order;
    R.metrics c
  in
  let a = run () and b = run () in
  check Alcotest.int "fault-run checksums agree" (Sim.Metrics.checksum a)
    (Sim.Metrics.checksum b);
  check Alcotest.int "fault counters agree" (Sim.Metrics.dropped a)
    (Sim.Metrics.dropped b);
  (* The plan above genuinely injects faults under this seed — otherwise
     this test would silently degenerate into the Fault.none case. *)
  check Alcotest.bool "plan actually fired" true (Sim.Metrics.dropped a > 0)

(* Fault-path goldens: a deterministic crash/recover plan and a
   probabilistic drop/dup/partition plan. Faults touch the Rng draw order
   (at send time) and the crash trigger order (at pop time), so these pin
   the schedules the fault-free goldens above never reach. *)
type fault_golden = {
  plan : string;
  fault_checksum : int;
  dropped : int;
  crashes : int;
  recoveries : int;
}

let fault_goldens =
  [
    {
      plan = "crash:3@4/recover:3@40";
      fault_checksum = 3311741383050510991;
      dropped = 13;
      crashes = 1;
      recoveries = 1;
    };
    {
      plan = "drop:0.02/dup:0.01/part:1-9@3,20";
      fault_checksum = 238689233693110146;
      dropped = 43;
      crashes = 0;
      recoveries = 0;
    };
  ]

let test_fault_golden g () =
  let faults =
    match Sim.Fault.of_string g.plan with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  (* Stalls are expected under a fault plan, so this runner goes through
     inc_result instead of run_metrics's raising inc. *)
  let module R = Core.Retire_counter in
  let c = R.create ~faults ~n:81 ~seed:42 () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) 81 in
  Array.iter (fun p -> ignore (R.inc_result c ~origin:(p + 1))) order;
  let m = R.metrics c in
  check Alcotest.int "load-vector checksum" g.fault_checksum
    (Sim.Metrics.checksum m);
  check Alcotest.int "dropped" g.dropped (Sim.Metrics.dropped m);
  check Alcotest.int "crashes" g.crashes (Sim.Metrics.crashes m);
  check Alcotest.int "recoveries" g.recoveries (Sim.Metrics.recoveries m)

(* The durable WAL-backed counter under Fault.none is disarmed: no retry
   timers, no Rng draws, a sequential store pipeline — so its runs must
   be bit-identical, store traffic included (the store is processor n+1
   in the counter's own network, so its RPCs flow through the same event
   queue). The golden pins the full load vector; a change to the WAL
   record flow (extra retry, reordered snapshot, different chunk cadence)
   moves it. *)
let durable_golden =
  (* n = 16, seed 42, seed-shuffled each-once order. *)
  (72, 144, (1, 72), 1938892630621606450)

let run_durable_metrics () =
  let module D = Core.Durable_counter in
  let n = 16 in
  let c = D.create ~faults:Sim.Fault.none ~n ~seed:42 () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) n in
  Array.iteri
    (fun i p ->
      let v = D.inc c ~origin:(p + 1) in
      check Alcotest.int (Printf.sprintf "durable: value %d" i) i v)
    order;
  (* [value] audits the store offline: the durable truth must match the
     count of completed operations exactly. *)
  check Alcotest.int "durable: audited count" n (D.value c);
  D.metrics c

let test_durable_golden () =
  let msgs, load, bottleneck, checksum = durable_golden in
  let m = run_durable_metrics () in
  check Alcotest.int "total messages" msgs (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" load (Sim.Metrics.total_load m);
  check
    Alcotest.(pair int int)
    "bottleneck" bottleneck (Sim.Metrics.bottleneck m);
  check Alcotest.int "load-vector checksum" checksum (Sim.Metrics.checksum m)

(* The phase-king Byzantine counter under Fault.none must be as
   deterministic as everything else: the corruption path is never
   consulted (zero Rng draws, nothing mixed into the checksum), so the
   pinned golden must reproduce with and without the empty plan. The
   golden pins the full load vector of an
   all-to-all protocol — any change to the three-round phase cadence
   (an extra vote, a reordered king broadcast) moves it. *)
let sync_golden =
  (* n = 7, seed 42, seed-shuffled each-once order. *)
  (1974, 3948, (1, 584), 1735325893595757405)

let run_sync_metrics ?faults () =
  let module S = Core.Sync_counter in
  let n = 7 in
  let c = S.create ?faults ~n ~seed:42 () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) n in
  Array.iteri
    (fun i p ->
      let v = S.inc c ~origin:(p + 1) in
      check Alcotest.int (Printf.sprintf "sync: value %d" i) i v)
    order;
  S.metrics c

let test_sync_golden () =
  let msgs, load, bottleneck, checksum = sync_golden in
  let m = run_sync_metrics () in
  check Alcotest.int "total messages" msgs (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" load (Sim.Metrics.total_load m);
  check
    Alcotest.(pair int int)
    "bottleneck" bottleneck (Sim.Metrics.bottleneck m);
  check Alcotest.int "load-vector checksum" checksum (Sim.Metrics.checksum m);
  let m' = run_sync_metrics ~faults:Sim.Fault.none () in
  check Alcotest.int "checksum under Fault.none" checksum
    (Sim.Metrics.checksum m')

(* The driver's shuffled schedule must also be reproducible end-to-end. *)
let test_driver_reports_reproducible () =
  let run () =
    Counter.Driver.run ~seed:1234 Baselines.Registry.retire_tree ~n:81
      ~schedule:Counter.Schedule.Each_once_shuffled
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "correct" true
    (a.Counter.Driver.values_exact && a.Counter.Driver.sequentially_ordered);
  check Alcotest.int "bottleneck load" a.Counter.Driver.bottleneck_load
    b.Counter.Driver.bottleneck_load;
  check Alcotest.int "bottleneck proc" a.Counter.Driver.bottleneck_proc
    b.Counter.Driver.bottleneck_proc;
  check Alcotest.int "messages" a.Counter.Driver.total_messages
    b.Counter.Driver.total_messages

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        List.map
          (fun g -> Alcotest.test_case g.name `Quick (test_golden g))
          goldens );
      ( "reproducibility",
        [
          Alcotest.test_case "repeat runs identical" `Quick
            test_repeat_runs_identical;
          Alcotest.test_case "Fault.none bit-identical to goldens" `Quick
            test_fault_none_bit_identical;
          Alcotest.test_case "fault plan reproducible" `Quick
            test_fault_plan_reproducible;
          Alcotest.test_case "driver reports reproducible" `Quick
            test_driver_reports_reproducible;
        ] );
      ( "goldens",
        Alcotest.test_case "durable golden" `Quick test_durable_golden
        :: Alcotest.test_case "sync-count golden" `Quick test_sync_golden
        :: List.map
             (fun g ->
               Alcotest.test_case ("fault plan " ^ g.plan) `Quick
                 (test_fault_golden g))
             fault_goldens );
    ]
