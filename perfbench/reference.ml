(* Reference kernel for host-speed normalisation.

   On a shared host the speed of memory-bound code drifts by up to 1.5x
   over minutes as other tenants load the shared cache and memory bus,
   while the drift is small for code that stays in registers. A run
   therefore times this fixed kernel before each timed driver call and
   scales that call's host time by [nominal_s / kernel time].

   The kernel exercises memory latency and bandwidth, the two resources
   the collector and the simulator's pointer-heavy structures contend
   for: a dependent-load chase along one random cycle through a 64 MB
   buffer, then read-modify-write passes over a second 64 MB buffer. Both
   buffers live outside the OCaml heap and are built before any workload
   runs. The kernel allocates nothing, so it never runs the collector and
   never touches the program's heap: a change to the program's allocation
   or retention cannot move it. Timed next to driver calls on a 2-core
   shared host, its time correlated with theirs at 0.6-0.8 per call
   (kernels that allocate: at most 0.25); the scaled call times varied
   20-40% less than the raw ones, and across ten seeds the spread of the
   reported rate was 45-80% smaller. *)

let nominal_s = 0.2

let chase_steps = 500_000

let stream_passes = 8

let cells = 8 * 1024 * 1024

(* A random cyclic permutation (Sattolo), so the chase visits [chase_steps]
   distinct cells in an order the prefetcher cannot guess. *)
let cycle =
  lazy
    (let n = cells in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     let st = Random.State.make [| 1 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let stream =
  lazy
    (let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cells in
     Bigarray.Array1.fill a 0.;
     a)

let run () =
  let a = Lazy.force cycle and b = Lazy.force stream in
  let t0 = Clock.now_ns () in
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := a.{!p}
  done;
  ignore (Sys.opaque_identity !p);
  for _ = 1 to stream_passes do
    for i = 0 to cells - 1 do
      b.{i} <- b.{i} +. 1.
    done
  done;
  Clock.since t0
