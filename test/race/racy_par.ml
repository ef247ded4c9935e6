(* Negative control for R1 (domain-escape): a two-domain worker pool
   whose shared counter is a plain ref, deliberately unprotected. drace
   must flag it statically (make lint-race) and test_race pins down the
   runtime misbehaviour. Lives under test/ precisely so the library
   lint gate (make lint) never sees it. *)

(* Classic lost update, made deterministic: both sides read the counter
   before either is allowed to write it (the Atomic flags only build
   the schedule — the racy state is [counter] itself). The sequential
   checksum is 2; this returns 1 on every run, on any hardware. *)
let forced_lost_update () =
  let counter = ref 0 in
  let flag_a = Atomic.make false in
  let flag_b = Atomic.make false in
  let stepper my_flag other_flag () =
    let seen = !counter in
    Atomic.set my_flag true;
    while not (Atomic.get other_flag) do
      Domain.cpu_relax ()
    done;
    counter := seen + 1
  in
  let d = Domain.spawn (stepper flag_a flag_b) in
  stepper flag_b flag_a ();
  Domain.join d;
  !counter

(* Free-running contention: two domains hammer the same unprotected
   counter. The observed total can fall anywhere in [2, expected]; all
   a test can assert deterministically is that it never exceeds the
   checksum (and the static analyzer must reject the pattern). *)
let contended ~iters () =
  let counter = ref 0 in
  let hammer () =
    for _ = 1 to iters do
      incr counter
    done
  in
  let d = Domain.spawn hammer in
  hammer ();
  Domain.join d;
  (!counter, 2 * iters)
