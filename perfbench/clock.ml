(* Host clock and memory accounting.

   Time comes from a monotonic clock (bechamel's [Monotonic_clock], a
   CLOCK_MONOTONIC read in nanoseconds): [Unix.gettimeofday] can step and
   reads 0 us for sub-microsecond work.

   Allocation uses [Gc.minor_words], which includes the words allocated in
   the current minor heap. On OCaml 5.1 the minor figure of
   [Gc.quick_stat] and of [Gc.counters] only moves at a minor collection,
   so a loop that allocates less than the minor heap reads as ~0 words. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

let since t0 = seconds_between t0 (now_ns ())

let time f =
  let t0 = now_ns () in
  let x = f () in
  (since t0, x)

(* Words allocated by this domain so far: minor allocations (live minor
   heap included) plus direct major allocations. Promoted words are counted
   in both [major] and the minor figure, so they are taken out once. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Live words after a full major collection: what the heap retains. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let bytes_of_words w = w *. float_of_int (Sys.word_size / 8)

let peak_heap_mb () =
  bytes_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) /. 1e6

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* The highest percentile that still has [beyond] samples above it:
   [(value, percentile, sample count)]. Nearest rank, no interpolation. *)
let tail ?(beyond = 10) samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let k = Array.length sorted in
  if k = 0 then invalid_arg "Clock.tail: no samples";
  let i = max 0 (k - beyond - 1) in
  (sorted.(i), 100. *. float_of_int (i + 1) /. float_of_int k, k)
