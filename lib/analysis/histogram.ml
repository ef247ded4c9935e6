type t = { lo : int; width : int; counts : int array }

let of_samples ?(buckets = 12) samples =
  if Array.length samples = 0 then
    invalid_arg "Histogram.of_samples: empty sample";
  if buckets < 1 then invalid_arg "Histogram.of_samples: buckets < 1";
  let lo = Array.fold_left min samples.(0) samples in
  let hi = Array.fold_left max samples.(0) samples in
  let width = max 1 (((hi - lo) / buckets) + 1) in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun x ->
      let b = min (buckets - 1) ((x - lo) / width) in
      counts.(b) <- counts.(b) + 1)
    samples;
  { lo; width; counts }

let bucket_counts t =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let lo = t.lo + (i * t.width) in
         (lo, lo + t.width - 1, c))
       t.counts)

(* Nearest-rank on a sorted sample: the smallest sample s such that at
   least [q * len] samples are <= s (q = 0 gives the minimum, q = 1 the
   maximum). *)
let nearest_rank sorted q =
  let len = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int len)) in
  sorted.(max 0 (min (len - 1) (rank - 1)))

(* [stable_sort] is a merge sort, faster than [Array.sort]'s heap sort;
   samples that compare equal are the same number, so every quantile is
   unchanged. *)
let sorted_copy samples =
  let sorted = Array.copy samples in
  Array.stable_sort Float.compare sorted;
  sorted

let quantile samples ~q =
  if Array.length samples = 0 then invalid_arg "Histogram.quantile: empty sample";
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  nearest_rank (sorted_copy samples) q

type latency_summary = { p50 : float; p90 : float; p99 : float; max : float }

let summary samples =
  if Array.length samples = 0 then invalid_arg "Histogram.summary: empty sample";
  let sorted = sorted_copy samples in
  {
    p50 = nearest_rank sorted 0.5;
    p90 = nearest_rank sorted 0.9;
    p99 = nearest_rank sorted 0.99;
    max = nearest_rank sorted 1.;
  }

let pp ?(bar_width = 40) ppf t =
  let most = Array.fold_left max 1 t.counts in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (lo, hi, c) ->
      let bar = c * bar_width / most in
      Format.fprintf ppf "%6d-%-6d %6d %s@," lo hi c (String.make bar '#'))
    (bucket_counts t);
  Format.fprintf ppf "@]"
