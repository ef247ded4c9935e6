type op = {
  origin : int;
  value : int;
  invoked_at : float;
  completed_at : float;
}

type verdict = Linearizable | Violation of op * op

(* Total, deterministic orders so verdicts and witnesses are a pure
   function of the history multiset, never of input list order. *)
let by_value a b =
  match Int.compare a.value b.value with
  | 0 -> Int.compare a.origin b.origin
  | c -> c

let by_invocation a b =
  match Float.compare a.invoked_at b.invoked_at with
  | 0 -> (
      match Float.compare a.completed_at b.completed_at with
      | 0 -> by_value a b
      | c -> c)
  | c -> c

let by_completion a b =
  match Float.compare a.completed_at b.completed_at with
  | 0 -> (
      match Float.compare a.invoked_at b.invoked_at with
      | 0 -> by_value a b
      | c -> c)
  | c -> c

(* The history sorted once by invocation and once by completion; every
   measure below is a linear pass over these two arrays. [stable_sort] is
   a merge sort, faster here than [Array.sort]'s heap sort; both orders
   tie only on equal records, so stability changes nothing. *)
type sorted = { inv : op array; comp : op array }

let sort ops =
  let inv = Array.of_list ops in
  let comp = Array.copy inv in
  Array.stable_sort by_invocation inv;
  Array.stable_sort by_completion comp;
  { inv; comp }

exception Found of op * op

let check_sorted { inv; comp } =
  (* Sweep operations in invocation order, maintaining the running
     maximum value over all operations already completed strictly before
     the current invocation: a violation exists iff that maximum ever
     exceeds the invoked operation's value. O(ops); the witness [a] is
     the largest value completed before [b], the first violated operation
     in invocation order. *)
  let len = Array.length inv in
  let j = ref 0 in
  let best = ref None in
  try
    Array.iter
      (fun b ->
        while !j < len && comp.(!j).completed_at < b.invoked_at do
          (match !best with
          | Some a when a.value >= comp.(!j).value -> ()
          | Some _ | None -> best := Some comp.(!j));
          incr j
        done;
        match !best with
        | Some a when a.value > b.value -> raise (Found (a, b))
        | Some _ | None -> ())
      inv;
    Linearizable
  with Found (a, b) -> Violation (a, b)

let check ops = check_sorted (sort ops)

let is_linearizable ops = match check ops with
  | Linearizable -> true
  | Violation _ -> false

(* The values are exactly [0 .. len-1] iff each is in range and none
   repeats: one seen-bitmap pass. *)
let contiguous ops =
  let len = Array.length ops in
  let seen = Bytes.make len '\000' in
  Array.for_all
    (fun o ->
      let v = o.value in
      let fresh = v >= 0 && v < len && Bytes.get seen v = '\000' in
      if fresh then Bytes.set seen v '\001';
      fresh)
    ops

let values_contiguous ops = contiguous (Array.of_list ops)

(* Endpoint sweep shared by the peak and mean overlap measures: one merge
   of the sorted invocation and completion times. Completions go first at
   the same instant: an op ending exactly when another starts does not
   overlap it. Returns (peak, time-weighted mean). *)
let overlap { inv; comp } =
  let len = Array.length inv in
  if len = 0 then (0, 0.)
  else begin
    let i = ref 0 and j = ref 0 in
    let cur = ref 0 and peak = ref 0 and area = ref 0. in
    let completion_next () =
      !j < len && (!i >= len || comp.(!j).completed_at <= inv.(!i).invoked_at)
    in
    let t0 =
      if completion_next () then comp.(0).completed_at else inv.(0).invoked_at
    in
    let prev = ref t0 in
    for _ = 1 to 2 * len do
      let completion = completion_next () in
      let t = if completion then comp.(!j).completed_at else inv.(!i).invoked_at in
      area := !area +. (float_of_int !cur *. (t -. !prev));
      prev := t;
      if completion then begin
        decr cur;
        incr j
      end
      else begin
        incr cur;
        incr i;
        if !cur > !peak then peak := !cur
      end
    done;
    let span = !prev -. t0 in
    (!peak, if span > 0. then !area /. span else 0.)
  end

let concurrency_profile ops = fst (overlap (sort ops))

let mean_overlap ops = snd (overlap (sort ops))

type analysis = {
  verdict : verdict;
  quiescent : bool;
  linearizable : bool;
  peak_overlap : int;
  mean_overlap : float;
}

let analyze ops =
  let sorted = sort ops in
  let verdict = check_sorted sorted in
  let quiescent = contiguous sorted.inv in
  let peak_overlap, mean_overlap = overlap sorted in
  {
    verdict;
    quiescent;
    linearizable =
      (quiescent && match verdict with Linearizable -> true | Violation _ -> false);
    peak_overlap;
    mean_overlap;
  }

let pp_op ppf o =
  Format.fprintf ppf "p%d got %d [%.2f, %.2f]" o.origin o.value o.invoked_at
    o.completed_at

let pp_verdict ppf = function
  | Linearizable -> Format.pp_print_string ppf "linearizable"
  | Violation (a, b) ->
      Format.fprintf ppf "NOT linearizable: (%a) precedes (%a) in real time"
        pp_op a pp_op b
