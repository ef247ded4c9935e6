(* A 4-ary structure-of-arrays min-heap plus a monotone FIFO lane.

   The event queue is the hottest structure in the simulator, so its layout
   is chosen for throughput rather than elegance:

   - priorities live in flat [float array]s (unboxed storage — the boxed
     [{prio; seq; value}] entry records of the original binary heap cost a
     two-block allocation per push and a pointer chase per comparison);
   - sequence numbers and values live in parallel [int array] / ['a array]
     columns, so a steady-state push/pop cycle allocates nothing at all;
   - the heap part is 4-ary: half the depth of a binary heap, which trades a
     few extra comparisons per level for far fewer cache-missing levels.
     Sift loops move a "hole" instead of swapping, one write per level;
   - the lane is a ring buffer that takes every push whose priority is
     >= the lane's last entry. Pushes in plan order (the open-loop arrival
     timers) and constant-delay deliveries never enter the heap part: they
     cost O(1) to push and pop instead of O(log n).

   The lane stays sorted by (prio, seq): its priorities never decrease and
   [seq] is the global insertion counter, which only grows. Pop takes the
   smaller (prio, seq) of the lane head and the heap root. Keys are unique
   and (prio, seq) is a total order, so the pop order is the one any stable
   priority queue gives — equal priorities pop FIFO, and seeded runs are
   bit-identical to the old single-heap implementation.

   Retention: a vacated value slot (popped, moved out, cleared, or never
   used) holds the filler — the first value ever pushed — so the queue
   keeps no dead event alive except that one. [capacity] is one budget for
   both parts: each part's columns are [capacity] long, and the push that
   would exceed the budget doubles both. *)

type 'a t = {
  (* heap part: a 4-ary min-heap over [0, len) *)
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  (* lane: a ring of [lane_len] sorted entries starting at [head] *)
  mutable lane_prios : float array;
  mutable lane_seqs : int array;
  mutable lane_values : 'a array;
  mutable head : int;
  mutable lane_len : int;
  mutable next_seq : int;
  mutable filler : 'a option;
      (* the first value pushed; the value columns stay [[||]] until then *)
}

let create ?(capacity = 0) () =
  let cap = max capacity 0 in
  {
    prios = Array.make cap 0.0;
    seqs = Array.make cap 0;
    values = [||];
    len = 0;
    lane_prios = Array.make cap 0.0;
    lane_seqs = Array.make cap 0;
    lane_values = [||];
    head = 0;
    lane_len = 0;
    next_seq = 0;
    filler = None;
  }

let size t = t.len + t.lane_len

let is_empty t = t.len = 0 && t.lane_len = 0

let capacity t = Array.length t.prios

(* Physical slot of the lane's [k]-th entry. *)
let lane_slot t k =
  let i = t.head + k in
  let cap = Array.length t.lane_prios in
  if i >= cap then i - cap else i

(* Doubles the budget: the heap part keeps its layout, the lane ring is
   unrolled to start at slot 0. *)
let grow t fill =
  let cap = capacity t in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let prios = Array.make new_cap 0.0 in
  let seqs = Array.make new_cap 0 in
  let values = Array.make new_cap fill in
  Array.blit t.prios 0 prios 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  let lane_prios = Array.make new_cap 0.0 in
  let lane_seqs = Array.make new_cap 0 in
  let lane_values = Array.make new_cap fill in
  for k = 0 to t.lane_len - 1 do
    let i = lane_slot t k in
    lane_prios.(k) <- t.lane_prios.(i);
    lane_seqs.(k) <- t.lane_seqs.(i);
    lane_values.(k) <- t.lane_values.(i)
  done;
  t.prios <- prios;
  t.seqs <- seqs;
  t.values <- values;
  t.lane_prios <- lane_prios;
  t.lane_seqs <- lane_seqs;
  t.lane_values <- lane_values;
  t.head <- 0

let heap_push t prio seq value =
  let prios = t.prios and seqs = t.seqs and values = t.values in
  (* Sift the hole up from the end; parents shift down into it. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pp = prios.(parent) in
    if prio < pp || (prio = pp && seq < seqs.(parent)) then begin
      prios.(!i) <- pp;
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else moving := false
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  values.(!i) <- value

let push t ~prio value =
  let fill =
    match t.filler with
    | Some fill -> fill
    | None ->
        t.filler <- Some value;
        t.values <- Array.make (capacity t) value;
        t.lane_values <- Array.make (capacity t) value;
        value
  in
  if size t >= capacity t then grow t fill;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.lane_len = 0 || prio >= t.lane_prios.(lane_slot t (t.lane_len - 1))
  then begin
    let i = lane_slot t t.lane_len in
    t.lane_prios.(i) <- prio;
    t.lane_seqs.(i) <- seq;
    t.lane_values.(i) <- value;
    t.lane_len <- t.lane_len + 1
  end
  else heap_push t prio seq value

(* Re-inserts (prio, seq, value) starting from a hole at the root. *)
let sift_down_from_root t prio seq value =
  let prios = t.prios and seqs = t.seqs and values = t.values in
  let len = t.len in
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let base = (4 * !i) + 1 in
    if base >= len then moving := false
    else begin
      let best = ref base in
      let last = min (base + 3) (len - 1) in
      for c = base + 1 to last do
        let cp = prios.(c) in
        let bp = prios.(!best) in
        if cp < bp || (cp = bp && seqs.(c) < seqs.(!best)) then best := c
      done;
      let b = !best in
      let bp = prios.(b) in
      if bp < prio || (bp = prio && seqs.(b) < seq) then begin
        prios.(!i) <- bp;
        seqs.(!i) <- seqs.(b);
        values.(!i) <- values.(b);
        i := b
      end
      else moving := false
    end
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  values.(!i) <- value

(* Whether the next pop comes from the lane: it is non-empty and its head
   precedes the heap root in (prio, seq) order. *)
let lane_leads t =
  t.lane_len > 0
  && (t.len = 0
     ||
     let lp = t.lane_prios.(t.head) and hp = t.prios.(0) in
     lp < hp || (lp = hp && t.lane_seqs.(t.head) < t.seqs.(0)))

let vacate t values i =
  match t.filler with Some fill -> values.(i) <- fill | None -> ()

let peek t =
  if lane_leads t then Some (t.lane_prios.(t.head), t.lane_values.(t.head))
  else if t.len = 0 then None
  else Some (t.prios.(0), t.values.(0))

let top_prio t =
  if lane_leads t then t.lane_prios.(t.head)
  else if t.len = 0 then invalid_arg "Heap.top_prio: empty heap"
  else t.prios.(0)

let pop_top t =
  if lane_leads t then begin
    let h = t.head in
    let value = t.lane_values.(h) in
    vacate t t.lane_values h;
    t.head <- (if h + 1 = Array.length t.lane_prios then 0 else h + 1);
    t.lane_len <- t.lane_len - 1;
    value
  end
  else if t.len = 0 then invalid_arg "Heap.pop_top: empty heap"
  else begin
    let value = t.values.(0) in
    let last = t.len - 1 in
    t.len <- last;
    let moved = t.values.(last) in
    vacate t t.values last;
    if last > 0 then sift_down_from_root t t.prios.(last) t.seqs.(last) moved;
    value
  end

let pop t =
  if is_empty t then None
  else begin
    let prio = top_prio t in
    Some (prio, pop_top t)
  end

let clear t =
  for i = 0 to t.len - 1 do
    vacate t t.values i
  done;
  for k = 0 to t.lane_len - 1 do
    vacate t t.lane_values (lane_slot t k)
  done;
  t.len <- 0;
  t.head <- 0;
  t.lane_len <- 0;
  t.next_seq <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.prios.(i) t.values.(i)
  done;
  for k = 0 to t.lane_len - 1 do
    let i = lane_slot t k in
    f t.lane_prios.(i) t.lane_values.(i)
  done

let to_sorted_list t =
  let items =
    Array.append
      (Array.init t.len (fun i -> (t.prios.(i), t.seqs.(i), t.values.(i))))
      (Array.init t.lane_len (fun k ->
           let i = lane_slot t k in
           (t.lane_prios.(i), t.lane_seqs.(i), t.lane_values.(i))))
  in
  Array.sort
    (fun (p1, s1, _) (p2, s2, _) ->
      if p1 < p2 then -1
      else if p1 > p2 then 1
      else Int.compare s1 s2)
    items;
  Array.to_list (Array.map (fun (p, _, v) -> (p, v)) items)
