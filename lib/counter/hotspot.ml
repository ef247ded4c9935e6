type violation = {
  first_op : int;
  second_op : int;
  first_origin : int;
  second_origin : int;
}

(* [stamp.(p)] is the feed index of the latest trace whose processor set
   contains [p]; trace [k] meets its predecessor iff one of its processors
   carries stamp [k - 1] when visited. [k - 1 >= -1], so [min_int] marks
   "never seen". The array grows on demand: protocols hire ids above [n]. *)
type t = {
  mutable stamp : int array;
  mutable fed : int;
  mutable prev_op : int;
  mutable prev_origin : int;
  mutable violations_rev : violation list;
}

let unseen = min_int

let create () =
  {
    stamp = Array.make 64 unseen;
    fed = 0;
    prev_op = 0;
    prev_origin = 0;
    violations_rev = [];
  }

let grow t p =
  let len = Array.length t.stamp in
  if p >= len then begin
    let stamp = Array.make (max (p + 1) (2 * len)) unseen in
    Array.blit t.stamp 0 stamp 0 len;
    t.stamp <- stamp
  end

let feed t trace =
  let k = t.fed in
  let met = ref false in
  Sim.Trace.iter_processors
    (fun p ->
      if p < 0 then invalid_arg "Hotspot.feed: negative processor id";
      grow t p;
      if t.stamp.(p) = k - 1 then met := true;
      t.stamp.(p) <- k)
    trace;
  if k > 0 && not !met then
    t.violations_rev <-
      {
        first_op = t.prev_op;
        second_op = Sim.Trace.op_index trace;
        first_origin = t.prev_origin;
        second_origin = Sim.Trace.origin trace;
      }
      :: t.violations_rev;
  t.fed <- k + 1;
  t.prev_op <- Sim.Trace.op_index trace;
  t.prev_origin <- Sim.Trace.origin trace

let violations t = List.rev t.violations_rev

let check traces =
  let t = create () in
  List.iter (feed t) traces;
  violations t

let holds traces = check traces = []

let pp_violation ppf v =
  Format.fprintf ppf
    "ops #%d (by p%d) and #%d (by p%d) touch disjoint processor sets"
    v.first_op v.first_origin v.second_op v.second_origin
