(* In-memory spans, one lane per layer, written out at the end as Chrome
   trace-event JSON.

   A span has a name, a start and an end on the monotonic clock, the span
   that was open when it started (its parent) and an operation id ([-1]
   outside operations). Spans live in preallocated parallel arrays, so
   recording one per operation allocates nothing and does not disturb the
   allocation figures measured around it. *)

type lane =
  | Driver
  | Inputs
  | Heap
  | Network
  | Metrics
  | Trace
  | Fault
  | Protocol
  | Checkers

let lanes =
  [ Driver; Inputs; Heap; Network; Metrics; Trace; Fault; Protocol; Checkers ]

let lane_index = function
  | Driver -> 0
  | Inputs -> 1
  | Heap -> 2
  | Network -> 3
  | Metrics -> 4
  | Trace -> 5
  | Fault -> 6
  | Protocol -> 7
  | Checkers -> 8

let lane_name = function
  | Driver -> "driver"
  | Inputs -> "inputs"
  | Heap -> "heap"
  | Network -> "network"
  | Metrics -> "metrics"
  | Trace -> "trace"
  | Fault -> "fault"
  | Protocol -> "protocol"
  | Checkers -> "checkers"

type t = {
  mutable count : int;
  mutable name : string array;
  mutable lane : lane array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable open_ : int;  (** innermost open span, [-1] when none *)
}

let create ~capacity =
  let capacity = max 16 capacity in
  {
    count = 0;
    name = Array.make capacity "";
    lane = Array.make capacity Driver;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    op = Array.make capacity (-1);
    open_ = -1;
  }

let grow t =
  let size = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.name <- extend t.name "";
  t.lane <- extend t.lane Driver;
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op (-1)

let enter t ~op lane name =
  if t.count = Array.length t.start then grow t;
  let id = t.count in
  t.count <- id + 1;
  t.name.(id) <- name;
  t.lane.(id) <- lane;
  t.parent.(id) <- t.open_;
  t.op.(id) <- op;
  t.open_ <- id;
  t.start.(id) <- Clock.now_ns ();
  id

let leave t id =
  t.stop.(id) <- Clock.now_ns ();
  if t.open_ <> id then invalid_arg "Span.leave: not the innermost open span";
  t.open_ <- t.parent.(id)

let record t lane name f =
  let id = enter t ~op:(-1) lane name in
  let x = f () in
  leave t id;
  x

let seconds t id = Clock.seconds_between t.start.(id) t.stop.(id)

(* Durations in seconds of every span called [name]. *)
let durations t name =
  let acc = ref [] in
  for id = t.count - 1 downto 0 do
    if String.equal t.name.(id) name then acc := seconds t id :: !acc
  done;
  Array.of_list !acc

let total t name = Array.fold_left ( +. ) 0. (durations t name)

(* Self time per lane: each span's duration minus the part its children
   cover (children never overlap: the benchmark is single-threaded). *)
let self_by_lane t =
  let child = Array.make t.count 0 in
  for id = 0 to t.count - 1 do
    let p = t.parent.(id) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(id) - t.start.(id))
  done;
  let self = Array.make (List.length lanes) 0 in
  for id = 0 to t.count - 1 do
    let k = lane_index t.lane.(id) in
    self.(k) <- self.(k) + (t.stop.(id) - t.start.(id) - child.(id))
  done;
  List.map (fun l -> (l, float_of_int self.(lane_index l) *. 1e-9)) lanes

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Chrome trace-event JSON ("X" complete events, microsecond timestamps
   relative to the first span), one thread lane per layer. *)
let write_chrome t path =
  let b = Buffer.create (1 lsl 16) in
  let origin = if t.count = 0 then 0 else t.start.(0) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
        (lane_index l);
      json_string b (lane_name l);
      Buffer.add_string b "}}")
    lanes;
  for id = 0 to t.count - 1 do
    Buffer.add_string b ",\n{\"name\":";
    json_string b t.name.(id);
    Printf.bprintf b
      ",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
      (lane_name t.lane.(id))
      (lane_index t.lane.(id))
      (float_of_int (t.start.(id) - origin) /. 1e3)
      (float_of_int (t.stop.(id) - t.start.(id)) /. 1e3)
      id t.parent.(id) t.op.(id)
  done;
  Buffer.add_string b "\n]}\n";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)
