type 'payload ctx = {
  net : 'payload Sim.Network.t;
  mutable done_rev : (int * int * float) list;  (* op, value, completed_at *)
  mutable stalled : (int * string) option;  (* the latest stall: op, reason *)
  mutable completed : int;
}

let net k = k.net

let complete k ~op ~value =
  k.done_rev <- (op, value, Sim.Network.now k.net) :: k.done_rev;
  k.completed <- k.completed + 1

let stall k ~op reason = k.stalled <- Some (op, reason)

module type PROTOCOL = sig
  type payload
  type config
  type state

  val name : string
  val describe : string
  val supported_n : int -> int
  val label : payload -> string
  val default : n:int -> config
  val init : payload ctx -> n:int -> config -> state
  val handle : state -> self:int -> src:int -> payload -> unit
  val start : state -> op:int -> origin:int -> unit
  val settle : state -> unit
  val no_value : string
  val copy : payload ctx -> state -> state
end

(* Records pushed onto [now] since [mark] (a suffix of it), oldest
   first. *)
let since ~mark now =
  let rec go acc l =
    if l == mark then acc
    else match l with x :: rest -> go (x :: acc) rest | [] -> acc
  in
  go [] now

(* The counter: every function below is generic over the protocol, which
   travels in [proto]. Keeping them outside the functor means an
   application of [Make] allocates one module block at start-up instead
   of a closure per function — start-up allocation shifts the GC's pacing
   for the rest of a run, and with it the heap high-water mark. *)
type ('p, 's) t = {
  proto : (module PROTOCOL with type payload = 'p and type state = 's);
  k : 'p ctx;
  st : 's;
  n : int;
  mutable seq : int;
      (* operations started by [inc] and the batches; they take ids below
         zero, which [launch_at] refuses, so their records never mix with
         the caller's *)
}

let install (type p s)
    (module P : PROTOCOL with type payload = p and type state = s) k st =
  Sim.Network.set_handler k.net (fun ~self ~src payload ->
      P.handle st ~self ~src payload)

let create_with (type p s c)
    (module P : PROTOCOL
      with type payload = p
       and type state = s
       and type config = c) ?(seed = 42) ?delay ?faults ~n config =
  let net = Sim.Network.create ~seed ?delay ?faults ~label:P.label ~n () in
  let k = { net; done_rev = []; stalled = None; completed = 0 } in
  let st = P.init k ~n config in
  let proto = (module P : PROTOCOL with type payload = p and type state = s) in
  install proto k st;
  { proto; k; st; n; seq = 0 }

let state t = t.st
let n t = t.n
let value t = t.k.completed
let metrics t = Sim.Network.metrics t.k.net
let traces t = Sim.Network.traces t.k.net
let observe t f = Sim.Network.observe t.k.net f
let crashed t p = Sim.Network.crashed t.k.net p

let check_origin (type p s) (t : (p, s) t) ~who origin =
  let (module P) = t.proto in
  if origin < 1 || origin > t.n then
    invalid_arg
      (Printf.sprintf "%s.%s: origin %d out of range 1..%d" P.name who origin
         t.n)

let start (type p s) (t : (p, s) t) ~op ~origin =
  let (module P) = t.proto in
  P.start t.st ~op ~origin

let drain (type p s) (t : (p, s) t) =
  let (module P) = t.proto in
  ignore (Sim.Network.run_to_quiescence t.k.net);
  P.settle t.st

(* Run [inject] inside one traced operation attributed to [origin] and
   drain; returns the completion records it produced, oldest first, and
   drops them from the open-loop record. *)
let traced t ~origin inject =
  let k = t.k in
  let mark = k.done_rev in
  Sim.Network.begin_op k.net ~origin;
  inject ();
  drain t;
  ignore (Sim.Network.end_op k.net);
  let done_ = since ~mark k.done_rev in
  k.done_rev <- mark;
  done_

let inc (type p s) (t : (p, s) t) ~origin =
  let (module P) = t.proto in
  check_origin t ~who:"inc" origin;
  t.seq <- t.seq + 1;
  let op = -t.seq in
  let before = t.k.completed in
  match traced t ~origin (fun () -> start t ~op ~origin) with
  | (_, value, _) :: _ ->
      (* The first delivery wins; a duplicated reply is not a second
         operation. *)
      t.k.completed <- before + 1;
      value
  | [] ->
      let reason =
        match t.k.stalled with
        | Some (stalled, reason) when stalled = op -> reason
        | _ -> P.no_value
      in
      raise (Counter_intf.Stall reason)

let inc_result t ~origin = Counter_intf.result_of_inc (fun () -> inc t ~origin)

(* One operation per origin, [inject i op origin] issuing the [i]-th;
   returns [(i, value, completed_at)] per completion. *)
let batch (type p s) (t : (p, s) t) ~who ~origins inject =
  let (module P) = t.proto in
  (match origins with
  | [] -> invalid_arg (Printf.sprintf "%s.%s: empty batch" P.name who)
  | _ -> ());
  List.iter (check_origin t ~who) origins;
  if List.length (List.sort_uniq Int.compare origins) <> List.length origins
  then invalid_arg (Printf.sprintf "%s.%s: duplicate origins" P.name who);
  let base = t.seq in
  t.seq <- base + List.length origins;
  List.map
    (fun (op, value, at) -> (-op - base - 1, value, at))
    (traced t ~origin:(List.hd origins) (fun () ->
         List.iteri (fun i origin -> inject i (-(base + i + 1)) origin) origins))

let run_batch t ~origins =
  let origin = Array.of_list origins in
  List.map
    (fun (i, value, _) -> (origin.(i), value))
    (batch t ~who:"run_batch" ~origins (fun _ op origin ->
         start t ~op ~origin))

let run_batch_timed t ?(stagger = 0.) ~origins () =
  let origin = Array.of_list origins in
  let now = Sim.Network.now t.k.net in
  List.map
    (fun (i, value, completed_at) ->
      {
        History.origin = origin.(i);
        value;
        invoked_at = now +. (float_of_int i *. stagger);
        completed_at;
      })
    (batch t ~who:"run_batch_timed" ~origins (fun i op origin ->
         if Float.equal stagger 0. then start t ~op ~origin
         else
           Sim.Network.schedule_local t.k.net
             ~delay:(float_of_int i *. stagger)
             (fun () -> start t ~op ~origin)))

let launch_at (type p s) (t : (p, s) t) ~op ~origin ~at =
  let (module P) = t.proto in
  check_origin t ~who:"launch_at" origin;
  if op < 0 then
    invalid_arg (Printf.sprintf "%s.launch_at: op %d is negative" P.name op);
  let delay = at -. Sim.Network.now t.k.net in
  if delay < 0. then invalid_arg (P.name ^ ".launch_at: arrival in the past");
  Sim.Network.schedule_local t.k.net ~delay (fun () -> start t ~op ~origin)

let run_open t = drain t

let completions t = List.rev t.k.done_rev

let clone (type p s) (t : (p, s) t) =
  let (module P) = t.proto in
  let k = { t.k with net = Sim.Network.clone_quiescent t.k.net } in
  let st = P.copy k t.st in
  install t.proto k st;
  { t with k; st }

module Make (P : PROTOCOL) = struct
  type nonrec t = (P.payload, P.state) t

  let name = P.name
  let describe = P.describe
  let supported_n = P.supported_n

  let create_with ?seed ?delay ?faults ~n config =
    create_with (module P) ?seed ?delay ?faults ~n config

  let create ?seed ?delay ?faults ~n () =
    create_with ?seed ?delay ?faults ~n (P.default ~n)

  let state = state
  let n = n
  let value = value
  let metrics = metrics
  let traces = traces
  let observe = observe
  let crashed = crashed
  let inc = inc
  let inc_result = inc_result
  let run_batch = run_batch
  let run_batch_timed = run_batch_timed
  let launch_at = launch_at
  let run_open = run_open
  let completions = completions
  let clone = clone
end
