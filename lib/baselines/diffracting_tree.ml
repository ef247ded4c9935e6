(* [op] threads an operation id through a token's walk so the open-loop
   path can match completions when an origin has several tokens in
   flight; the sequential path uses op = -1 and is unchanged message for
   message. *)
type payload =
  | Token of { origin : int; op : int; node : int }
      (* walking the tree; [node] is a heap index, 1 = root *)
  | Exit of { origin : int; op : int; wire : int }
      (* token reached a leaf counter *)
  | Value of { origin : int; op : int; value : int }

let label = function
  | Token _ -> "token"
  | Exit _ -> "exit"
  | Value _ -> "val"

type node_state = {
  mutable toggle : bool;  (* true = next lone token goes left *)
  mutable waiting : (int * int) option;  (* (origin, op) of a parked token *)
  mutable generation : int;  (* invalidates stale prism timers *)
}

type t = {
  net : payload Sim.Network.t;
  n : int;
  width : int;
  prism_window : float;
  nodes : node_state array;  (* heap-indexed, slot 0 unused *)
  counts : int array;  (* per leaf wire *)
  mutable completed_rev : (int * int * int * float) list;
      (* origin, op, value, time *)
  mutable ops : int;
  mutable toggle_hits : int;
  mutable diffractions : int;
  mutable step_ok : bool;
}

let name = "diffracting"

let describe =
  "Shavit-Zemach diffracting tree: prism pairing under concurrency, \
   Theta(n) root load when sequential"

let supported_n n = max 1 n

let is_power_of_two w = w >= 1 && w land (w - 1) = 0

let log2 w =
  let rec go acc w = if w <= 1 then acc else go (acc + 1) (w / 2) in
  go 0 w

let bit_reverse ~bits x =
  let r = ref 0 in
  for i = 0 to bits - 1 do
    if x land (1 lsl i) <> 0 then r := !r lor (1 lsl (bits - 1 - i))
  done;
  !r

let node_host t node = ((node - 1) mod t.n) + 1

let leaf_host t wire = ((t.width - 1 + wire) mod t.n) + 1

(* Child of heap node [i] in direction [dir] (0 = left): either another
   inner node or a leaf wire. *)
let forward t ~src ~origin ~op ~node ~dir =
  let child = (2 * node) + dir in
  if child >= t.width then
    let wire = child - t.width in
    Sim.Network.send t.net ~src ~dst:(leaf_host t wire)
      (Exit { origin; op; wire })
  else
    Sim.Network.send t.net ~src ~dst:(node_host t child)
      (Token { origin; op; node = child })

let handle st ~self ~src:_ = function
  | Value { origin; op; value } ->
      st.completed_rev <-
        (origin, op, value, Sim.Network.now st.net) :: st.completed_rev
  | Exit { origin; op; wire } ->
      (* A toggle tree routes the m-th token to the leaf whose index is
         the bit-reversal of m mod width, so leaf [wire] hands out the
         value sequence seeded at bitrev(wire). *)
      let seed = bit_reverse ~bits:(log2 st.width) wire in
      let value = seed + (st.width * st.counts.(seed)) in
      st.counts.(seed) <- st.counts.(seed) + 1;
      Sim.Network.send st.net ~src:self ~dst:origin (Value { origin; op; value })
  | Token { origin; op; node } -> (
      let nd = st.nodes.(node) in
      match nd.waiting with
      | Some (partner, partner_op) ->
          (* Diffraction: the pair splits left/right without touching the
             toggle. *)
          nd.waiting <- None;
          nd.generation <- nd.generation + 1;
          st.diffractions <- st.diffractions + 1;
          forward st ~src:self ~origin:partner ~op:partner_op ~node ~dir:0;
          forward st ~src:self ~origin ~op ~node ~dir:1
      | None ->
          nd.waiting <- Some (origin, op);
          nd.generation <- nd.generation + 1;
          let gen = nd.generation in
          Sim.Network.schedule_local st.net ~delay:st.prism_window (fun () ->
              let still_parked =
                nd.generation = gen
                &&
                match nd.waiting with
                | Some (o, p) -> o = origin && p = op
                | None -> false
              in
              if still_parked then begin
                (* Prism window expired with no partner: use the toggle. *)
                nd.waiting <- None;
                nd.generation <- nd.generation + 1;
                st.toggle_hits <- st.toggle_hits + 1;
                let dir = if nd.toggle then 0 else 1 in
                nd.toggle <- not nd.toggle;
                forward st ~src:self ~origin ~op ~node ~dir
              end))

let create_width ?(seed = 42) ?delay ?faults ?(prism_window = 1.5) ~n ~width () =
  if n < 1 then invalid_arg "Diffracting_tree: n must be >= 1";
  if not (is_power_of_two width) then
    invalid_arg "Diffracting_tree: width must be a power of two";
  let net = Sim.Network.create ~seed ?delay ?faults ~label ~n () in
  let nodes =
    Array.init (max 1 width) (fun _ ->
        { toggle = true; waiting = None; generation = 0 })
  in
  let st =
    {
      net;
      n;
      width;
      prism_window;
      nodes;
      counts = Array.make width 0;
      completed_rev = [];
      ops = 0;
      toggle_hits = 0;
      diffractions = 0;
      step_ok = true;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st

let default_width n =
  if n <= 1 then 1
  else begin
    let target = int_of_float (sqrt (float_of_int n)) in
    let rec grow w = if 2 * w <= target then grow (2 * w) else w in
    max 2 (grow 1)
  end

let create ?seed ?delay ?faults ~n () =
  create_width ?seed ?delay ?faults ~n ~width:(default_width n) ()

let n t = t.n

let width t = t.width

let value t = t.ops

let toggle_hits t = t.toggle_hits

let diffractions t = t.diffractions

let output_counts t = Array.copy t.counts

let step_property_held t = t.step_ok

let metrics t = Sim.Network.metrics t.net

let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f

let launch_op t ~op ~origin =
  if t.width = 1 then
    (* Degenerate tree: straight to the single leaf counter. *)
    Sim.Network.send t.net ~src:origin ~dst:(leaf_host t 0)
      (Exit { origin; op; wire = 0 })
  else
    Sim.Network.send t.net ~src:origin ~dst:(node_host t 1)
      (Token { origin; op; node = 1 })

let launch t ~origin = launch_op t ~op:(-1) ~origin

let finish_op t =
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net);
  if not (Bitonic.step_property t.counts) then t.step_ok <- false

let inc t ~origin =
  if origin < 1 || origin > t.n then
    invalid_arg "Diffracting_tree.inc: origin out of range";
  Sim.Network.begin_op t.net ~origin;
  t.completed_rev <- [];
  launch t ~origin;
  finish_op t;
  t.ops <- t.ops + 1;
  (* Chronologically first completion (duplication faults can deliver the
     value twice; without faults there is exactly one). *)
  match List.rev t.completed_rev with
  | (_, _, value, _) :: _ -> value
  | [] ->
      raise
        (Counter.Counter_intf.Stall
           "Diffracting_tree.inc: no value returned (node host crashed or \
            token lost)")

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let run_batch t ~origins =
  (match origins with
  | [] -> invalid_arg "Diffracting_tree.run_batch: empty batch"
  | o :: _ -> Sim.Network.begin_op t.net ~origin:o);
  t.completed_rev <- [];
  List.iter (fun origin -> launch t ~origin) origins;
  finish_op t;
  t.ops <- t.ops + List.length origins;
  List.rev_map (fun (o, _, v, _) -> (o, v)) t.completed_rev

let run_batch_timed t ?(stagger = 0.) ~origins () =
  (match origins with
  | [] -> invalid_arg "Diffracting_tree.run_batch_timed: empty batch"
  | o :: _ -> Sim.Network.begin_op t.net ~origin:o);
  t.completed_rev <- [];
  let start = Sim.Network.now t.net in
  let invoked = Hashtbl.create (List.length origins) in
  List.iteri
    (fun i origin ->
      let at = start +. (float_of_int i *. stagger) in
      Hashtbl.replace invoked origin at;
      if Float.equal stagger 0. then launch t ~origin
      else
        Sim.Network.schedule_local t.net
          ~delay:(float_of_int i *. stagger)
          (fun () -> launch t ~origin))
    origins;
  finish_op t;
  t.ops <- t.ops + List.length origins;
  List.rev_map
    (fun (origin, _, value, completed_at) ->
      {
        Counter.History.origin;
        value;
        invoked_at = Hashtbl.find invoked origin;
        completed_at;
      })
    t.completed_rev

let launch_at t ~op ~origin ~at =
  if origin < 1 || origin > t.n then
    invalid_arg "Diffracting_tree.launch_at: origin out of range";
  let delay = at -. Sim.Network.now t.net in
  if delay < 0. then invalid_arg "Diffracting_tree.launch_at: arrival in the past";
  Sim.Network.schedule_local t.net ~delay (fun () -> launch_op t ~op ~origin)

let run_open t =
  ignore (Sim.Network.run_to_quiescence t.net);
  let done_ops =
    List.fold_left
      (fun acc (_, op, _, _) -> if op >= 0 then acc + 1 else acc)
      0 t.completed_rev
  in
  t.ops <- t.ops + done_ops;
  if not (Bitonic.step_property t.counts) then t.step_ok <- false

let completions t =
  List.filter_map
    (fun (_, op, value, at) -> if op >= 0 then Some (op, value, at) else None)
    (List.rev t.completed_rev)

let clone t =
  let net = Sim.Network.clone_quiescent t.net in
  let st =
    {
      net;
      n = t.n;
      width = t.width;
      prism_window = t.prism_window;
      nodes =
        Array.map
          (fun nd ->
            {
              toggle = nd.toggle;
              waiting = nd.waiting;
              generation = nd.generation;
            })
          t.nodes;
      counts = Array.copy t.counts;
      completed_rev = t.completed_rev;
      ops = t.ops;
      toggle_hits = t.toggle_hits;
      diffractions = t.diffractions;
      step_ok = t.step_ok;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st
