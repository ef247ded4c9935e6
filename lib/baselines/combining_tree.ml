(* [op] is the open-loop operation id of a leaf-originated singleton
   request (-1 on the sequential path and on inner-node aggregates,
   whose grants descend by batch, not by op). It rides along so the
   final [Down] can be matched to the operation when an origin has
   several requests in flight. [batch] is the sender's outstanding-batch
   id (-1 on leaf requests): grants echo it back, so a node with several
   batches in flight matches each grant to the right batch even when
   messages overtake each other (delivery is not FIFO under variable
   delays). *)
type pending = { side : int; count : int; op : int; batch : int }

type payload =
  | Up of { node : int; side : int; count : int; op : int; batch : int }
      (* request arriving at inner node [node] from its child on [side] *)
  | Grant of { node : int; base : int; batch : int }
      (* a block [base, base+count) granted to inner node [node]'s batch *)
  | Down of { origin : int; op : int; value : int }
      (* final value for a leaf *)

let label = function Up _ -> "up" | Grant _ -> "grant" | Down _ -> "down"

type node_state = {
  mutable collecting : pending option;
  mutable generation : int;  (* invalidates stale window timers *)
  mutable next_batch : int;  (* fresh batch ids, per node *)
  batches : (int, pending list) Hashtbl.t;  (* one entry per Up sent above *)
}

type t = {
  net : payload Sim.Network.t;
  n : int;
  window : float;
  nodes : node_state array;  (* heap-indexed 1 .. n-1; slot 0 unused *)
  mutable value : int;
  mutable completed_rev : (int * int * int * float) list;
      (* origin, op, value, time *)
  mutable combined : int;
  mutable uncombined : int;
}

let name = "combining"

let describe =
  "binary combining tree (YTL/GVW): requests merge under concurrency; \
   Theta(n) root load when sequential"

let is_power_of_two w = w >= 1 && w land (w - 1) = 0

let supported_n n =
  let n = max 1 n in
  let rec grow w = if w >= n then w else grow (2 * w) in
  grow 1

(* Heap layout: inner nodes 1 .. n-1; leaf of processor p is n + p - 1. *)
let node_host t i = ((i - 1) mod t.n) + 1

let parent_of i = (i / 2, i mod 2)

let is_leaf t i = i >= t.n

let leaf_origin t i = i - t.n + 1

(* Send a combined (or lone) request upward from node [i], or allocate at
   the root. *)
let rec ascend t ~self ~node ~batch ~count =
  if node = 1 then begin
    (* The root allocates the block locally and the grant descends. *)
    let base = t.value in
    t.value <- t.value + count;
    descend t ~self ~node ~batch ~base
  end
  else begin
    let parent, side = parent_of node in
    let nd = t.nodes.(node) in
    nd.generation <- nd.generation + 1;
    let id = nd.next_batch in
    nd.next_batch <- id + 1;
    Hashtbl.replace nd.batches id batch;
    Sim.Network.send t.net ~src:self ~dst:(node_host t parent)
      (Up { node = parent; side; count; op = -1; batch = id })
  end

and descend t ~self ~node ~batch ~base =
  let offset = ref base in
  List.iter
    (fun p ->
      let child = (2 * node) + p.side in
      if is_leaf t child then begin
        let origin = leaf_origin t child in
        Sim.Network.send t.net ~src:self ~dst:origin
          (Down { origin; op = p.op; value = !offset })
      end
      else
        Sim.Network.send t.net ~src:self ~dst:(node_host t child)
          (Grant { node = child; base = !offset; batch = p.batch });
      offset := !offset + p.count)
    batch

let rec handle t ~self ~src:_ = function
  | Down { origin; op; value } ->
      t.completed_rev <-
        (origin, op, value, Sim.Network.now t.net) :: t.completed_rev
  | Grant { node; base; batch } ->
      let nd = t.nodes.(node) in
      let entries =
        match Hashtbl.find_opt nd.batches batch with
        | Some b -> b
        | None -> failwith "Combining_tree: grant without pending batch"
      in
      Hashtbl.remove nd.batches batch;
      descend t ~self ~node ~batch:entries ~base
  | Up { node; side; count; op; batch } -> (
      let nd = t.nodes.(node) in
      match nd.collecting with
      | Some first when first.side <> side ->
          (* Combine with the parked sibling request. *)
          nd.collecting <- None;
          nd.generation <- nd.generation + 1;
          t.combined <- t.combined + 1;
          ascend t ~self ~node
            ~batch:[ first; { side; count; op; batch } ]
            ~count:(first.count + count)
      | Some first ->
          (* Same side twice (the sibling's window already expired below):
             flush the parked request alone, then park the new one. *)
          nd.collecting <- None;
          t.uncombined <- t.uncombined + 1;
          ascend t ~self ~node ~batch:[ first ] ~count:first.count;
          park t ~self ~node ~side ~count ~op ~batch
      | None -> park t ~self ~node ~side ~count ~op ~batch)

and park t ~self ~node ~side ~count ~op ~batch =
  let nd = t.nodes.(node) in
  nd.collecting <- Some { side; count; op; batch };
  nd.generation <- nd.generation + 1;
  let gen = nd.generation in
  Sim.Network.schedule_local t.net ~delay:t.window (fun () ->
      if nd.generation = gen then
        match nd.collecting with
        | Some first ->
            nd.collecting <- None;
            nd.generation <- nd.generation + 1;
            t.uncombined <- t.uncombined + 1;
            ascend t ~self ~node ~batch:[ first ] ~count:first.count
        | None -> ())

let create_binary ?(seed = 42) ?delay ?faults ?(window = 1.5) ~n () =
  if not (is_power_of_two n) then
    invalid_arg "Combining_tree: n must be a power of two (use supported_n)";
  let net = Sim.Network.create ~seed ?delay ?faults ~label ~n () in
  let t =
    {
      net;
      n;
      window;
      nodes =
        Array.init (max 1 n) (fun _ ->
            {
              collecting = None;
              generation = 0;
              next_batch = 0;
              batches = Hashtbl.create 8;
            });
      value = 0;
      completed_rev = [];
      combined = 0;
      uncombined = 0;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle t ~self ~src payload);
  t

let create ?seed ?delay ?faults ~n () = create_binary ?seed ?delay ?faults ~n ()

let n t = t.n

let value t = t.value

let metrics t = Sim.Network.metrics t.net

let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f

let combined_requests t = t.combined

let uncombined_requests t = t.uncombined

let combining_rate t =
  let total = t.combined + t.uncombined in
  if total = 0 then 0. else float_of_int t.combined /. float_of_int total

let launch_op t ~op ~origin =
  if t.n = 1 then begin
    (* Singleton tree: the lone processor is the root; local increment. *)
    let v = t.value in
    t.value <- v + 1;
    t.completed_rev <-
      (origin, op, v, Sim.Network.now t.net) :: t.completed_rev
  end
  else begin
    let leaf = t.n + origin - 1 in
    let parent, side = parent_of leaf in
    Sim.Network.send t.net ~src:origin ~dst:(node_host t parent)
      (Up { node = parent; side; count = 1; op; batch = -1 })
  end

let launch t ~origin = launch_op t ~op:(-1) ~origin

let finish_op t =
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net)

let inc t ~origin =
  if origin < 1 || origin > t.n then
    invalid_arg "Combining_tree.inc: origin out of range";
  Sim.Network.begin_op t.net ~origin;
  t.completed_rev <- [];
  launch t ~origin;
  finish_op t;
  (* Chronologically first completion: under duplication faults a value
     can arrive twice; without faults there is exactly one. *)
  match List.rev t.completed_rev with
  | (_, _, value, _) :: _ -> value
  | [] ->
      raise
        (Counter.Counter_intf.Stall
           "Combining_tree.inc: no value returned (node host crashed or \
            message lost)")

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let run_batch t ~origins =
  (match origins with
  | [] -> invalid_arg "Combining_tree.run_batch: empty batch"
  | o :: _ -> Sim.Network.begin_op t.net ~origin:o);
  let sorted = List.sort_uniq Int.compare origins in
  if List.length sorted <> List.length origins then
    invalid_arg "Combining_tree.run_batch: duplicate origins in a batch";
  t.completed_rev <- [];
  List.iter (fun origin -> launch t ~origin) origins;
  finish_op t;
  List.rev_map (fun (o, _, v, _) -> (o, v)) (List.rev t.completed_rev)

let launch_at t ~op ~origin ~at =
  if origin < 1 || origin > t.n then
    invalid_arg "Combining_tree.launch_at: origin out of range";
  let delay = at -. Sim.Network.now t.net in
  if delay < 0. then invalid_arg "Combining_tree.launch_at: arrival in the past";
  Sim.Network.schedule_local t.net ~delay (fun () -> launch_op t ~op ~origin)

let run_open t = ignore (Sim.Network.run_to_quiescence t.net)

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
      window = t.window;
      nodes =
        Array.map
          (fun nd ->
            {
              collecting = nd.collecting;
              generation = nd.generation;
              next_batch = nd.next_batch;
              batches = Hashtbl.copy nd.batches;
            })
          t.nodes;
      value = t.value;
      completed_rev = t.completed_rev;
      combined = t.combined;
      uncombined = t.uncombined;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st
