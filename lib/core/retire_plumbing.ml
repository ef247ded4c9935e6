(* Shared machinery of the retirement-tree counters: configuration, the
   message vocabulary, per-node state, the age/retire/handoff engine and
   the sequential-operation driver. Retire_counter is the paper's exact
   protocol over this state; Retire_ft layers the failure-aware client
   (timeout + audit + emergency retirement) on top of the same record.

   The failure-aware fields are inert whenever [failure_aware] is false:
   every branch that consults them is guarded, so a plumbing-backed
   counter under Fault.none makes exactly the sends — in exactly the
   order — it made before the refactor (the determinism goldens pin
   this). *)

type config = { arity : int; depth : int; retire_threshold : int }

let min_threshold arity = arity + 2

let paper_config ~k =
  if k < 1 then invalid_arg "Retire_counter.paper_config: k must be >= 1";
  { arity = k; depth = k; retire_threshold = max (2 * k) (min_threshold k) }

let config_n cfg = Params.pow cfg.arity (cfg.depth + 1)

let validate_config ~who cfg =
  if cfg.arity < 1 then invalid_arg (who ^ ": arity must be >= 1");
  if cfg.depth < 0 then invalid_arg (who ^ ": depth must be >= 0");
  if cfg.retire_threshold < min_threshold cfg.arity then
    invalid_arg
      (Printf.sprintf
         "%s: retire_threshold must be >= arity+2 = %d (or the retirement \
          cascade need not terminate)"
         who (min_threshold cfg.arity))

(* Protocol messages. Every message is addressed to a processor but tagged
   with the inner node (flat id) it concerns, because one processor can work
   for the root and for one other inner node at the same time. All payloads
   are O(log n) bits, as in the paper. *)
type dest = To_node of int | To_leaf of int

type payload =
  | Inc of { origin : int; node : int }
      (* an inc request travelling up; [node] is the intended handler *)
  | Value of { value : int }  (* the root's answer to the origin leaf *)
  | Handoff of { node : int; piece : piece }
      (* one unit-sized piece of a retiring worker's job description *)
  | New_worker of { about : int; worker : int; dest : dest }
      (* "node [about] is now served by processor [worker]" *)
  | Ping of { node : int; round : int }
      (* failure-aware audit probe: "are you still working for [node]?" *)
  | Pong of { node : int; round : int }
      (* audit reply, addressed straight back to the auditing origin *)

and piece =
  | Parent_id of int
  | Child_id of int * int  (* child slot, processor id *)
  | Counter_value of int  (* root handoff only *)

let label = function
  | Inc _ -> "inc"
  | Value _ -> "val"
  | Handoff _ -> "handoff"
  | New_worker _ -> "new-worker"
  | Ping _ -> "ping"
  | Pong _ -> "pong"

(* Message-length accounting, for the paper's "we are able to keep the
   length of messages as short as O(log n) bits" claim. Two tag bits plus
   the binary size of each field. *)
let bits_needed v =
  let v = max v 1 in
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let payload_bits = function
  | Inc { origin; node } -> 2 + bits_needed origin + bits_needed node
  | Value { value } -> 2 + bits_needed (value + 1)
  | Handoff { node; piece } -> (
      2 + bits_needed node
      +
      match piece with
      | Parent_id p -> bits_needed p
      | Child_id (slot, w) -> bits_needed (slot + 1) + bits_needed w
      | Counter_value v -> bits_needed (v + 1))
  | New_worker { about; worker; dest } -> (
      2 + bits_needed about + bits_needed worker
      + match dest with To_node n -> bits_needed n | To_leaf l -> bits_needed l)
  | Ping { node; round } | Pong { node; round } ->
      2 + bits_needed node + bits_needed round

type node_state = {
  flat : int;
  level : int;
  mutable worker : int;
  mutable age : int;
  mutable retirements : int;
  mutable believed_parent_worker : int;  (* 0 for the root *)
  believed_child_workers : int array;
      (* processor ids; for bottom-level nodes these are the (fixed) leaf
         ids themselves *)
  interval_hi : int;  (* last reserved processor id; root: max_int *)
}

type t = {
  cfg : config;
  tree : Tree.t;
  net : payload Sim.Network.t;
  nodes : node_state array;
  leaf_believed_parent : int array;  (* leaf-1 -> believed worker of parent *)
  failure_aware : bool;
      (* armed by Retire_ft when a fault plan is given; every field below
         the marker is dead state while this is false *)
  emergency_handoff : bool;
      (* false only in the deliberately-broken negative control: emergency
         retirement then reinstalls the role without the job description,
         losing the root's counter value *)
  overflow_pool : int;  (* emergency hire budget (overflow ids only) *)
  mutable value : int;
  mutable completed_rev : (int * int * float) list;
      (* (origin, value, completion time) for the current op/batch *)
  mutable overflow_next : int;  (* next virtual processor id to hire *)
  mutable total_retirements : int;
  mutable stale_forwards : int;
  mutable open_completed_rev : (int * int * float) list;
      (* (op, value, completion time) of open-loop operations served by
         the serialising client in Retire_counter.launch_at *)
  (* --- failure-aware operation state (Retire_ft) --- *)
  mutable round : int;  (* monotone stamp guarding every armed timer *)
  mutable attempts : int;
  mutable cur_timeout : float;
  mutable cur_origin : int;
  mutable op_served : bool;
      (* the root already answered the operation in flight: retried [Inc]s
         that race the original are ignored, keeping values gap-free *)
  mutable stall_reason : string option;
  mutable audit_pending : (int * int) list;
      (* (node, worker) pairs still owing a Pong for the current audit *)
  mutable emergency_hires : int;
  mutable emergency_nodes_rev : int list;  (* emergency-retired this op *)
  mutable rejoin_pool : int list;  (* recovered processors awaiting rehire *)
  mutable rejoin_seen : int list;
  mutable fresh_hires : int list;
      (* recovered processors re-hired since their crash: their state is
         current again, so audits stop deposing them *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_nodes tree =
  let inner = Tree.inner_count tree in
  Array.init inner (fun flat ->
      let level = Tree.level_of tree flat in
      let worker, interval_hi =
        if flat = Tree.root then (Ids.root_initial_worker, max_int)
        else
          let lo, hi =
            Ids.interval tree ~level ~index:(Tree.index_of tree flat)
          in
          (lo, hi)
      in
      let believed_parent_worker =
        match Tree.parent tree flat with
        | None -> 0
        | Some p ->
            if p = Tree.root then Ids.root_initial_worker
            else fst (Ids.interval_of_flat tree p)
      in
      let believed_child_workers =
        if level = Tree.depth tree then
          Array.of_list (Tree.leaf_children tree flat)
        else
          Array.of_list
            (List.map
               (fun c -> fst (Ids.interval_of_flat tree c))
               (Tree.children tree flat))
      in
      {
        flat;
        level;
        worker;
        age = 0;
        retirements = 0;
        believed_parent_worker;
        believed_child_workers;
        interval_hi;
      })

let create_state ?(seed = 42) ?delay ?faults ?(failure_aware = false)
    ?(emergency_handoff = true) ?overflow_pool ~who cfg =
  validate_config ~who cfg;
  let tree = Tree.create ~arity:cfg.arity ~depth:cfg.depth in
  let n = Tree.n tree in
  let net =
    Sim.Network.create ~seed ?delay ?faults ~label ~bits:payload_bits ~n ()
  in
  let nodes = make_nodes tree in
  let leaf_believed_parent =
    Array.init n (fun i ->
        let p = Tree.leaf_parent tree ~leaf:(i + 1) in
        nodes.(p).worker)
  in
  {
    cfg;
    tree;
    net;
    nodes;
    leaf_believed_parent;
    failure_aware;
    emergency_handoff;
    overflow_pool = (match overflow_pool with Some p -> p | None -> 2 * n);
    value = 0;
    completed_rev = [];
    overflow_next = n + 1;
    total_retirements = 0;
    stale_forwards = 0;
    open_completed_rev = [];
    round = 0;
    attempts = 0;
    cur_timeout = 0.;
    cur_origin = 0;
    op_served = false;
    stall_reason = None;
    audit_pending = [];
    emergency_hires = 0;
    emergency_nodes_rev = [];
    rejoin_pool = [];
    rejoin_seen = [];
    fresh_hires = [];
  }

(* ------------------------------------------------------------------ *)
(* Handoff and announcements, shared by age-triggered retirement (sent
   by the retiring worker) and emergency retirement (sent by the origin
   that detected the crash, reconstructing the description from the
   surviving parent/children state). *)

let send_job_description st nd ~src ~successor =
  (* Arity+1 unit messages: the children ids, plus the parent id
     (non-root) or the counter value (root, which "saves the message
     that would inform the parent"). *)
  Array.iteri
    (fun slot child_worker ->
      Sim.Network.send st.net ~src ~dst:successor
        (Handoff { node = nd.flat; piece = Child_id (slot, child_worker) }))
    nd.believed_child_workers;
  if nd.flat = Tree.root then
    Sim.Network.send st.net ~src ~dst:successor
      (Handoff { node = nd.flat; piece = Counter_value st.value })
  else
    Sim.Network.send st.net ~src ~dst:successor
      (Handoff { node = nd.flat; piece = Parent_id nd.believed_parent_worker })

let send_announcements st nd ~src ~successor =
  (* The parent (non-root) and every child learn the new worker id.
     Bottom-level nodes announce to their leaf children. *)
  (if nd.flat <> Tree.root then
     match Tree.parent st.tree nd.flat with
     | Some p ->
         Sim.Network.send st.net ~src ~dst:nd.believed_parent_worker
           (New_worker { about = nd.flat; worker = successor; dest = To_node p })
     | None -> assert false);
  if nd.level = Tree.depth st.tree then
    List.iter
      (fun leaf ->
        Sim.Network.send st.net ~src ~dst:leaf
          (New_worker { about = nd.flat; worker = successor; dest = To_leaf leaf }))
      (Tree.leaf_children st.tree nd.flat)
  else
    List.iteri
      (fun slot c ->
        Sim.Network.send st.net ~src ~dst:nd.believed_child_workers.(slot)
          (New_worker { about = nd.flat; worker = successor; dest = To_node c }))
      (Tree.children st.tree nd.flat)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let rec handle st ~self ~src payload =
  match payload with
  | Value { value } ->
      st.completed_rev <-
        (self, value, Sim.Network.now st.net) :: st.completed_rev
  | Handoff _ ->
      (* The job description for a fresh worker. State is already current
         (the node record was updated when the retirement was issued); the
         message exists so its cost is charged faithfully. Handoff pieces
         do not age the fresh worker. *)
      ()
  | Ping { node; round } ->
      (* Audit handshake: a live recipient answers immediately. Pings and
         pongs do not age workers — they are the failure detector's
         bookkeeping, not counter traffic (the grow-old bound stays
         about protocol messages). *)
      Sim.Network.send st.net ~src:self ~dst:src (Pong { node; round })
  | Pong _ ->
      (* Only the failure-aware layer sends pings; its handler intercepts
         the pongs before delegating here. *)
      ()
  | Inc { origin; node } ->
      let nd = st.nodes.(node) in
      if nd.worker <> self then begin
        (* We retired while this message was in flight: forward it to the
           current worker (the paper's constant-cost handshake). *)
        st.stale_forwards <- st.stale_forwards + 1;
        Sim.Network.send st.net ~src:self ~dst:nd.worker payload
      end
      else if nd.level = 0 then begin
        (if st.failure_aware && st.op_served then
           (* A retried copy of the operation the root already answered
              (the original was merely slow, not lost): ignore it, so the
              counter hands out each value exactly once. *)
           ()
         else begin
           if st.failure_aware then st.op_served <- true;
           Sim.Network.send st.net ~src:self ~dst:origin
             (Value { value = st.value });
           st.value <- st.value + 1
         end);
        nd.age <- nd.age + 2;
        maybe_retire st nd
      end
      else begin
        let parent =
          match Tree.parent st.tree node with
          | Some p -> p
          | None -> assert false
        in
        Sim.Network.send st.net ~src:self ~dst:nd.believed_parent_worker
          (Inc { origin; node = parent });
        nd.age <- nd.age + 2;
        maybe_retire st nd
      end
  | New_worker { about; worker; dest } -> (
      match dest with
      | To_leaf leaf -> st.leaf_believed_parent.(leaf - 1) <- worker
      | To_node node ->
          let nd = st.nodes.(node) in
          if nd.worker <> self then begin
            st.stale_forwards <- st.stale_forwards + 1;
            Sim.Network.send st.net ~src:self ~dst:nd.worker payload
          end
          else begin
            (if nd.believed_parent_worker <> 0 then
               match Tree.parent st.tree node with
               | Some p when p = about -> nd.believed_parent_worker <- worker
               | _ -> ());
            (if nd.level < Tree.depth st.tree then
               let children = Tree.children st.tree node in
               List.iteri
                 (fun slot c ->
                   if c = about then nd.believed_child_workers.(slot) <- worker)
                 children);
            nd.age <- nd.age + 1;
            maybe_retire st nd
          end)

and maybe_retire st nd =
  if nd.age >= st.cfg.retire_threshold then retire st nd

and retire st nd =
  let old_worker = nd.worker in
  let successor =
    if not st.failure_aware then
      if nd.flat = Tree.root then
        (* The root walks 1, 2, 3, ...; beyond the processor universe it
           hires overflow workers like everyone else. *)
        if old_worker + 1 <= Tree.n st.tree then old_worker + 1
        else begin
          let v = st.overflow_next in
          st.overflow_next <- v + 1;
          v
        end
      else if old_worker + 1 <= nd.interval_hi then old_worker + 1
      else begin
        let v = st.overflow_next in
        st.overflow_next <- v + 1;
        v
      end
    else begin
      (* Failure-aware: the same walk, skipping corpses so a normal
         retirement never installs a dead worker. *)
      let hi = if nd.flat = Tree.root then Tree.n st.tree else nd.interval_hi in
      let rec walk v =
        if v > hi then overflow ()
        else if Sim.Network.crashed st.net v then walk (v + 1)
        else v
      and overflow () =
        let rec first_alive v =
          if Sim.Network.crashed st.net v then first_alive (v + 1) else v
        in
        let v = first_alive st.overflow_next in
        st.overflow_next <- v + 1;
        v
      in
      let s = walk (old_worker + 1) in
      if Sim.Network.recovered st.net s && not (List.mem s st.fresh_hires)
      then st.fresh_hires <- s :: st.fresh_hires;
      s
    end
  in
  nd.worker <- successor;
  nd.age <- 0;
  nd.retirements <- nd.retirements + 1;
  st.total_retirements <- st.total_retirements + 1;
  send_job_description st nd ~src:old_worker ~successor;
  send_announcements st nd ~src:old_worker ~successor

(* ------------------------------------------------------------------ *)
(* Sequential-operation driver                                         *)

let n t = Tree.n t.tree

let check_origin ~who t origin =
  if origin < 1 || origin > n t then
    invalid_arg (who ^ ": origin out of range")

let launch t ~origin =
  let parent = Tree.leaf_parent t.tree ~leaf:origin in
  Sim.Network.send t.net ~src:origin
    ~dst:t.leaf_believed_parent.(origin - 1)
    (Inc { origin; node = parent })

let believed_consistent t =
  let ok = ref true in
  Array.iter
    (fun nd ->
      (match Tree.parent t.tree nd.flat with
      | None -> ()
      | Some p ->
          if nd.believed_parent_worker <> t.nodes.(p).worker then ok := false);
      if nd.level < Tree.depth t.tree then
        List.iteri
          (fun slot c ->
            if nd.believed_child_workers.(slot) <> t.nodes.(c).worker then
              ok := false)
          (Tree.children t.tree nd.flat))
    t.nodes;
  Array.iteri
    (fun i believed ->
      let p = Tree.leaf_parent t.tree ~leaf:(i + 1) in
      if believed <> t.nodes.(p).worker then ok := false)
    t.leaf_believed_parent;
  !ok

let retirements_by_level t =
  let acc = Array.make (Tree.depth t.tree + 1) 0 in
  Array.iter (fun nd -> acc.(nd.level) <- acc.(nd.level) + nd.retirements) t.nodes;
  acc

let max_retirements_at_level t level =
  Array.fold_left
    (fun best nd -> if nd.level = level then max best nd.retirements else best)
    0 t.nodes

(* Accessors shared verbatim by both counters. *)
let config t = t.cfg
let tree t = t.tree
let value t = t.value
let metrics t = Sim.Network.metrics t.net
let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f
let node_worker t flat = t.nodes.(flat).worker
let node_age t flat = t.nodes.(flat).age
let retirements_of_node t flat = t.nodes.(flat).retirements
let total_retirements t = t.total_retirements
let stale_forwards t = t.stale_forwards
let max_message_bits t = Sim.Network.max_message_bits t.net
let total_bits t = Sim.Network.total_bits t.net
let crashed t p = Sim.Network.crashed t.net p
let emergency_nodes t = List.rev t.emergency_nodes_rev

let inc ~who t ~origin =
  check_origin ~who t origin;
  Sim.Network.begin_op t.net ~origin;
  t.completed_rev <- [];
  launch t ~origin;
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net);
  (* First completion for this origin: under duplication faults the value
     can arrive twice; without faults there is exactly one. *)
  match
    List.find_opt (fun (o, _, _) -> o = origin) (List.rev t.completed_rev)
  with
  | Some (_, value, _) -> value
  | None ->
      raise
        (Counter.Counter_intf.Stall
           (who
          ^ ".inc: no value returned (a worker on the path crashed or a \
             message was lost)"))

let run_batch ~who t ~origins =
  List.iter (check_origin ~who t) origins;
  (match origins with
  | [] -> invalid_arg (who ^ ".run_batch: empty batch")
  | o :: _ -> Sim.Network.begin_op t.net ~origin:o);
  t.completed_rev <- [];
  List.iter (fun origin -> launch t ~origin) origins;
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net);
  List.rev_map (fun (o, v, _) -> (o, v)) t.completed_rev

let run_batch_timed ~who t ?(stagger = 0.) ~origins () =
  List.iter (check_origin ~who t) origins;
  (match origins with
  | [] -> invalid_arg (who ^ ".run_batch_timed: empty batch")
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
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net);
  List.rev_map
    (fun (origin, value, completed_at) ->
      {
        Counter.History.origin;
        value;
        invoked_at = Hashtbl.find invoked origin;
        completed_at;
      })
    t.completed_rev

(* Copy of the quiescent state, without a handler: each counter re-installs
   its own over the fresh record. *)
let clone_state t =
  let net = Sim.Network.clone_quiescent t.net in
  {
    t with
    net;
    nodes =
      Array.map
        (fun nd ->
          {
            nd with
            believed_child_workers = Array.copy nd.believed_child_workers;
          })
        t.nodes;
    leaf_believed_parent = Array.copy t.leaf_believed_parent;
  }
