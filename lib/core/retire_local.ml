type dest = To_node of int | To_leaf of int

type payload =
  | Inc of { origin : int; node : int }
  | Value of { value : int }
  | Handoff of { node : int; piece : piece }
  | New_worker of { about : int; worker : int; dest : dest }

and piece =
  | Parent_id of int
  | Child_id of int * int  (* slot, worker *)
  | Counter_value of int

let label = function
  | Inc _ -> "inc"
  | Value _ -> "val"
  | Handoff _ -> "handoff"
  | New_worker _ -> "new-worker"

(* A processor's knowledge about one node it currently works for. *)
type role = {
  node : int;
  level : int;
  mutable age : int;
  mutable believed_parent : int;  (* worker id; 0 at the root *)
  believed_children : int array;
  mutable counter_value : int;  (* meaningful at the root only *)
}

(* A role being assembled from the predecessor's handoff pieces. *)
type pending = {
  p_node : int;
  pieces_needed : int;
  mutable pieces_received : int;
  mutable p_parent : int;
  p_children : int array;
  mutable p_value : int;
  mutable buffered_rev : payload list;
}

(* Everything processor [pid] knows. The handler may touch no other
   processor's record. *)
type proc = {
  pid : int;
  mutable roles : role list;
  mutable pending : pending list;
  mutable handed_over : (int * int) list;  (* node -> my successor *)
  mutable leaf_parent_worker : int;  (* 0 for non-leaf (overflow) procs *)
}

type t = {
  cfg : Retire_counter.config;
  tree : Tree.t;
  net : payload Sim.Network.t;
  procs : (int, proc) Hashtbl.t;
  mutable completed_rev : (int * int) list;
  mutable overflow_next : int;
      (* the one non-local helper: allocates replacement ids beyond a
         node's reserved interval (a deployment would pre-partition a
         spare pool) *)
  (* Observer-only tallies (never read by the protocol): *)
  retire_tally : (int, int) Hashtbl.t;
  mutable total_retirements : int;
  mutable stale_forwards : int;
  mutable buffered_messages : int;
  mutable value_issued : int;  (* observer: ops completed, for [value] *)
}

let name = "retire-tree-local"

let describe =
  "Section 4 with strictly processor-local state: roles assembled from \
   handoff pieces, handshake buffering, hop-by-hop stale forwarding"

let supported_n n = Params.round_up_n (max 1 n)

(* ------------------------------------------------------------------ *)
(* Initial local knowledge ("all the processors can compute all initial
   identifiers locally"). *)

let initial_role tree flat =
  let level = Tree.level_of tree flat in
  let believed_parent =
    match Tree.parent tree flat with
    | None -> 0
    | Some p ->
        if p = Tree.root then Ids.root_initial_worker
        else fst (Ids.interval_of_flat tree p)
  in
  let believed_children =
    if level = Tree.depth tree then Array.of_list (Tree.leaf_children tree flat)
    else
      Array.of_list
        (List.map
           (fun c -> fst (Ids.interval_of_flat tree c))
           (Tree.children tree flat))
  in
  { node = flat; level; age = 0; believed_parent; believed_children; counter_value = 0 }

let proc_of t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None ->
      (* An overflow hire: starts knowing nothing; it learns its job from
         handoff pieces. *)
      let p =
        { pid; roles = []; pending = []; handed_over = []; leaf_parent_worker = 0 }
      in
      Hashtbl.replace t.procs pid p;
      p

(* ------------------------------------------------------------------ *)
(* Protocol *)

let interval_hi t flat =
  if flat = Tree.root then Tree.n t.tree else snd (Ids.interval_of_flat t.tree flat)

let pieces_needed t = t.cfg.Retire_counter.arity + 1

let rec handle t ~self ~src:_ payload = process t (proc_of t self) payload

and process t proc payload =
  match payload with
  | Value { value } -> t.completed_rev <- (proc.pid, value) :: t.completed_rev
  | Inc { node; _ } -> route t proc ~node payload
  | New_worker { dest = To_leaf leaf; worker; _ } ->
      assert (leaf = proc.pid);
      proc.leaf_parent_worker <- worker
  | New_worker { dest = To_node node; _ } -> route t proc ~node payload
  | Handoff { node; piece } -> (
      let pending = get_pending t proc node in
      (match piece with
      | Parent_id p -> pending.p_parent <- p
      | Child_id (slot, w) -> pending.p_children.(slot) <- w
      | Counter_value v -> pending.p_value <- v);
      pending.pieces_received <- pending.pieces_received + 1;
      if pending.pieces_received = pending.pieces_needed then begin
        (* Role assembled: activate and replay anything that arrived
           early. *)
        proc.pending <- List.filter (fun p -> p.p_node <> node) proc.pending;
        let role =
          {
            node;
            level = Tree.level_of t.tree node;
            age = 0;
            believed_parent = pending.p_parent;
            believed_children = pending.p_children;
            counter_value = pending.p_value;
          }
        in
        proc.roles <- role :: proc.roles;
        List.iter (fun m -> process t proc m) (List.rev pending.buffered_rev)
      end)

(* Dispatch a node-addressed message according to what [proc] knows about
   [node]: act on it, forward to a successor, or buffer until the role is
   assembled. *)
and route t proc ~node payload =
  match List.find_opt (fun r -> r.node = node) proc.roles with
  | Some role -> act t proc role payload
  | None -> (
      match List.assoc_opt node proc.handed_over with
      | Some successor ->
          t.stale_forwards <- t.stale_forwards + 1;
          Sim.Network.send t.net ~src:proc.pid ~dst:successor payload
      | None ->
          (* The handoff pieces are still in flight: buffer. *)
          let pending = get_pending t proc node in
          pending.buffered_rev <- payload :: pending.buffered_rev;
          t.buffered_messages <- t.buffered_messages + 1)

and get_pending t proc node =
  match List.find_opt (fun p -> p.p_node = node) proc.pending with
  | Some p -> p
  | None ->
      let p =
        {
          p_node = node;
          pieces_needed = pieces_needed t;
          pieces_received = 0;
          p_parent = 0;
          p_children = Array.make t.cfg.Retire_counter.arity 0;
          p_value = 0;
          buffered_rev = [];
        }
      in
      proc.pending <- p :: proc.pending;
      p

and act t proc role payload =
  match payload with
  | Inc { origin; node } ->
      assert (node = role.node);
      if role.level = 0 then begin
        Sim.Network.send t.net ~src:proc.pid ~dst:origin
          (Value { value = role.counter_value });
        role.counter_value <- role.counter_value + 1;
        t.value_issued <- t.value_issued + 1;
        role.age <- role.age + 2;
        maybe_retire t proc role
      end
      else begin
        let parent =
          match Tree.parent t.tree node with
          | Some p -> p
          | None -> assert false
        in
        Sim.Network.send t.net ~src:proc.pid ~dst:role.believed_parent
          (Inc { origin; node = parent });
        role.age <- role.age + 2;
        maybe_retire t proc role
      end
  | New_worker { about; worker; dest = To_node node } ->
      assert (node = role.node);
      (if role.believed_parent <> 0 then
         match Tree.parent t.tree node with
         | Some p when p = about -> role.believed_parent <- worker
         | _ -> ());
      (if role.level < Tree.depth t.tree then
         List.iteri
           (fun slot c ->
             if c = about then role.believed_children.(slot) <- worker)
           (Tree.children t.tree node));
      role.age <- role.age + 1;
      maybe_retire t proc role
  | Value _ | Handoff _ | New_worker { dest = To_leaf _; _ } ->
      assert false

and maybe_retire t proc role =
  if role.age >= t.cfg.Retire_counter.retire_threshold then retire t proc role

and retire t proc role =
  let node = role.node in
  let successor =
    if proc.pid + 1 <= interval_hi t node && proc.pid <= Tree.n t.tree then
      proc.pid + 1
    else begin
      let v = t.overflow_next in
      t.overflow_next <- v + 1;
      v
    end
  in
  proc.roles <- List.filter (fun r -> r.node <> node) proc.roles;
  proc.handed_over <- (node, successor) :: proc.handed_over;
  t.total_retirements <- t.total_retirements + 1;
  Hashtbl.replace t.retire_tally node
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.retire_tally node));
  Array.iteri
    (fun slot child_worker ->
      Sim.Network.send t.net ~src:proc.pid ~dst:successor
        (Handoff { node; piece = Child_id (slot, child_worker) }))
    role.believed_children;
  if node = Tree.root then
    Sim.Network.send t.net ~src:proc.pid ~dst:successor
      (Handoff { node; piece = Counter_value role.counter_value })
  else
    Sim.Network.send t.net ~src:proc.pid ~dst:successor
      (Handoff { node; piece = Parent_id role.believed_parent });
  (if node <> Tree.root then
     match Tree.parent t.tree node with
     | Some p ->
         Sim.Network.send t.net ~src:proc.pid ~dst:role.believed_parent
           (New_worker { about = node; worker = successor; dest = To_node p })
     | None -> assert false);
  if role.level = Tree.depth t.tree then
    List.iter
      (fun leaf ->
        Sim.Network.send t.net ~src:proc.pid ~dst:leaf
          (New_worker { about = node; worker = successor; dest = To_leaf leaf }))
      (Tree.leaf_children t.tree node)
  else
    List.iteri
      (fun slot c ->
        Sim.Network.send t.net ~src:proc.pid
          ~dst:role.believed_children.(slot)
          (New_worker { about = node; worker = successor; dest = To_node c }))
      (Tree.children t.tree node)

(* ------------------------------------------------------------------ *)
(* Construction *)

let create_with ?(seed = 42) ?delay ?faults (cfg : Retire_counter.config) =
  let arity = cfg.Retire_counter.arity in
  if cfg.Retire_counter.retire_threshold < arity + 2 then
    invalid_arg "Retire_local: retire_threshold must be >= arity + 2";
  let tree = Tree.create ~arity ~depth:cfg.Retire_counter.depth in
  let n = Tree.n tree in
  let net = Sim.Network.create ~seed ?delay ?faults ~label ~n () in
  let procs = Hashtbl.create (n * 2) in
  let t =
    {
      cfg;
      tree;
      net;
      procs;
      completed_rev = [];
      overflow_next = n + 1;
      retire_tally = Hashtbl.create 64;
      total_retirements = 0;
      stale_forwards = 0;
      buffered_messages = 0;
      value_issued = 0;
    }
  in
  (* Seed initial local knowledge: leaf roles for everyone, inner-node
     roles for the initial workers, the root role (with the counter) for
     processor 1. *)
  for pid = 1 to n do
    Hashtbl.replace procs pid
      {
        pid;
        roles = [];
        pending = [];
        handed_over = [];
        leaf_parent_worker =
          (let p = Tree.leaf_parent tree ~leaf:pid in
           if p = Tree.root then Ids.root_initial_worker
           else fst (Ids.interval_of_flat tree p));
      }
  done;
  for flat = 0 to Tree.inner_count tree - 1 do
    let worker =
      if flat = Tree.root then Ids.root_initial_worker
      else fst (Ids.interval_of_flat tree flat)
    in
    let proc = Hashtbl.find procs worker in
    proc.roles <- initial_role tree flat :: proc.roles
  done;
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle t ~self ~src payload);
  t

let create ?seed ?delay ?faults ~n () =
  match Params.k_of_n_exact n with
  | Some k -> create_with ?seed ?delay ?faults (Retire_counter.paper_config ~k)
  | None ->
      invalid_arg
        (Printf.sprintf
           "Retire_local.create: n = %d is not of the form k^(k+1)" n)

let n t = Tree.n t.tree

let value t = t.value_issued

let metrics t = Sim.Network.metrics t.net

let traces t = Sim.Network.traces t.net
let observe t f = Sim.Network.observe t.net f

let total_retirements t = t.total_retirements

let stale_forwards t = t.stale_forwards

let buffered_messages t = t.buffered_messages

let active_roles t =
  Sim.Det.sorted_fold ~compare:Int.compare
    (fun _ proc acc -> acc + List.length proc.roles)
    t.procs 0

let inc t ~origin =
  if origin < 1 || origin > n t then
    invalid_arg "Retire_local: origin out of range";
  Sim.Network.begin_op t.net ~origin;
  t.completed_rev <- [];
  let origin_proc = Hashtbl.find t.procs origin in
  let parent = Tree.leaf_parent t.tree ~leaf:origin in
  Sim.Network.send t.net ~src:origin ~dst:origin_proc.leaf_parent_worker
    (Inc { origin; node = parent });
  ignore (Sim.Network.run_to_quiescence t.net);
  ignore (Sim.Network.end_op t.net);
  match List.find_opt (fun (o, _) -> o = origin) (List.rev t.completed_rev) with
  | Some (_, value) -> value
  | None ->
      raise
        (Counter.Counter_intf.Stall
           "Retire_local.inc: no value returned (a worker on the path \
            crashed or a message was lost)")

let inc_result t ~origin =
  Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

let crashed t p = Sim.Network.crashed t.net p

let clone t =
  let net = Sim.Network.clone_quiescent t.net in
  let procs = Hashtbl.create (Hashtbl.length t.procs) in
  Sim.Det.sorted_iter ~compare:Int.compare
    (fun pid proc ->
      Hashtbl.replace procs pid
        {
          pid;
          roles =
            List.map
              (fun r ->
                { r with believed_children = Array.copy r.believed_children })
              proc.roles;
          pending =
            List.map
              (fun p -> { p with p_children = Array.copy p.p_children })
              proc.pending;
          handed_over = proc.handed_over;
          leaf_parent_worker = proc.leaf_parent_worker;
        })
    t.procs;
  let st =
    {
      cfg = t.cfg;
      tree = t.tree;
      net;
      procs;
      completed_rev = t.completed_rev;
      overflow_next = t.overflow_next;
      retire_tally = Hashtbl.copy t.retire_tally;
      total_retirements = t.total_retirements;
      stale_forwards = t.stale_forwards;
      buffered_messages = t.buffered_messages;
      value_issued = t.value_issued;
    }
  in
  Sim.Network.set_handler net (fun ~self ~src payload ->
      handle st ~self ~src payload);
  st
