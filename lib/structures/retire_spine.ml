module Make (O : Sequential_object.OBJECT) = struct
  type dest = To_node of int | To_leaf of int

  type payload =
    | Request of { origin : int; node : int; operation : O.operation }
    | Reply of { result : O.result }
    | Handoff of { node : int; piece : piece }
    | New_worker of { about : int; worker : int; dest : dest }

  and piece =
    | Parent_id of int
    | Child_id of int * int
    | Object_state  (* the root ships its state to the successor *)

  let label = function
    | Request { operation; _ } -> O.operation_to_string operation
    | Reply _ -> "reply"
    | Handoff _ -> "handoff"
    | New_worker _ -> "new-worker"

  type node_state = {
    flat : int;
    level : int;
    mutable worker : int;
    mutable age : int;
    mutable retirements : int;
    mutable believed_parent_worker : int;
    believed_child_workers : int array;
    interval_hi : int;
  }

  type t = {
    cfg : Core.Retire_counter.config;
    tree : Core.Tree.t;
    net : payload Sim.Network.t;
    nodes : node_state array;
    leaf_believed_parent : int array;
    mutable object_state : O.state;
    mutable last_result : O.result option;
    mutable operations : int;
    mutable overflow_next : int;
    mutable total_retirements : int;
  }

  let supported_n n = Core.Params.round_up_n (max 1 n)

  let make_nodes tree =
    Array.init (Core.Tree.inner_count tree) (fun flat ->
        let level = Core.Tree.level_of tree flat in
        let worker, interval_hi =
          if flat = Core.Tree.root then (Core.Ids.root_initial_worker, max_int)
          else
            let lo, hi = Core.Ids.interval_of_flat tree flat in
            (lo, hi)
        in
        let believed_parent_worker =
          match Core.Tree.parent tree flat with
          | None -> 0
          | Some p ->
              if p = Core.Tree.root then Core.Ids.root_initial_worker
              else fst (Core.Ids.interval_of_flat tree p)
        in
        let believed_child_workers =
          if level = Core.Tree.depth tree then
            Array.of_list (Core.Tree.leaf_children tree flat)
          else
            Array.of_list
              (List.map
                 (fun c -> fst (Core.Ids.interval_of_flat tree c))
                 (Core.Tree.children tree flat))
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

  let rec handle st ~self ~src:_ payload =
    match payload with
    | Reply { result } -> st.last_result <- Some result
    | Handoff _ -> ()
    | Request { origin; node; operation } ->
        let nd = st.nodes.(node) in
        if nd.worker <> self then
          Sim.Network.send st.net ~src:self ~dst:nd.worker payload
        else if nd.level = 0 then begin
          let state, result = O.apply st.object_state operation in
          st.object_state <- state;
          Sim.Network.send st.net ~src:self ~dst:origin (Reply { result });
          nd.age <- nd.age + 2;
          maybe_retire st nd
        end
        else begin
          let parent =
            match Core.Tree.parent st.tree node with
            | Some p -> p
            | None -> assert false
          in
          Sim.Network.send st.net ~src:self ~dst:nd.believed_parent_worker
            (Request { origin; node = parent; operation });
          nd.age <- nd.age + 2;
          maybe_retire st nd
        end
    | New_worker { about; worker; dest } -> (
        match dest with
        | To_leaf leaf -> st.leaf_believed_parent.(leaf - 1) <- worker
        | To_node node ->
            let nd = st.nodes.(node) in
            if nd.worker <> self then
              Sim.Network.send st.net ~src:self ~dst:nd.worker payload
            else begin
              (if nd.believed_parent_worker <> 0 then
                 match Core.Tree.parent st.tree node with
                 | Some p when p = about -> nd.believed_parent_worker <- worker
                 | _ -> ());
              (if nd.level < Core.Tree.depth st.tree then
                 List.iteri
                   (fun slot c ->
                     if c = about then nd.believed_child_workers.(slot) <- worker)
                   (Core.Tree.children st.tree node));
              nd.age <- nd.age + 1;
              maybe_retire st nd
            end)

  and maybe_retire st nd =
    if nd.age >= st.cfg.Core.Retire_counter.retire_threshold then retire st nd

  and retire st nd =
    let old_worker = nd.worker in
    let successor =
      if nd.flat = Core.Tree.root then
        if old_worker + 1 <= Core.Tree.n st.tree then old_worker + 1
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
    in
    nd.worker <- successor;
    nd.age <- 0;
    nd.retirements <- nd.retirements + 1;
    st.total_retirements <- st.total_retirements + 1;
    Array.iteri
      (fun slot child_worker ->
        Sim.Network.send st.net ~src:old_worker ~dst:successor
          (Handoff { node = nd.flat; piece = Child_id (slot, child_worker) }))
      nd.believed_child_workers;
    if nd.flat = Core.Tree.root then
      Sim.Network.send st.net ~src:old_worker ~dst:successor
        (Handoff { node = nd.flat; piece = Object_state })
    else
      Sim.Network.send st.net ~src:old_worker ~dst:successor
        (Handoff { node = nd.flat; piece = Parent_id nd.believed_parent_worker });
    (if nd.flat <> Core.Tree.root then
       match Core.Tree.parent st.tree nd.flat with
       | Some p ->
           Sim.Network.send st.net ~src:old_worker
             ~dst:nd.believed_parent_worker
             (New_worker { about = nd.flat; worker = successor; dest = To_node p })
       | None -> assert false);
    if nd.level = Core.Tree.depth st.tree then
      List.iter
        (fun leaf ->
          Sim.Network.send st.net ~src:old_worker ~dst:leaf
            (New_worker { about = nd.flat; worker = successor; dest = To_leaf leaf }))
        (Core.Tree.leaf_children st.tree nd.flat)
    else
      List.iteri
        (fun slot c ->
          Sim.Network.send st.net ~src:old_worker
            ~dst:nd.believed_child_workers.(slot)
            (New_worker { about = nd.flat; worker = successor; dest = To_node c }))
        (Core.Tree.children st.tree nd.flat)

  let create_with ?(seed = 42) ?delay (cfg : Core.Retire_counter.config) =
    let arity = cfg.Core.Retire_counter.arity in
    if cfg.Core.Retire_counter.retire_threshold < arity + 2 then
      invalid_arg "Retire_spine: retire_threshold must be >= arity + 2";
    let tree =
      Core.Tree.create ~arity ~depth:cfg.Core.Retire_counter.depth
    in
    let n = Core.Tree.n tree in
    let net = Sim.Network.create ~seed ?delay ~label ~n () in
    let nodes = make_nodes tree in
    let leaf_believed_parent =
      Array.init n (fun i ->
          nodes.(Core.Tree.leaf_parent tree ~leaf:(i + 1)).worker)
    in
    let st =
      {
        cfg;
        tree;
        net;
        nodes;
        leaf_believed_parent;
        object_state = O.initial;
        last_result = None;
        operations = 0;
        overflow_next = n + 1;
        total_retirements = 0;
      }
    in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        handle st ~self ~src payload);
    st

  let create ?seed ?delay ~n () =
    match Core.Params.k_of_n_exact n with
    | Some k ->
        create_with ?seed ?delay (Core.Retire_counter.paper_config ~k)
    | None ->
        invalid_arg
          (Printf.sprintf
             "Retire_spine.create: n = %d is not of the form k^(k+1)" n)

  let n t = Core.Tree.n t.tree

  let state t = t.object_state

  let operations t = t.operations

  let metrics t = Sim.Network.metrics t.net

  let traces t = Sim.Network.traces t.net
  let observe t f = Sim.Network.observe t.net f

  let total_retirements t = t.total_retirements

  let believed_consistent t =
    let ok = ref true in
    Array.iter
      (fun nd ->
        (match Core.Tree.parent t.tree nd.flat with
        | None -> ()
        | Some p ->
            if nd.believed_parent_worker <> t.nodes.(p).worker then ok := false);
        if nd.level < Core.Tree.depth t.tree then
          List.iteri
            (fun slot c ->
              if nd.believed_child_workers.(slot) <> t.nodes.(c).worker then
                ok := false)
            (Core.Tree.children t.tree nd.flat))
      t.nodes;
    Array.iteri
      (fun i believed ->
        let p = Core.Tree.leaf_parent t.tree ~leaf:(i + 1) in
        if believed <> t.nodes.(p).worker then ok := false)
      t.leaf_believed_parent;
    !ok

  let execute t ~origin operation =
    if origin < 1 || origin > n t then
      invalid_arg "Retire_spine.execute: origin out of range";
    Sim.Network.begin_op t.net ~origin;
    t.last_result <- None;
    let parent = Core.Tree.leaf_parent t.tree ~leaf:origin in
    Sim.Network.send t.net ~src:origin
      ~dst:t.leaf_believed_parent.(origin - 1)
      (Request { origin; node = parent; operation });
    ignore (Sim.Network.run_to_quiescence t.net);
    ignore (Sim.Network.end_op t.net);
    t.operations <- t.operations + 1;
    match t.last_result with
    | Some r -> r
    | None -> failwith "Retire_spine.execute: operation returned no result"

  let clone t =
    let net = Sim.Network.clone_quiescent t.net in
    let st =
      {
        cfg = t.cfg;
        tree = t.tree;
        net;
        nodes =
          Array.map
            (fun nd ->
              { nd with believed_child_workers = Array.copy nd.believed_child_workers })
            t.nodes;
        leaf_believed_parent = Array.copy t.leaf_believed_parent;
        object_state = t.object_state;
        last_result = t.last_result;
        operations = t.operations;
        overflow_next = t.overflow_next;
        total_retirements = t.total_retirements;
      }
    in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        handle st ~self ~src payload);
    st
end
