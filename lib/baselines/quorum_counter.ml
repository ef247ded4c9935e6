type payload =
  | Read_req of { round : int }
  | Read_rep of { round : int; value : int; version : int }
  | Write_req of { round : int; value : int; version : int }
  | Write_ack of { round : int }

let label = function
  | Read_req _ -> "read"
  | Read_rep _ -> "read-rep"
  | Write_req _ -> "write"
  | Write_ack _ -> "ack"

(* The in-flight operation of the (sequential) client. [round] stamps one
   quorum attempt: replies carry the round back, so a retry can tell fresh
   replies from stragglers of an earlier attempt. [pending] lists members
   that have not answered this round (membership, not a count, so a
   duplicated reply cannot be counted twice); [awaiting] is how many more
   answers the phase needs (= |pending| normally; a majority in fallback
   mode, where the request goes to everyone and crashed members never
   answer). *)
type op_phase =
  | Idle
  | Reading of {
      origin : int;
      round : int;
      members : int list;
      fallback : bool;
      mutable pending : int list;
      mutable awaiting : int;
      mutable best_value : int;
      mutable best_version : int;
    }
  | Writing of {
      origin : int;
      round : int;
      fallback : bool;
      mutable pending : int list;
      mutable awaiting : int;
      value : int;
      version : int;
      result : int;
    }

(* Virtual-time budget for the first attempt of a phase; doubled on every
   retry (exponential backoff). Generous against the ~1-unit delay models
   so fault-free-slow is rarely mistaken for dead — and timers are local
   (no load), so patience costs nothing the paper counts. *)
let initial_timeout = 32.

(* Attempt budget per operation before the client reports a stall. *)
let max_attempts = 8

module Make (Q : Quorum.Quorum_intf.S) = struct
  type t = {
    net : payload Sim.Network.t;
    n : int;
    system : Q.t;
    failure_aware : bool;
        (* true iff created with a fault plan: only then are timeout
           timers armed and suspicion tracked, so fault-free runs are
           bit-identical to the pre-fault-layer protocol *)
    values : int array;  (* registers, index = processor *)
    versions : int array;
    local_ops : int array;
        (* per-processor operation counts: quorum choice must depend only
           on state the origin knows locally, or the process of a
           hypothetical operation would change when unrelated processors
           act — violating the prefix-stability the lower-bound proof
           relies on (and which any real distributed client satisfies) *)
    suspected : bool array option array;
        (* per-origin failure detector (lazily allocated row of n+1
           flags): origin-local for the same prefix-stability reason *)
    mutable phase : op_phase;
    mutable round : int;  (* monotone attempt stamp, never reset *)
    mutable attempts : int;  (* attempts consumed by the current op *)
    mutable cur_timeout : float;
    mutable op_slot : int;  (* rotation slot of the current op *)
    mutable ops : int;
    mutable last_returned : int;
    mutable stall : string option;
    mutable retries : int;  (* observer tallies *)
    mutable fallbacks : int;
    mutable conc_rounds : (int, cop) Hashtbl.t option;
        (* Open-loop client: one record per in-flight operation, keyed by
           the round stamp of its current phase. Allocated by the first
           [launch_at]; [None] on the sequential path, whose behaviour is
           untouched. *)
    mutable conc_completed_rev : (int * int * float) list;
        (* op, value, completed_at *)
  }

  (* State of one open-loop operation. The phase logic mirrors the
     sequential client exactly (read-max, write-back, suspicion, backoff,
     majority fallback) but lives in its own record so any number of
     operations can be in flight; replies find their operation through
     the round stamp, never through a global phase. *)
  and cop = {
    c_op : int;
    c_origin : int;
    c_slot : int;
    mutable c_round : int;
    mutable c_phase : phase_kind;
    mutable c_members : int list;
    mutable c_fallback : bool;
    mutable c_pending : int list;
    mutable c_awaiting : int;
    mutable c_best_value : int;
    mutable c_best_version : int;
    mutable c_wvalue : int;
    mutable c_wversion : int;
    mutable c_attempts : int;
    mutable c_timeout : float;
  }

  and phase_kind = Phase_read | Phase_write

  let name = "quorum-" ^ Q.name

  let describe = "read-max/write-back counter over " ^ Q.describe

  let supported_n = Q.supported_n

  let quorum_size t = Q.quorum_size t.system

  let retries t = t.retries

  let fallbacks t = t.fallbacks

  (* ---------------------------------------------------------------- *)
  (* Origin-local suspicion                                            *)

  let is_suspected t origin m =
    match t.suspected.(origin) with Some row -> row.(m) | None -> false

  let suspect t origin m =
    let row =
      match t.suspected.(origin) with
      | Some row -> row
      | None ->
          let row = Array.make (t.n + 1) false in
          t.suspected.(origin) <- Some row;
          row
    in
    if m >= 1 && m <= t.n then row.(m) <- true

  let unsuspect t origin m =
    match t.suspected.(origin) with
    | Some row when m >= 1 && m <= t.n -> row.(m) <- false
    | _ -> ()

  (* First quorum in rotation order from [from_slot] with no member the
     origin suspects — the client-side analogue of {!Quorum.Probe.search},
     driven by local suspicion instead of probe messages. [None] when
     suspicion blocks the whole rotation. *)
  let choose_quorum t ~origin ~from_slot =
    let distinct = Q.distinct_quorums t.system in
    let rec walk i =
      if i >= distinct then None
      else
        let members = Q.quorum t.system ~slot:(from_slot + i) in
        if List.exists (fun m -> is_suspected t origin m) members then
          walk (i + 1)
        else Some members
    in
    walk 0

  let everyone t = List.init t.n (fun i -> i + 1)

  let majority_need t = (t.n / 2) + 1

  (* ---------------------------------------------------------------- *)
  (* Registers                                                         *)

  let store t member ~value ~version =
    if version > t.versions.(member) then begin
      t.versions.(member) <- version;
      t.values.(member) <- value
    end

  (* ---------------------------------------------------------------- *)
  (* Client state machine                                              *)

  let rec arm_timeout t =
    if t.failure_aware then begin
      let round = t.round in
      Sim.Network.schedule_local t.net ~delay:t.cur_timeout (fun () ->
          if t.round = round then on_timeout t)
    end

  and next_round t =
    t.round <- t.round + 1;
    t.round

  and complete t ~result =
    t.phase <- Idle;
    ignore (next_round t);
    (* invalidate any armed timer *)
    t.last_returned <- result

  and abort t ~reason =
    t.phase <- Idle;
    ignore (next_round t);
    t.stall <- Some reason

  and start_read t ~origin ~fallback members =
    let remote = List.filter (fun m -> m <> origin) members in
    let is_member = List.mem origin members in
    let local_version = if is_member then t.versions.(origin) else -1 in
    let local_value = if is_member then t.values.(origin) else 0 in
    let awaiting =
      if fallback then majority_need t - (if is_member then 1 else 0)
      else List.length remote
    in
    let round = next_round t in
    let r =
      Reading
        {
          origin;
          round;
          members;
          fallback;
          pending = remote;
          awaiting;
          best_value = local_value;
          best_version = local_version;
        }
    in
    t.phase <- r;
    List.iter
      (fun m ->
        Sim.Network.send t.net ~src:origin ~dst:m (Read_req { round }))
      remote;
    if awaiting <= 0 then finish_read t
    else arm_timeout t

  and finish_read t =
    match t.phase with
    | Reading r ->
        start_write t ~origin:r.origin ~fallback:r.fallback r.members
          ~value:(r.best_value + 1) ~version:(r.best_version + 1)
    | Idle | Writing _ -> assert false

  and start_write t ~origin ~fallback members ~value ~version =
    (* [value] is the new counter value being installed; the operation
       returns [value - 1]. *)
    let remote = List.filter (fun m -> m <> origin) members in
    store t origin ~value ~version;
    let awaiting =
      if fallback then majority_need t - 1 else List.length remote
    in
    let round = next_round t in
    t.phase <-
      Writing
        {
          origin;
          round;
          fallback;
          pending = remote;
          awaiting;
          value;
          version;
          result = value - 1;
        };
    List.iter
      (fun m ->
        Sim.Network.send t.net ~src:origin ~dst:m
          (Write_req { round; value; version }))
      remote;
    if awaiting <= 0 then complete t ~result:(value - 1)
    else arm_timeout t

  (* A phase timed out: suspect the silent members, back off, and retry on
     the next quorum the origin still trusts — or on everyone (majority
     fallback) when suspicion blocks the whole rotation. *)
  and on_timeout t =
    match t.phase with
    | Idle -> ()
    | Reading { origin; pending; _ } ->
        retry t ~origin ~pending ~restart:(fun ~fallback members ->
            start_read t ~origin ~fallback members)
    | Writing { origin; pending; value; version; _ } ->
        retry t ~origin ~pending ~restart:(fun ~fallback members ->
            start_write t ~origin ~fallback members ~value ~version)

  and retry t ~origin ~pending ~restart =
    if Sim.Network.crashed t.net origin then
      abort t ~reason:"origin crashed mid-operation"
    else if t.attempts + 1 >= max_attempts then
      abort t
        ~reason:
          (Printf.sprintf "gave up after %d attempts (last quorum: %d silent)"
             (t.attempts + 1) (List.length pending))
    else begin
      t.attempts <- t.attempts + 1;
      t.retries <- t.retries + 1;
      List.iter (fun m -> if m <> origin then suspect t origin m) pending;
      t.cur_timeout <- t.cur_timeout *. 2.;
      match choose_quorum t ~origin ~from_slot:t.op_slot with
      | Some members -> restart ~fallback:false members
      | None ->
          t.fallbacks <- t.fallbacks + 1;
          restart ~fallback:true (everyone t)
    end

  (* ---------------------------------------------------------------- *)
  (* Open-loop concurrent client                                        *)

  let conc_table t =
    match t.conc_rounds with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 64 in
        t.conc_rounds <- Some tbl;
        tbl

  let conc_active t =
    match t.conc_rounds with Some _ -> true | None -> false

  (* Stamp the operation's current phase with a fresh round; the previous
     stamp (if any) stops resolving, so stragglers of a retried phase are
     dropped instead of double-counted. *)
  let conc_register t cop =
    let tbl = conc_table t in
    Hashtbl.remove tbl cop.c_round;
    let round = next_round t in
    cop.c_round <- round;
    Hashtbl.replace tbl round cop;
    round

  let conc_abandon t cop = Hashtbl.remove (conc_table t) cop.c_round

  let rec conc_arm t cop =
    if t.failure_aware then begin
      let round = cop.c_round in
      Sim.Network.schedule_local t.net ~delay:cop.c_timeout (fun () ->
          if Hashtbl.mem (conc_table t) round then conc_retry t cop)
    end

  and conc_start_read t cop =
    let origin = cop.c_origin in
    let remote = List.filter (fun m -> m <> origin) cop.c_members in
    let is_member = List.mem origin cop.c_members in
    cop.c_phase <- Phase_read;
    cop.c_best_version <- (if is_member then t.versions.(origin) else -1);
    cop.c_best_value <- (if is_member then t.values.(origin) else 0);
    cop.c_pending <- remote;
    cop.c_awaiting <-
      (if cop.c_fallback then majority_need t - (if is_member then 1 else 0)
       else List.length remote);
    let round = conc_register t cop in
    List.iter
      (fun m ->
        Sim.Network.send t.net ~src:origin ~dst:m (Read_req { round }))
      remote;
    if cop.c_awaiting <= 0 then conc_finish_read t cop else conc_arm t cop

  and conc_finish_read t cop =
    cop.c_wvalue <- cop.c_best_value + 1;
    cop.c_wversion <- cop.c_best_version + 1;
    conc_start_write t cop

  and conc_start_write t cop =
    let origin = cop.c_origin in
    let remote = List.filter (fun m -> m <> origin) cop.c_members in
    store t origin ~value:cop.c_wvalue ~version:cop.c_wversion;
    cop.c_phase <- Phase_write;
    cop.c_pending <- remote;
    cop.c_awaiting <-
      (if cop.c_fallback then majority_need t - 1 else List.length remote);
    let round = conc_register t cop in
    List.iter
      (fun m ->
        Sim.Network.send t.net ~src:origin ~dst:m
          (Write_req { round; value = cop.c_wvalue; version = cop.c_wversion }))
      remote;
    if cop.c_awaiting <= 0 then conc_complete t cop else conc_arm t cop

  and conc_complete t cop =
    Hashtbl.remove (conc_table t) cop.c_round;
    t.ops <- t.ops + 1;
    t.conc_completed_rev <-
      (cop.c_op, cop.c_wvalue - 1, Sim.Network.now t.net)
      :: t.conc_completed_rev

  and conc_retry t cop =
    if Sim.Network.crashed t.net cop.c_origin then conc_abandon t cop
    else if cop.c_attempts + 1 >= max_attempts then conc_abandon t cop
    else begin
      cop.c_attempts <- cop.c_attempts + 1;
      t.retries <- t.retries + 1;
      List.iter
        (fun m -> if m <> cop.c_origin then suspect t cop.c_origin m)
        cop.c_pending;
      cop.c_timeout <- cop.c_timeout *. 2.;
      (match choose_quorum t ~origin:cop.c_origin ~from_slot:cop.c_slot with
      | Some members ->
          cop.c_members <- members;
          cop.c_fallback <- false
      | None ->
          t.fallbacks <- t.fallbacks + 1;
          cop.c_members <- everyone t;
          cop.c_fallback <- true);
      match cop.c_phase with
      | Phase_read -> conc_start_read t cop
      | Phase_write -> conc_start_write t cop
    end

  let conc_launch t ~op ~origin =
    if Sim.Network.crashed t.net origin then ()
    else begin
      let slot = origin - 1 + (t.n * t.local_ops.(origin)) in
      t.local_ops.(origin) <- t.local_ops.(origin) + 1;
      let cop =
        {
          c_op = op;
          c_origin = origin;
          c_slot = slot;
          c_round = 0;
          c_phase = Phase_read;
          c_members = [];
          c_fallback = false;
          c_pending = [];
          c_awaiting = 0;
          c_best_value = 0;
          c_best_version = -1;
          c_wvalue = 0;
          c_wversion = 0;
          c_attempts = 0;
          c_timeout = initial_timeout;
        }
      in
      (match choose_quorum t ~origin ~from_slot:slot with
      | Some members -> cop.c_members <- members
      | None ->
          t.fallbacks <- t.fallbacks + 1;
          cop.c_members <- everyone t;
          cop.c_fallback <- true);
      conc_start_read t cop
    end

  (* ---------------------------------------------------------------- *)
  (* Message handler                                                   *)

  let handle t ~self ~src = function
    | Read_req { round } ->
        Sim.Network.send t.net ~src:self ~dst:src
          (Read_rep { round; value = t.values.(self); version = t.versions.(self) })
    | Write_req { round; value; version } ->
        store t self ~value ~version;
        Sim.Network.send t.net ~src:self ~dst:src (Write_ack { round })
    | Read_rep { round; value; version } -> (
        match
          match t.conc_rounds with
          | Some tbl -> Hashtbl.find_opt tbl round
          | None -> None
        with
        | Some cop ->
            if t.failure_aware then unsuspect t cop.c_origin src;
            if version > cop.c_best_version then begin
              cop.c_best_version <- version;
              cop.c_best_value <- value
            end;
            if List.mem src cop.c_pending then begin
              cop.c_pending <- List.filter (fun m -> m <> src) cop.c_pending;
              cop.c_awaiting <- cop.c_awaiting - 1;
              if cop.c_awaiting <= 0 then conc_finish_read t cop
            end
        | None when conc_active t ->
            (* Straggler of a retried or completed open-loop phase. *)
            ()
        | None -> (
        match t.phase with
        | Reading r ->
            if t.failure_aware then unsuspect t r.origin src;
            (* Read-max absorbs every reply, even a straggler from an
               earlier round: more information never hurts the read. *)
            if version > r.best_version then begin
              r.best_version <- version;
              r.best_value <- value
            end;
            if round = r.round && List.mem src r.pending then begin
              r.pending <- List.filter (fun m -> m <> src) r.pending;
              r.awaiting <- r.awaiting - 1;
              if r.awaiting <= 0 then finish_read t
            end
        | (Idle | Writing _) when t.failure_aware ->
            (* Straggler of a retried round: the phase moved on. *)
            ()
        | Idle | Writing _ ->
            failwith "Quorum_counter: unexpected read reply"))
    | Write_ack { round } -> (
        match
          match t.conc_rounds with
          | Some tbl -> Hashtbl.find_opt tbl round
          | None -> None
        with
        | Some cop ->
            if t.failure_aware then unsuspect t cop.c_origin src;
            if List.mem src cop.c_pending then begin
              cop.c_pending <- List.filter (fun m -> m <> src) cop.c_pending;
              cop.c_awaiting <- cop.c_awaiting - 1;
              if cop.c_awaiting <= 0 then conc_complete t cop
            end
        | None when conc_active t -> ()
        | None -> (
        match t.phase with
        | Writing w ->
            if t.failure_aware then unsuspect t w.origin src;
            if round = w.round && List.mem src w.pending then begin
              w.pending <- List.filter (fun m -> m <> src) w.pending;
              w.awaiting <- w.awaiting - 1;
              if w.awaiting <= 0 then complete t ~result:w.result
            end
        | (Idle | Reading _) when t.failure_aware -> ()
        | Idle | Reading _ ->
            failwith "Quorum_counter: unexpected write ack"))

  (* ---------------------------------------------------------------- *)
  (* Construction and the counter interface                            *)

  let create ?(seed = 42) ?delay ?(faults = Sim.Fault.none) ~n () =
    if Q.supported_n n <> n then
      invalid_arg ("Quorum_counter: unsupported n for " ^ Q.name);
    let net = Sim.Network.create ~seed ?delay ~faults ~label ~n () in
    let t =
      {
        net;
        n;
        system = Q.create ~n;
        failure_aware = not (Sim.Fault.is_none faults);
        values = Array.make (n + 1) 0;
        versions = Array.make (n + 1) 0;
        local_ops = Array.make (n + 1) 0;
        suspected = Array.make (n + 1) None;
        phase = Idle;
        round = 0;
        attempts = 0;
        cur_timeout = initial_timeout;
        op_slot = 0;
        ops = 0;
        last_returned = -1;
        stall = None;
        retries = 0;
        fallbacks = 0;
        conc_rounds = None;
        conc_completed_rev = [];
      }
    in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        handle t ~self ~src payload);
    t

  let n t = t.n

  let value t = t.ops

  let metrics t = Sim.Network.metrics t.net

  let traces t = Sim.Network.traces t.net
  let observe t f = Sim.Network.observe t.net f

  let crashed t p = Sim.Network.crashed t.net p

  let inc t ~origin =
    if origin < 1 || origin > t.n then
      invalid_arg "Quorum_counter.inc: origin out of range";
    Sim.Network.begin_op t.net ~origin;
    t.last_returned <- -1;
    t.stall <- None;
    t.attempts <- 0;
    t.cur_timeout <- initial_timeout;
    (* Slot from origin-local state only: first access by origin [p] uses
       slot [p-1] (spreading the each-once sequence across the full
       rotation), later accesses jump by [n]. *)
    let slot = origin - 1 + (t.n * t.local_ops.(origin)) in
    t.local_ops.(origin) <- t.local_ops.(origin) + 1;
    t.op_slot <- slot;
    (match choose_quorum t ~origin ~from_slot:slot with
    | Some members -> start_read t ~origin ~fallback:false members
    | None ->
        t.fallbacks <- t.fallbacks + 1;
        start_read t ~origin ~fallback:true (everyone t));
    ignore (Sim.Network.run_to_quiescence t.net);
    ignore (Sim.Network.end_op t.net);
    if t.last_returned < 0 then begin
      let reason =
        match t.stall with
        | Some r -> "Quorum_counter.inc: " ^ r
        | None -> "Quorum_counter.inc: operation did not complete"
      in
      abort t ~reason;
      raise (Counter.Counter_intf.Stall reason)
    end;
    t.ops <- t.ops + 1;
    t.last_returned

  let inc_result t ~origin =
    Counter.Counter_intf.result_of_inc (fun () -> inc t ~origin)

  let launch_at t ~op ~origin ~at =
    if origin < 1 || origin > t.n then
      invalid_arg "Quorum_counter.launch_at: origin out of range";
    ignore (conc_table t);
    let delay = at -. Sim.Network.now t.net in
    if delay < 0. then
      invalid_arg "Quorum_counter.launch_at: arrival in the past";
    Sim.Network.schedule_local t.net ~delay (fun () ->
        conc_launch t ~op ~origin)

  let run_open t = ignore (Sim.Network.run_to_quiescence t.net)

  let completions t = List.rev t.conc_completed_rev

  let clone t =
    let net = Sim.Network.clone_quiescent t.net in
    let st =
      {
        net;
        n = t.n;
        system = t.system;
        failure_aware = t.failure_aware;
        values = Array.copy t.values;
        versions = Array.copy t.versions;
        local_ops = Array.copy t.local_ops;
        suspected = Array.map (Option.map Array.copy) t.suspected;
        phase = Idle;
        round = t.round;
        attempts = t.attempts;
        cur_timeout = t.cur_timeout;
        op_slot = t.op_slot;
        ops = t.ops;
        last_returned = t.last_returned;
        stall = t.stall;
        retries = t.retries;
        fallbacks = t.fallbacks;
        conc_rounds = Option.map Hashtbl.copy t.conc_rounds;
        conc_completed_rev = t.conc_completed_rev;
      }
    in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        handle st ~self ~src payload);
    st
end

module Over_majority = Make (Quorum.Majority)
module Over_grid = Make (Quorum.Grid)
module Over_tree = Make (Quorum.Tree_quorum)
module Over_wall = Make (Quorum.Crumbling_wall)
module Over_plane = Make (Quorum.Projective_plane)
