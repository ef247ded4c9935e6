type payload =
  | Read_req of { round : int }
  | Read_rep of { round : int; value : int; version : int }
  | Write_req of { round : int; value : int; version : int }
  | Write_ack of { round : int }

(* Virtual-time budget for the first attempt of a phase; doubled on every
   retry (exponential backoff). Generous against the ~1-unit delay models
   so fault-free-slow is rarely mistaken for dead — and timers are local
   (no load), so patience costs nothing the paper counts. *)
let initial_timeout = 32.

(* Attempt budget per operation before the client reports a stall. *)
let max_attempts = 8

type phase = Reading | Writing

(* The client of one in-flight operation. [round] stamps its current
   quorum attempt and [rounds] every stamp it has used: replies carry
   the round back, so replies find their operation through it (any
   number of operations can be in flight) and a retry can tell fresh
   replies from stragglers of an earlier attempt. [pending] lists members
   that have not answered this round (membership, not a count, so a
   duplicated reply cannot be counted twice); [awaiting] is how many more
   answers the phase needs (= |pending| normally; a majority in fallback
   mode, where the request goes to everyone and crashed members never
   answer). [value, version] is the pair the write phase installs. *)
type client = {
  op : int;
  origin : int;
  slot : int;  (* rotation slot, from origin-local state only *)
  mutable round : int;
  mutable rounds : int list;
  mutable phase : phase;
  mutable members : int list;
  mutable fallback : bool;
  mutable pending : int list;
  mutable awaiting : int;
  mutable best_value : int;
  mutable best_version : int;
  mutable value : int;
  mutable version : int;
  mutable attempts : int;
  mutable timeout : float;
}

type state = {
  k : payload Counter.Kernel.ctx;
  net : payload Sim.Network.t;
  n : int;
  quorum : slot:int -> int list;  (* the quorum system's rotation *)
  distinct : int;  (* distinct quorums in the rotation *)
  size : int;  (* members per quorum *)
  failure_aware : bool;
      (* true iff created with a fault plan: only then are timeout
         timers armed and suspicion tracked, so fault-free runs are
         bit-identical to the pre-fault-layer protocol *)
  values : int array;  (* registers, index = processor *)
  versions : int array;
  local_ops : int array;
      (* per-processor operation counts: quorum choice must depend
         only on state the origin knows locally, or the process of a
         hypothetical operation would change when unrelated
         processors act — violating the prefix-stability the
         lower-bound proof relies on (and which any real distributed
         client satisfies) *)
  suspected : bool array option array;
      (* per-origin failure detector (lazily allocated row of n+1
         flags): origin-local for the same prefix-stability reason *)
  clients : (int, client) Hashtbl.t;
      (* every round stamp of every live operation *)
  mutable last_round : int;  (* monotone attempt stamp, never reset *)
  mutable retries : int;  (* observer tallies *)
  mutable fallbacks : int;
}

let label = function
  | Read_req _ -> "read"
  | Read_rep _ -> "read-rep"
  | Write_req _ -> "write"
  | Write_ack _ -> "ack"

let init k ~n ~quorum ~distinct ~size =
  let net = Counter.Kernel.net k in
  {
    k;
    net;
    n;
    quorum;
    distinct;
    size;
    failure_aware = not (Sim.Fault.is_none (Sim.Network.faults net));
    values = Array.make (n + 1) 0;
    versions = Array.make (n + 1) 0;
    local_ops = Array.make (n + 1) 0;
    suspected = Array.make (n + 1) None;
    clients = Hashtbl.create 64;
    last_round = 0;
    retries = 0;
    fallbacks = 0;
  }

(* -------------------------------------------------------------- *)
(* Origin-local suspicion                                          *)

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

(* The first quorum in rotation order from the operation's slot with
   no member the origin suspects — the client-side analogue of
   {!Quorum.Probe.search}, driven by local suspicion instead of probe
   messages — or, when suspicion blocks the whole rotation, everyone
   with a majority to wait for. *)
let choose t c =
  let rec walk i =
    if i >= t.distinct then None
    else
      let members = t.quorum ~slot:(c.slot + i) in
      if List.exists (fun m -> is_suspected t c.origin m) members then
        walk (i + 1)
      else Some members
  in
  match walk 0 with
  | Some members ->
      c.members <- members;
      c.fallback <- false
  | None ->
      t.fallbacks <- t.fallbacks + 1;
      c.members <- List.init t.n (fun i -> i + 1);
      c.fallback <- true

let majority_need t = (t.n / 2) + 1

(* -------------------------------------------------------------- *)
(* Registers                                                       *)

let store t member ~value ~version =
  if version > t.versions.(member) then begin
    t.versions.(member) <- version;
    t.values.(member) <- value
  end

(* -------------------------------------------------------------- *)
(* Client state machine                                            *)

(* A fresh stamp for the operation's current phase. *)
let stamp t c =
  let round = t.last_round + 1 in
  t.last_round <- round;
  c.round <- round;
  c.rounds <- round :: c.rounds;
  Hashtbl.replace t.clients round c;
  round

(* The operation is over: none of its stamps resolves any more, so
   its armed timer and late replies are ignored. *)
let finish t c = List.iter (Hashtbl.remove t.clients) c.rounds

let rec arm t c =
  if t.failure_aware then begin
    let round = c.round in
    Sim.Network.schedule_local t.net ~delay:c.timeout (fun () ->
        if c.round = round && Hashtbl.mem t.clients round then retry t c)
  end

and start_read t c =
  let origin = c.origin in
  let remote = List.filter (fun m -> m <> origin) c.members in
  let is_member = List.mem origin c.members in
  c.phase <- Reading;
  c.best_version <- (if is_member then t.versions.(origin) else -1);
  c.best_value <- (if is_member then t.values.(origin) else 0);
  c.pending <- remote;
  c.awaiting <-
    (if c.fallback then majority_need t - if is_member then 1 else 0
     else List.length remote);
  let round = stamp t c in
  List.iter
    (fun m -> Sim.Network.send t.net ~src:origin ~dst:m (Read_req { round }))
    remote;
  if c.awaiting <= 0 then finish_read t c else arm t c

and finish_read t c =
  c.value <- c.best_value + 1;
  c.version <- c.best_version + 1;
  start_write t c

and start_write t c =
  (* [c.value] is the new counter value being installed; the
     operation returns [c.value - 1]. *)
  let origin = c.origin in
  let remote = List.filter (fun m -> m <> origin) c.members in
  store t origin ~value:c.value ~version:c.version;
  c.phase <- Writing;
  c.pending <- remote;
  c.awaiting <-
    (if c.fallback then majority_need t - 1 else List.length remote);
  let round = stamp t c in
  List.iter
    (fun m ->
      Sim.Network.send t.net ~src:origin ~dst:m
        (Write_req { round; value = c.value; version = c.version }))
    remote;
  if c.awaiting <= 0 then complete t c else arm t c

and complete t c =
  finish t c;
  Counter.Kernel.complete t.k ~op:c.op ~value:(c.value - 1)

(* A phase timed out: suspect the silent members, back off, and retry
   the phase on the next quorum the origin still trusts — or on
   everyone (majority fallback) when suspicion blocks the whole
   rotation. *)
and retry t c =
  let abort reason =
    finish t c;
    Counter.Kernel.stall t.k ~op:c.op ("Quorum_counter.inc: " ^ reason)
  in
  if Sim.Network.crashed t.net c.origin then
    abort "origin crashed mid-operation"
  else if c.attempts + 1 >= max_attempts then
    abort
      (Printf.sprintf "gave up after %d attempts (last quorum: %d silent)"
         (c.attempts + 1) (List.length c.pending))
  else begin
    c.attempts <- c.attempts + 1;
    t.retries <- t.retries + 1;
    List.iter (fun m -> if m <> c.origin then suspect t c.origin m) c.pending;
    c.timeout <- c.timeout *. 2.;
    choose t c;
    match c.phase with
    | Reading -> start_read t c
    | Writing -> start_write t c
  end

(* [src] answered [c]'s current round. *)
let answered c ~src ~quorum_reached =
  if List.mem src c.pending then begin
    c.pending <- List.filter (fun m -> m <> src) c.pending;
    c.awaiting <- c.awaiting - 1;
    if c.awaiting <= 0 then quorum_reached ()
  end

let start t ~op ~origin =
  (* Slot from origin-local state only: first access by origin [p]
     uses slot [p-1] (spreading the each-once sequence across the
     full rotation), later accesses jump by [n]. *)
  let slot = origin - 1 + (t.n * t.local_ops.(origin)) in
  t.local_ops.(origin) <- t.local_ops.(origin) + 1;
  let c =
    {
      op;
      origin;
      slot;
      round = 0;
      rounds = [];
      phase = Reading;
      members = [];
      fallback = false;
      pending = [];
      awaiting = 0;
      best_value = 0;
      best_version = -1;
      value = 0;
      version = 0;
      attempts = 0;
      timeout = initial_timeout;
    }
  in
  choose t c;
  start_read t c

(* -------------------------------------------------------------- *)
(* Message handler                                                 *)

let handle t ~self ~src = function
  | Read_req { round } ->
      Sim.Network.send t.net ~src:self ~dst:src
        (Read_rep
           { round; value = t.values.(self); version = t.versions.(self) })
  | Write_req { round; value; version } ->
      store t self ~value ~version;
      Sim.Network.send t.net ~src:self ~dst:src (Write_ack { round })
  | Read_rep { round; value; version } -> (
      match Hashtbl.find_opt t.clients round with
      | Some c when c.phase = Reading ->
          if t.failure_aware then unsuspect t c.origin src;
          (* Read-max absorbs every reply, even a straggler from an
             earlier round: more information never hurts the read. *)
          if version > c.best_version then begin
            c.best_version <- version;
            c.best_value <- value
          end;
          if round = c.round then
            answered c ~src ~quorum_reached:(fun () -> finish_read t c)
      | _ ->
          (* Straggler of a phase or operation that moved on. *)
          ())
  | Write_ack { round } -> (
      match Hashtbl.find_opt t.clients round with
      | Some c when c.phase = Writing ->
          if t.failure_aware then unsuspect t c.origin src;
          if round = c.round then
            answered c ~src ~quorum_reached:(fun () -> complete t c)
      | _ -> ())

let settle _ = ()

let no_value = "Quorum_counter.inc: operation did not complete"

(* No client is live at quiescence: every phase either completed or
   timed out into a retry or a stall. *)
let copy k t =
  {
    t with
    k;
    net = Counter.Kernel.net k;
    values = Array.copy t.values;
    versions = Array.copy t.versions;
    local_ops = Array.copy t.local_ops;
    suspected = Array.map (Option.map Array.copy) t.suspected;
    clients = Hashtbl.create 64;
  }

(* The protocol above sees the quorum system only through [quorum],
   [distinct] and [size]; the functor builds the system and names the
   counter. *)
module Make (Q : Quorum.Quorum_intf.S) = struct
  include Counter.Kernel.Make (struct
    type nonrec payload = payload
    type config = unit
    type nonrec state = state

    let name = "quorum-" ^ Q.name
    let describe = "read-max/write-back counter over " ^ Q.describe
    let supported_n = Q.supported_n
    let label = label
    let default ~n:_ = ()

    let init k ~n () =
      if Q.supported_n n <> n then
        invalid_arg ("Quorum_counter: unsupported n for " ^ Q.name);
      let system = Q.create ~n in
      init k ~n
        ~quorum:(fun ~slot -> Q.quorum system ~slot)
        ~distinct:(Q.distinct_quorums system)
        ~size:(Q.quorum_size system)

    let handle = handle
    let start = start
    let settle = settle
    let no_value = no_value
    let copy = copy
  end)

  let quorum_size t = (state t).size

  let retries t = (state t).retries

  let fallbacks t = (state t).fallbacks
end

module Over_majority = Make (Quorum.Majority)
module Over_grid = Make (Quorum.Grid)
module Over_tree = Make (Quorum.Tree_quorum)
module Over_wall = Make (Quorum.Crumbling_wall)
module Over_plane = Make (Quorum.Projective_plane)
