(* The ablation ladder: real configurations built only from the layers'
   public functions, each rung adding one layer to the one below.

   - heap: [Sim.Heap] push/[pop_top] replaying the relay's event-queue
     work, so event count and pending-set size are the workload's;
   - network: a null-protocol relay on [Sim.Network] with the workload's
     n, delay model, deliveries per operation and injection pattern
     (which also charges [Sim.Metrics] and pops [Sim.Heap]);
   - metrics: [Sim.Metrics.on_send]/[on_recv] called directly;
   - trace: the relay plus [begin_op]/[end_op] per operation, traces kept;
   - fault: the relay under a fault plan with an [apply_rule] corrupt hook.

   Differences between rungs attribute host time, allocation and retained
   memory to one layer. *)

(* A relay payload packs the remaining hop budget above a small value
   field; the corrupt hook rewrites only the value, so a Byzantine rule
   cannot change the relay's length. Payloads are immediate: the null
   protocol allocates nothing of its own. *)
let value_bits = 20

let value_mask = (1 lsl value_bits) - 1

let encode ~hops ~value = (hops lsl value_bits) lor (value land value_mask)

let hops_of p = p lsr value_bits

let corrupt ~rule ~equivocate ~src:_ ~dst p =
  let v = p land value_mask in
  let v' = Sim.Fault.apply_rule ~rule ~equivocate ~dst v in
  if v' = v then p else encode ~hops:(hops_of p) ~value:v'

let next_hop ~n ~self ~hops = 1 + (((self * 2654435761) + hops) mod n)

(* Deliveries of operation [i] when [total] are spread over [ops]. *)
let share ~total ~ops i = (total * (i + 1) / ops) - (total * i / ops)

(* Deliveries of relay chain [chain] of operation [op]: the workload's
   [total] spread over its operations, then over [relay_width] chains. *)
let chain_length (w : Workload.t) ~total op chain =
  share ~total:(share ~total ~ops:w.ops op) ~ops:w.relay_width chain

type injection =
  | Per_op of int list
      (** Closed loop: inject each origin's chains, run to quiescence. *)
  | Timers of (float * int) array
      (** Open loop: one local timer per planned arrival, one drain. *)

type observe = No_traces | Kept_traces

type relay = {
  seconds : float;
  deliveries : int;
  alloc_words : float;
  retained_words : int;
}

let relay ?faults ?(observe = No_traces) ?(retained = false) (w : Workload.t)
    ~seed ~total injection =
  let n = w.n in
  let net =
    match faults with
    | None -> Sim.Network.create ~seed ~delay:w.delay ~n ()
    | Some faults ->
        Sim.Network.create ~seed ~delay:w.delay ~faults ~corrupt ~n ()
  in
  Sim.Network.set_handler net (fun ~self ~src:_ p ->
      let hops = hops_of p in
      if hops > 0 then
        Sim.Network.send net ~src:self
          ~dst:(next_hop ~n ~self ~hops)
          (encode ~hops:(hops - 1) ~value:(p + 1)));
  let inject op origin =
    for chain = 0 to w.relay_width - 1 do
      let len = chain_length w ~total op chain in
      if len > 0 then
        Sim.Network.send net ~src:origin
          ~dst:(next_hop ~n ~self:origin ~hops:(op + chain))
          (encode ~hops:(len - 1) ~value:op)
    done
  in
  let traces = ref [] in
  let base = if retained then Clock.live_words () else 0 in
  let w0 = Clock.allocated_words () in
  let t0 = Clock.now_ns () in
  (match injection with
  | Per_op origins ->
      List.iteri
        (fun op origin ->
          match observe with
          | No_traces ->
              inject op origin;
              ignore (Sim.Network.run_to_quiescence net : int)
          | Kept_traces ->
              Sim.Network.begin_op net ~origin;
              inject op origin;
              ignore (Sim.Network.run_to_quiescence net : int);
              traces := Sim.Network.end_op net :: !traces)
        origins
  | Timers plan ->
      Array.iteri
        (fun op (at, origin) ->
          Sim.Network.schedule_local net ~delay:(at -. Sim.Network.now net)
            (fun () -> inject op origin))
        plan;
      ignore (Sim.Network.run_to_quiescence net : int));
  let seconds = Clock.since t0 in
  let alloc_words = Clock.allocated_words () -. w0 in
  let retained_words = if retained then Clock.live_words () - base else 0 in
  ignore (Sys.opaque_identity !traces);
  {
    seconds;
    deliveries = Sim.Network.deliveries net;
    alloc_words;
    retained_words;
  }

(* The relay's event-queue work on a bare [Sim.Heap]: the same injections,
   one pop per delivery and one push per relayed hop, priorities spaced by
   the workload's delay model, so the pending set grows and shrinks as it
   does in the relay. Returns seconds, allocated words and pops. *)
let heap (w : Workload.t) ~seed ~total injection =
  let rng = Sim.Rng.create ~seed in
  let delays = Array.init 4096 (fun _ -> Sim.Delay.sample w.delay rng) in
  let k = ref 0 in
  let h = Sim.Heap.create () in
  let push ~now hops =
    incr k;
    Sim.Heap.push h ~prio:(now +. delays.(!k land 4095)) hops
  in
  let inject ~now op =
    for chain = 0 to w.relay_width - 1 do
      let len = chain_length w ~total op chain in
      if len > 0 then push ~now (len - 1)
    done
  in
  (* Entries are remaining hop budgets; a timer is [-1 - op]. *)
  let pops = ref 0 in
  let drain () =
    while not (Sim.Heap.is_empty h) do
      let now = Sim.Heap.top_prio h in
      let x = Sim.Heap.pop_top h in
      incr pops;
      if x < 0 then inject ~now (-1 - x) else if x > 0 then push ~now (x - 1)
    done
  in
  let w0 = Clock.allocated_words () in
  let t0 = Clock.now_ns () in
  (match injection with
  | Per_op origins ->
      List.iteri
        (fun op _ ->
          inject ~now:0. op;
          drain ())
        origins
  | Timers plan ->
      Array.iteri (fun op (at, _) -> Sim.Heap.push h ~prio:at (-1 - op)) plan;
      drain ());
  let seconds = Clock.since t0 in
  (seconds, Clock.allocated_words () -. w0, !pops)

(* [deliveries] send/receive charge pairs along the relay's destination
   pattern. *)
let metrics ~deliveries (w : Workload.t) =
  let n = w.n in
  let m = Sim.Metrics.create ~n in
  let self = ref 1 in
  let t0 = Clock.now_ns () in
  for i = 1 to deliveries do
    let dst = next_hop ~n ~self:!self ~hops:i in
    Sim.Metrics.on_send m !self;
    Sim.Metrics.on_recv m dst;
    self := dst
  done;
  let seconds = Clock.since t0 in
  ignore (Sys.opaque_identity m);
  seconds
