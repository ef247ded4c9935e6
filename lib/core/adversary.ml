type step = {
  op_index : int;
  chosen : int;
  list_length : int;
  q_list_length : int option;
  candidates_evaluated : int;
}

type result = {
  counter_name : string;
  n : int;
  order : int array;
  steps : step list;
  q : int;
  q_observations : Weights.observation list;
  weight_base : float;
  bottleneck_proc : int;
  bottleneck_load : int;
  q_load : int;
  average_list_length : float;
  k : int;
  bound_satisfied : bool;
  li_never_exceeds_big_li : bool;
  weights_monotone : bool;
  correct : bool;
  hotspot_ok : bool;
}

(* One inc from [p], returning its trace. The trace comes through
   [observe] instead of the retained log, so no history is reversed per
   candidate; the observer stays installed, and [counter] retains none of
   its later operations. *)
let inc_traced (type a) (module C : Counter.Counter_intf.S with type t = a)
    (counter : a) p =
  let last = ref None in
  C.observe counter (fun t -> last := Some t);
  ignore (C.inc counter ~origin:p);
  !last

let list_length = function
  | None -> 0
  | Some t -> Sim.Comm_list.length (Sim.Comm_list.of_trace t)

(* Trial-run an inc from [p] on a clone and return its communication-list
   length. *)
let trial (type a) (module C : Counter.Counter_intf.S with type t = a)
    (counter : a) p =
  list_length (inc_traced (module C) (C.clone counter) p)

let choose_candidates rng ~sample remaining =
  let all = Array.of_list remaining in
  if Array.length all <= sample then all
  else begin
    Sim.Rng.shuffle rng all;
    Array.sub all 0 sample
  end

let greedy_order (type a) (module C : Counter.Counter_intf.S with type t = a)
    (counter : a) ~n ~sample ~rng =
  let remaining = ref (List.init n (fun i -> i + 1)) in
  let order = Array.make n 0 in
  let steps = ref [] in
  for i = 0 to n - 1 do
    let candidates =
      choose_candidates rng ~sample:(max 1 sample) !remaining
    in
    let best = ref candidates.(0) and best_len = ref (-1) in
    Array.iter
      (fun p ->
        let len = trial (module C) counter p in
        if len > !best_len || (len = !best_len && p < !best) then begin
          best := p;
          best_len := len
        end)
      candidates;
    let committed_len =
      list_length (inc_traced (module C) counter !best)
    in
    order.(i) <- !best;
    remaining := List.filter (fun p -> p <> !best) !remaining;
    steps :=
      {
        op_index = i + 1;
        chosen = !best;
        list_length = committed_len;
        q_list_length = None;
        candidates_evaluated = Array.length candidates;
      }
      :: !steps
  done;
  (order, List.rev !steps)

let replay_with_weights (type a)
    (module C : Counter.Counter_intf.S with type t = a) ~(fresh : unit -> a)
    ~order ~base =
  let counter = fresh () in
  let n = Array.length order in
  let q = order.(n - 1) in
  let observations = ref [] and q_lengths = ref [] and values = ref [] in
  let hotspot = Counter.Hotspot.create () in
  C.observe counter (Counter.Hotspot.feed hotspot);
  Array.iteri
    (fun i p ->
      (* Measure q's hypothetical process and list before op i+1. *)
      let q_list =
        match inc_traced (module C) (C.clone counter) q with
        | None -> Sim.Comm_list.of_trace (Sim.Trace.create ~op_index:0 ~origin:q ())
        | Some t -> Sim.Comm_list.of_trace t
      in
      let metrics = C.metrics counter in
      let load p = Sim.Metrics.load metrics p in
      observations :=
        Weights.observe ~base ~load ~op_index:(i + 1) q_list :: !observations;
      q_lengths := Sim.Comm_list.length q_list :: !q_lengths;
      values := C.inc counter ~origin:p :: !values)
    order;
  let metrics = C.metrics counter in
  ( List.rev !observations,
    List.rev !q_lengths,
    List.rev !values,
    Counter.Hotspot.violations hotspot,
    metrics,
    Sim.Metrics.load metrics q )

let run ?(seed = 42) ?(sample = 16) ?base (module C : Counter.Counter_intf.S)
    ~n =
  let n = C.supported_n n in
  let rng = Sim.Rng.create ~seed:(seed + 7) in
  let counter = C.create ~seed ~n () in
  let order, steps = greedy_order (module C) counter ~n ~sample ~rng in
  let q = order.(n - 1) in
  let metrics_pass1 = C.metrics counter in
  let _, bottleneck_pass1 = Sim.Metrics.bottleneck metrics_pass1 in
  let base =
    match base with Some b -> b | None -> float_of_int (bottleneck_pass1 + 2)
  in
  let fresh () = C.create ~seed ~n () in
  let observations, q_lengths, values, hotspot_violations, metrics, q_load =
    replay_with_weights (module C) ~fresh ~order ~base
  in
  let steps =
    List.map2
      (fun s l -> { s with q_list_length = Some l })
      steps q_lengths
  in
  let bottleneck_proc, bottleneck_load = Sim.Metrics.bottleneck metrics in
  let total_len =
    List.fold_left (fun acc s -> acc + s.list_length) 0 steps
  in
  let li_ok =
    List.for_all
      (fun s ->
        match s.q_list_length with
        | Some l -> l <= s.list_length
        | None -> true)
      steps
  in
  let correct =
    List.for_all2 (fun v i -> v = i) values (List.init n (fun i -> i))
  in
  let k = Lower_bound.k_of_n n in
  {
    counter_name = C.name;
    n;
    order;
    steps;
    q;
    q_observations = observations;
    weight_base = base;
    bottleneck_proc;
    bottleneck_load;
    q_load;
    average_list_length = float_of_int total_len /. float_of_int n;
    k;
    bound_satisfied = Lower_bound.satisfied_by ~n ~bottleneck_load;
    li_never_exceeds_big_li = li_ok;
    weights_monotone = Weights.trajectory_monotone observations;
    correct;
    hotspot_ok = hotspot_violations = [];
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>adversary vs %s, n=%d (k=%d)@,\
     bottleneck: p%d with load %d  (bound k=%d: %s)@,\
     distinguished q=p%d, load %d@,\
     average list length L=%.2f@,\
     l_i <= L_i: %b   weights monotone: %b (base %.1f)@,\
     correct: %b   hotspot: %b@]"
    r.counter_name r.n r.k r.bottleneck_proc r.bottleneck_load r.k
    (if r.bound_satisfied then "satisfied" else "VIOLATED")
    r.q r.q_load r.average_list_length r.li_never_exceeds_big_li
    r.weights_monotone r.weight_base r.correct r.hotspot_ok
