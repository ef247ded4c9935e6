(* [op] threads an operation id through a token's walk so completions can
   be matched when an origin has several tokens in flight. *)
type payload =
  | Token of { origin : int; op : int; node : int }
      (* walking the tree; [node] is a heap index, 1 = root *)
  | Exit of { origin : int; op : int; wire : int }
      (* token reached a leaf counter *)
  | Value of { origin : int; op : int; value : int }

type node_state = {
  mutable toggle : bool;  (* true = next lone token goes left *)
  mutable waiting : (int * int) option;  (* (origin, op) of a parked token *)
  mutable generation : int;  (* invalidates stale prism timers *)
}

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

module P = struct
  type nonrec payload = payload

  type config = int * float  (* width, prism window *)

  type state = {
    k : payload Counter.Kernel.ctx;
    net : payload Sim.Network.t;
    n : int;
    width : int;
    prism_window : float;
    nodes : node_state array;  (* heap-indexed, slot 0 unused *)
    counts : int array;  (* per leaf wire *)
    mutable toggle_hits : int;
    mutable diffractions : int;
    mutable step_ok : bool;
  }

  let name = "diffracting"

  let describe =
    "Shavit-Zemach diffracting tree: prism pairing under concurrency, \
     Theta(n) root load when sequential"

  let supported_n n = max 1 n

  let label = function
    | Token _ -> "token"
    | Exit _ -> "exit"
    | Value _ -> "val"

  let default ~n = (Counting_network.default_width n, 1.5)

  let init k ~n (width, prism_window) =
    if n < 1 then invalid_arg "Diffracting_tree: n must be >= 1";
    if not (is_power_of_two width) then
      invalid_arg "Diffracting_tree: width must be a power of two";
    {
      k;
      net = Counter.Kernel.net k;
      n;
      width;
      prism_window;
      nodes =
        Array.init (max 1 width) (fun _ ->
            { toggle = true; waiting = None; generation = 0 });
      counts = Array.make width 0;
      toggle_hits = 0;
      diffractions = 0;
      step_ok = true;
    }

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
    | Value { origin = _; op; value } -> Counter.Kernel.complete st.k ~op ~value
    | Exit { origin; op; wire } ->
        (* A toggle tree routes the m-th token to the leaf whose index is
           the bit-reversal of m mod width, so leaf [wire] hands out the
           value sequence seeded at bitrev(wire). *)
        let seed = bit_reverse ~bits:(log2 st.width) wire in
        let value = seed + (st.width * st.counts.(seed)) in
        st.counts.(seed) <- st.counts.(seed) + 1;
        Sim.Network.send st.net ~src:self ~dst:origin
          (Value { origin; op; value })
    | Token { origin; op; node } -> (
        let nd = st.nodes.(node) in
        match nd.waiting with
        | Some (partner, partner_op) ->
            (* Diffraction: the pair splits left/right without touching
               the toggle. *)
            nd.waiting <- None;
            nd.generation <- nd.generation + 1;
            st.diffractions <- st.diffractions + 1;
            forward st ~src:self ~origin:partner ~op:partner_op ~node ~dir:0;
            forward st ~src:self ~origin ~op ~node ~dir:1
        | None ->
            nd.waiting <- Some (origin, op);
            nd.generation <- nd.generation + 1;
            let gen = nd.generation in
            Sim.Network.schedule_local st.net ~delay:st.prism_window
              (fun () ->
                let still_parked =
                  nd.generation = gen
                  &&
                  match nd.waiting with
                  | Some (o, p) -> o = origin && p = op
                  | None -> false
                in
                if still_parked then begin
                  (* Prism window expired with no partner: use the
                     toggle. *)
                  nd.waiting <- None;
                  nd.generation <- nd.generation + 1;
                  st.toggle_hits <- st.toggle_hits + 1;
                  let dir = if nd.toggle then 0 else 1 in
                  nd.toggle <- not nd.toggle;
                  forward st ~src:self ~origin ~op ~node ~dir
                end))

  let start st ~op ~origin =
    if st.width = 1 then
      (* Degenerate tree: straight to the single leaf counter. *)
      Sim.Network.send st.net ~src:origin ~dst:(leaf_host st 0)
        (Exit { origin; op; wire = 0 })
    else
      Sim.Network.send st.net ~src:origin ~dst:(node_host st 1)
        (Token { origin; op; node = 1 })

  let settle st =
    if not (Bitonic.step_property st.counts) then st.step_ok <- false

  let no_value =
    "Diffracting_tree.inc: no value returned (node host crashed or token \
     lost)"

  let copy k st =
    {
      st with
      k;
      net = Counter.Kernel.net k;
      nodes =
        Array.map
          (fun { toggle; waiting; generation } ->
            { toggle; waiting; generation })
          st.nodes;
      counts = Array.copy st.counts;
    }
end

include Counter.Kernel.Make (P)

let create_width ?seed ?delay ?faults ?(prism_window = 1.5) ~n ~width () =
  create_with ?seed ?delay ?faults ~n (width, prism_window)

let width t = (state t).width

let toggle_hits t = (state t).toggle_hits

let diffractions t = (state t).diffractions

let output_counts t = Array.copy (state t).counts

let step_property_held t = (state t).step_ok
