type event = {
  seq : int;
  time : float;
  src : int;
  dst : int;
  tag : string;
  parent : int;
}

type fault_kind = Dropped | Duplicated | Crashed | Recovered | Turned_byzantine | Corrupted

type fault = { fault_time : float; fault_src : int; fault_dst : int; kind : fault_kind }

(* Events are stored in chronological chunks, so recording a message on
   the hot delivery path is one array write. The first chunk grows by
   doubling (16, 32, 64, 128) with a copy on growth; past [chunk] events
   the full chunk moves to [full_rev] and a fresh one starts, so no copy
   is ever made again.

   Why 128: the runtime allocates blocks of up to 256 words
   (Max_young_wosize) in the minor heap and larger ones directly in the
   major heap, and [Array.make] of a major-heap array whose initial
   value is young (here, the event being recorded) first forces a minor
   collection. Uncapped doubling reached 512 entries on a phase-king
   operation (282 messages): one forced minor GC per operation, each
   promoting whatever was young at that instant. A 128-entry chunk stays
   well inside the young limit, wastes at most 127 slots at the tail,
   and keeps every trace of at most 128 events (all of retire-tree's)
   in one array.

   Full chunks and fault annotations share one lazily allocated [rare]
   record, so a fault-free trace of at most 128 events stays a
   six-field block: one more word per operation measurably shifts
   retire-tree's GC pacing and its peak heap. *)
type rare = {
  mutable full_rev : event array list;  (* full chunks, newest first *)
  mutable faults_rev : fault list;
}

type t = {
  op_index : int;
  origin : int;
  start_time : float;
  mutable events_arr : event array;  (* current chunk *)
  mutable count : int;  (* all events, full chunks included *)
  mutable rare : rare option;
}

let chunk = 128

let create ?(start_time = 0.) ~op_index ~origin () =
  { op_index; origin; start_time; events_arr = [||]; count = 0; rare = None }

let rare t =
  match t.rare with
  | Some r -> r
  | None ->
      let r = { full_rev = []; faults_rev = [] } in
      t.rare <- Some r;
      r

let full_rev t = match t.rare with Some r -> r.full_rev | None -> []

let op_index t = t.op_index

let origin t = t.origin

let record t e =
  let i = t.count in
  let pos = i land (chunk - 1) in
  if i >= chunk then begin
    if pos = 0 then begin
      let r = rare t in
      r.full_rev <- t.events_arr :: r.full_rev;
      t.events_arr <- Array.make chunk e
    end
  end
  else begin
    let cap = Array.length t.events_arr in
    if i >= cap then begin
      let arr = Array.make (if cap = 0 then 16 else 2 * cap) e in
      Array.blit t.events_arr 0 arr 0 i;
      t.events_arr <- arr
    end
  end;
  t.events_arr.(pos) <- e;
  t.count <- i + 1

(* Events in the current chunk. *)
let current_len t =
  match full_rev t with
  | [] -> t.count
  | _ :: _ -> ((t.count - 1) land (chunk - 1)) + 1

(* The iterators below are top-level functions taking [f], not local
   closures over it, so a walk allocates nothing: the Hot Spot monitor
   walks every operation's trace. *)
let rec iter_full f = function
  | [] -> ()
  | c :: older ->
      iter_full f older;
      Array.iter f c

(* [f] on every event, chronological. *)
let iter_events f t =
  iter_full f (full_rev t);
  for i = 0 to current_len t - 1 do
    f t.events_arr.(i)
  done

let events t =
  let acc = ref [] in
  for i = current_len t - 1 downto 0 do
    acc := t.events_arr.(i) :: !acc
  done;
  List.fold_left
    (fun acc c -> Array.fold_right List.cons c acc)
    !acc (full_rev t)

let message_count t = t.count

let record_fault t f =
  let r = rare t in
  r.faults_rev <- f :: r.faults_rev

let faults_rev t = match t.rare with Some r -> r.faults_rev | None -> []

let faults t = List.rev (faults_rev t)

let fault_count t = List.length (faults_rev t)

let fault_kind_label = function
  | Dropped -> "dropped"
  | Duplicated -> "duplicated"
  | Crashed -> "crashed"
  | Recovered -> "recovered"
  | Turned_byzantine -> "byzantine"
  | Corrupted -> "corrupted"

let duration t =
  if t.count = 0 then 0.
  else t.events_arr.(current_len t - 1).time -. t.start_time

module Int_set = Set.Make (Int)

let ends_of_chunk f c len =
  for i = 0 to len - 1 do
    let e = c.(i) in
    f e.dst;
    f e.src
  done

let rec ends_of_full f = function
  | [] -> ()
  | c :: older ->
      ends_of_full f older;
      ends_of_chunk f c chunk

let iter_processors f t =
  f t.origin;
  ends_of_full f (full_rev t);
  ends_of_chunk f t.events_arr (current_len t)

let processor_set t =
  let acc = ref Int_set.empty in
  iter_processors (fun p -> acc := Int_set.add p !acc) t;
  !acc

let processors t = Int_set.elements (processor_set t)

let touches t q = Int_set.mem q (processor_set t)

let intersects a b =
  not (Int_set.is_empty (Int_set.inter (processor_set a) (processor_set b)))

let pp ppf t =
  Format.fprintf ppf "@[<v>op #%d initiated by processor %d (%d messages)@,"
    t.op_index t.origin t.count;
  iter_events
    (fun e ->
      Format.fprintf ppf "  %4d -(%s)-> %-4d @@ t=%.3f@," e.src e.tag e.dst
        e.time)
    t;
  List.iter
    (fun f ->
      Format.fprintf ppf "  %4d ~(%s)~> %-4d @@ t=%.3f@," f.fault_src
        (fault_kind_label f.kind) f.fault_dst f.fault_time)
    (faults t);
  Format.fprintf ppf "@]"

let pp_compact ppf t =
  Format.fprintf ppf "op#%d p%d:" t.op_index t.origin;
  iter_events (fun e -> Format.fprintf ppf " %d>%d" e.src e.dst) t

let pp_lanes ppf t =
  let procs = processors t in
  let lane_width = 8 in
  let column =
    let table = Hashtbl.create 16 in
    List.iteri (fun i p -> Hashtbl.replace table p i) procs;
    fun p -> Hashtbl.find table p
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%s@,"
    (String.concat ""
       (List.map
          (fun p -> Printf.sprintf "%-*s" lane_width ("p" ^ string_of_int p))
          procs));
  iter_events
    (fun e ->
      let a = column e.src and b = column e.dst in
      let lo = min a b and hi = max a b in
      let line = Bytes.make (lane_width * List.length procs) ' ' in
      for i = (lo * lane_width) + 1 to (hi * lane_width) - 1 do
        Bytes.set line i '-'
      done;
      Bytes.set line (a * lane_width) '*';
      Bytes.set line (b * lane_width) (if b > a then '>' else '<');
      (* Self-sends: both roles on one lane. *)
      if a = b then Bytes.set line (a * lane_width) '@';
      Format.fprintf ppf "%s %s t=%.1f@," (Bytes.to_string line) e.tag e.time)
    t;
  Format.fprintf ppf "@]"

let to_dot t =
  (* One DAG node per processor occurrence: a processor that receives a
     message after it already sent from its current occurrence starts a
     new occurrence (e.g. the initiator reappearing to receive the
     value). *)
  let buf = Buffer.create 512 in
  let current : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let has_outgoing : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let next_occ = ref 0 in
  let fresh proc =
    let occ = !next_occ in
    incr next_occ;
    Hashtbl.replace current proc occ;
    Buffer.add_string buf
      (Printf.sprintf "  o%d [label=\"%d\"];\n" occ proc);
    occ
  in
  let occurrence_for_send proc =
    match Hashtbl.find_opt current proc with
    | Some occ -> occ
    | None -> fresh proc
  in
  let occurrence_for_receive proc =
    match Hashtbl.find_opt current proc with
    | Some occ when not (Hashtbl.mem has_outgoing occ) -> occ
    | Some _ | None -> fresh proc
  in
  Buffer.add_string buf "digraph inc_process {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=circle];\n";
  ignore (fresh t.origin);
  iter_events
    (fun e ->
      let src_occ = occurrence_for_send e.src in
      Hashtbl.replace has_outgoing src_occ ();
      let dst_occ = occurrence_for_receive e.dst in
      Buffer.add_string buf
        (Printf.sprintf "  o%d -> o%d [label=\"%s@%.1f\"];\n" src_occ dst_occ
           e.tag e.time))
    t;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
