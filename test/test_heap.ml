(* Property tests for the structure-of-arrays 4-ary event heap: the model
   is a stable sort by (priority, insertion order), which is exactly the
   delivery-order contract the discrete-event engine relies on. *)

let check = Alcotest.check

module Heap = Sim.Heap

(* Reference model: stable sort on priority preserves insertion order of
   ties, like the heap's sequence numbers. *)
let model_of items =
  List.stable_sort (fun (p1, _) (p2, _) -> compare (p1 : float) p2) items

let drain h =
  let rec go acc =
    match Heap.pop h with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let prop_pop_matches_model =
  QCheck2.Test.make ~name:"destructive pops = stable sort by priority"
    ~count:300
    QCheck2.Gen.(list (pair (float_bound_inclusive 100.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) items;
      drain h = model_of items)

let prop_to_sorted_list_matches_model =
  QCheck2.Test.make ~name:"to_sorted_list = model, non-destructively"
    ~count:200
    QCheck2.Gen.(list (pair (float_bound_inclusive 10.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) items;
      let sorted = Heap.to_sorted_list h in
      sorted = model_of items
      && Heap.size h = List.length items
      && drain h = sorted)

let prop_equal_prio_is_fifo =
  QCheck2.Test.make ~name:"equal priorities pop in insertion order"
    ~count:100
    QCheck2.Gen.(int_range 1 300)
    (fun count ->
      let h = Heap.create () in
      for v = 1 to count do
        (* Only two distinct priorities: maximal tie pressure. *)
        Heap.push h ~prio:(float_of_int (v mod 2)) v
      done;
      let evens, odds =
        List.partition (fun (p, _) -> p = 0.) (drain h)
      in
      let values l = List.map snd l in
      values evens = List.filter (fun v -> v mod 2 = 0) (List.init count (fun i -> i + 1))
      && values odds = List.filter (fun v -> v mod 2 = 1) (List.init count (fun i -> i + 1)))

(* Interleaved pushes and pops against a running reference model. *)
let prop_interleaved_ops_match_model =
  QCheck2.Test.make ~name:"interleaved push/pop tracks the model" ~count:200
    QCheck2.Gen.(list (pair (option (float_bound_inclusive 50.)) small_int))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | Some prio ->
              Heap.push h ~prio v;
              model := !model @ [ (prio, !seq, v) ];
              incr seq;
              model :=
                List.stable_sort
                  (fun (p1, s1, _) (p2, s2, _) ->
                    if p1 <> p2 then compare (p1 : float) p2
                    else compare (s1 : int) s2)
                  !model
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> ()
              | Some (p, v), (mp, _, mv) :: rest ->
                  if p <> mp || v <> mv then ok := false;
                  model := rest
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      !ok && Heap.size h = List.length !model)

let prop_clear_and_regrow =
  QCheck2.Test.make ~name:"clear resets FIFO ties and capacity regrows"
    ~count:50
    QCheck2.Gen.(pair (int_range 1 100) (int_range 1 100))
    (fun (first, second) ->
      let h = Heap.create () in
      for v = 1 to first do
        Heap.push h ~prio:1.0 v
      done;
      Heap.clear h;
      (* After clear the sequence counter restarts, so a fresh all-ties
         batch must still pop FIFO. *)
      for v = 1 to second do
        Heap.push h ~prio:2.0 v
      done;
      Heap.is_empty h = false
      && List.map snd (drain h) = List.init second (fun i -> i + 1))

(* Mixed operation sequences against a (prio, insertion order) sorted-list
   model. [Push_up d] pushes [d] above the previous push (monotone: it
   joins the FIFO lane when the lane's tail allows), [Push p] pushes an
   arbitrary grid priority (often below the lane's tail: the heap part);
   both produce equal priorities. Every step checks size, peek, iter and
   to_sorted_list, so both parts are observed together. *)
type op = Push of float | Push_up of float | Pop | Pop_top | Clear

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> Push (float_of_int i *. 0.5)) (int_range 0 10));
        (3, map (fun i -> Push_up (float_of_int i *. 0.5)) (int_range 0 2));
        (2, return Pop);
        (2, return Pop_top);
        (1, return Clear);
      ])

let prop_mixed_ops_match_model =
  QCheck2.Test.make ~name:"monotone and non-monotone pushes track the model"
    ~count:300 QCheck2.Gen.(list_size (int_range 0 200) gen_op)
    (fun ops ->
      let h = Heap.create () in
      (* ascending (prio, insertion order); values are insertion indices *)
      let model = ref [] in
      let next = ref 0 and last = ref 0. in
      let insert prio =
        let v = !next in
        incr next;
        last := prio;
        Heap.push h ~prio v;
        let rec ins = function
          | (p, _) as e :: rest when p <= prio -> e :: ins rest
          | l -> (prio, v) :: l
        in
        model := ins !model
      in
      let consistent () =
        let by_prio_value =
          List.sort (fun (p1, v1) (p2, v2) ->
              match Float.compare p1 p2 with 0 -> Int.compare v1 v2 | c -> c)
        in
        let seen = ref [] in
        Heap.iter (fun p v -> seen := (p, v) :: !seen) h;
        Heap.size h = List.length !model
        && Heap.is_empty h = (!model = [])
        && Heap.peek h = (match !model with [] -> None | e :: _ -> Some e)
        && Heap.to_sorted_list h = !model
        && by_prio_value !seen = by_prio_value !model
      in
      List.for_all
        (fun op ->
          let popped_ok =
            match op with
            | Push p ->
                insert p;
                true
            | Push_up d ->
                insert (!last +. d);
                true
            | Pop -> (
                match (Heap.pop h, !model) with
                | None, [] -> true
                | Some e, m :: rest ->
                    model := rest;
                    e = m
                | Some _, [] | None, _ :: _ -> false)
            | Pop_top -> (
                match !model with
                | [] -> Heap.is_empty h
                | (p, v) :: rest ->
                    model := rest;
                    let top = Heap.top_prio h in
                    top = p && Heap.pop_top h = v)
            | Clear ->
                Heap.clear h;
                model := [];
                true
          in
          popped_ok && consistent ())
        ops)

(* ------------------------------------------------------------------ *)
(* retention *)

(* Pushes boxed values into both parts, pops some, clears the rest, and
   records each in [w]. Not inlined, so none of the values survives in
   the caller's frame. *)
let[@inline never] push_pop_clear h w =
  let value i = Bytes.make 16 (Char.chr (Char.code 'a' + i)) in
  let values = Array.init 6 value in
  Array.iteri (fun i v -> Weak.set w i (Some v)) values;
  (* 5. then 6. join the lane; 1., 3., 2. are below its tail: heap part. *)
  List.iteri
    (fun i prio -> Heap.push h ~prio values.(i))
    [ 5.; 6.; 1.; 3.; 2. ];
  for _ = 1 to 4 do
    ignore (Heap.pop_top h)
  done;
  (* Left in the lane and cleared: 6., plus one more in the heap part. *)
  Heap.push h ~prio:0.5 values.(5);
  Heap.clear h

let test_popped_values_are_collected () =
  let h = Heap.create () in
  (* The first value ever pushed is the filler, retained for the heap's
     lifetime by design. *)
  Heap.push h ~prio:0. (Bytes.make 16 'f');
  ignore (Heap.pop_top h);
  let w = Weak.create 6 in
  push_pop_clear h w;
  Gc.full_major ();
  for i = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "value %d collected" i)
      false (Weak.check w i)
  done;
  Heap.push h ~prio:1. (Bytes.make 16 'z');
  check Alcotest.int "still usable" 1 (Heap.size h)

(* ------------------------------------------------------------------ *)
(* unit tests for the new accessors *)

let test_capacity_presize () =
  let h : int Heap.t = Heap.create ~capacity:64 () in
  check Alcotest.int "pre-sized" 64 (Heap.capacity h);
  for v = 1 to 64 do
    Heap.push h ~prio:(float_of_int v) v
  done;
  check Alcotest.int "no growth at fill" 64 (Heap.capacity h);
  Heap.push h ~prio:0.5 65;
  check Alcotest.int "doubled" 128 (Heap.capacity h)

let test_capacity_growth_from_empty () =
  let h = Heap.create () in
  check Alcotest.int "empty capacity" 0 (Heap.capacity h);
  for v = 1 to 100 do
    Heap.push h ~prio:(float_of_int (100 - v)) v
  done;
  Alcotest.(check bool) "grew" true (Heap.capacity h >= 100);
  check Alcotest.int "size" 100 (Heap.size h)

let test_iter_visits_all () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:(float_of_int v) v) [ 5; 3; 9; 1 ];
  let seen = ref [] in
  Heap.iter (fun p v -> seen := (p, v) :: !seen) h;
  check Alcotest.int "visited all" 4 (List.length !seen);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "saw %d" v)
        true
        (List.mem (float_of_int v, v) !seen))
    [ 5; 3; 9; 1 ]

let test_pop_top_matches_pop () =
  let h = Heap.create () in
  List.iter
    (fun (p, v) -> Heap.push h ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  check (Alcotest.float 0.0) "top_prio" 1. (Heap.top_prio h);
  check Alcotest.string "pop_top" "a" (Heap.pop_top h);
  (match Heap.pop h with
  | Some (p, v) ->
      check (Alcotest.float 0.0) "next prio" 2. p;
      check Alcotest.string "next value" "b" v
  | None -> Alcotest.fail "expected element");
  check Alcotest.string "last" "c" (Heap.pop_top h);
  Alcotest.check_raises "top_prio empty"
    (Invalid_argument "Heap.top_prio: empty heap") (fun () ->
      ignore (Heap.top_prio h));
  Alcotest.check_raises "pop_top empty"
    (Invalid_argument "Heap.pop_top: empty heap") (fun () ->
      ignore (Heap.pop_top h))

let test_to_sorted_list_keeps_heap_intact () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:(float_of_int v) v) [ 2; 1; 3 ];
  ignore (Heap.to_sorted_list h);
  check Alcotest.int "size unchanged" 3 (Heap.size h);
  check (Alcotest.float 0.0) "min unchanged" 1. (Heap.top_prio h)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "heap"
    [
      ( "model",
        [
          q prop_pop_matches_model;
          q prop_to_sorted_list_matches_model;
          q prop_equal_prio_is_fifo;
          q prop_interleaved_ops_match_model;
          q prop_clear_and_regrow;
          q prop_mixed_ops_match_model;
        ] );
      ( "retention",
        [
          Alcotest.test_case "popped and cleared values are collected" `Quick
            test_popped_values_are_collected;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "capacity pre-size" `Quick test_capacity_presize;
          Alcotest.test_case "capacity growth" `Quick
            test_capacity_growth_from_empty;
          Alcotest.test_case "iter" `Quick test_iter_visits_all;
          Alcotest.test_case "pop_top / top_prio" `Quick
            test_pop_top_matches_pop;
          Alcotest.test_case "to_sorted_list non-destructive" `Quick
            test_to_sorted_list_keeps_heap_intact;
        ] );
    ]
