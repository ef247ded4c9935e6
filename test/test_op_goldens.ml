(* Pinned operation-path goldens for the batch and failure-aware paths of
   the message-passing baselines.

   Every expected string below was produced by the implementation in
   which each counter still carried its own sequential [inc], its own
   [run_batch] copy and (for the quorum counter) a separate sequential
   client state machine. The shared operation kernel must reproduce them
   byte for byte: same values, same completion instants (printed as hex
   floats, so no rounding can hide a drift), same per-processor load
   vector (Metrics.checksum) and same protocol tallies.

   Long renderings are pinned by their MD5 next to a few plain figures,
   so a failure still says which quantity moved. *)

let check = Alcotest.check

let hex f = Printf.sprintf "%h" f

let digest s = Digest.to_hex (Digest.string s)

let pairs ps =
  String.concat ";" (List.map (fun (o, v) -> Printf.sprintf "%d:%d" o v) ps)

let by_origin ps = List.sort compare ps

let history ops =
  String.concat ";"
    (List.map
       (fun (o : Counter.History.op) ->
         Printf.sprintf "%d:%d@%s-%s" o.origin o.value (hex o.invoked_at)
           (hex o.completed_at))
       ops)

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* ------------------------------------------------------------------ *)
(* Combining tree. Batch results are compared as origin-sorted pairs:
   an origin appears at most once per batch, so the pairs determine the
   batch's outcome whatever order they are listed in. *)

let test_combining_small () =
  let module C = Baselines.Combining_tree in
  let c = C.create ~n:16 () in
  let full = by_origin (C.run_batch c ~origins:(range 1 16)) in
  let r1 = by_origin (C.run_batch c ~origins:[ 1; 2; 3 ]) in
  let r2 = by_origin (C.run_batch c ~origins:[ 9; 16 ]) in
  let seq = C.inc c ~origin:5 in
  check Alcotest.string "full batch"
    "1:0;2:1;3:2;4:3;5:4;6:5;7:6;8:7;9:8;10:9;11:10;12:11;13:12;14:13;15:14;16:15"
    (pairs full);
  check Alcotest.string "partial batch 1" "1:16;2:17;3:18" (pairs r1);
  check Alcotest.string "partial batch 2" "9:19;16:20" (pairs r2);
  check Alcotest.int "sequential after batches" 21 seq;
  check Alcotest.int "combined" 17 (C.combined_requests c);
  check Alcotest.int "uncombined" 16 (C.uncombined_requests c);
  check Alcotest.string "rate" "0x1.07c1f07c1f07cp-1" (hex (C.combining_rate c));
  check Alcotest.int "checksum" 1666747863061963451
    (Sim.Metrics.checksum (C.metrics c))

let test_combining_exp () =
  let module C = Baselines.Combining_tree in
  let c = C.create ~n:64 ~seed:7 ~delay:(Sim.Delay.Exponential 1.0) () in
  let rendered =
    String.concat "|"
      (List.init 8 (fun b ->
           pairs
             (by_origin
                (C.run_batch c ~origins:(range ((8 * b) + 1) ((8 * b) + 8))))))
  in
  check Alcotest.string "batches" "a35f7952f2e9652966afd4858f686107"
    (digest rendered);
  check Alcotest.int "combined" 45 (C.combined_requests c);
  check Alcotest.int "uncombined" 98 (C.uncombined_requests c);
  check Alcotest.string "rate" "0x1.423cddfc6b69ap-2" (hex (C.combining_rate c));
  check Alcotest.int "checksum" 1515763430054916991
    (Sim.Metrics.checksum (C.metrics c))

(* ------------------------------------------------------------------ *)
(* Counting network: results in completion order, as documented. *)

let test_counting_net_batch () =
  let module N = Baselines.Counting_network in
  let c = N.create_width ~n:64 ~width:8 () in
  let r = N.run_batch c ~origins:(range 1 64) in
  check Alcotest.string "batch" "40b253bac0643b17d153989c16b8fc36"
    (digest (pairs r));
  check Alcotest.string "first pairs" "1:0;2:1;3:2"
    (pairs (List.filteri (fun i _ -> i < 3) r));
  check Alcotest.int "value" 64 (N.value c);
  check Alcotest.int "checksum" 697896527946910127
    (Sim.Metrics.checksum (N.metrics c))

let test_counting_net_timed () =
  let module N = Baselines.Counting_network in
  let c =
    N.create_width ~n:64 ~width:8 ~delay:(Sim.Delay.Exponential 1.0) ~seed:3 ()
  in
  let h = N.run_batch_timed c ~stagger:0.5 ~origins:(range 1 64) () in
  check Alcotest.int "ops" 64 (List.length h);
  check Alcotest.string "history" "c1fbc2ae6574f9b02d2e8f248cdd05e0"
    (digest (history h));
  check Alcotest.string "first ops"
    "1:0@0x0p+0-0x1.a9ec4b5a59c3ap+1;7:4@0x1.8p+1-0x1.dd16402b39278p+2"
    (history (List.filteri (fun i _ -> i < 2) h));
  check Alcotest.bool "linearizable" true (Counter.History.is_linearizable h);
  check Alcotest.int "value" 64 (N.value c);
  check Alcotest.int "checksum" 697896527946910127
    (Sim.Metrics.checksum (N.metrics c))

(* ------------------------------------------------------------------ *)
(* Diffracting tree. *)

let test_diffracting_batches () =
  let module D = Baselines.Diffracting_tree in
  let c = D.create_width ~n:64 ~width:8 () in
  let rendered =
    String.concat "|"
      (List.init 4 (fun b ->
           pairs (D.run_batch c ~origins:(range ((16 * b) + 1) ((16 * b) + 16)))))
  in
  check Alcotest.string "batches" "48ea2265735a0629cceacb315e8d749a"
    (digest rendered);
  check Alcotest.int "diffractions" 96 (D.diffractions c);
  check Alcotest.int "toggle hits" 0 (D.toggle_hits c);
  check Alcotest.int "value" 64 (D.value c);
  check Alcotest.int "checksum" 473682229775901263 (Sim.Metrics.checksum (D.metrics c))

let test_diffracting_timed () =
  let module D = Baselines.Diffracting_tree in
  let c =
    D.create_width ~n:64 ~width:8 ~delay:(Sim.Delay.Exponential 1.0) ~seed:3 ()
  in
  let h = D.run_batch_timed c ~stagger:0.5 ~origins:(range 1 64) () in
  check Alcotest.int "ops" 64 (List.length h);
  check Alcotest.string "history" "021c584c8f7755fcf12a1bc0ffcf811b"
    (digest (history h));
  check Alcotest.string "first ops"
    "3:3@0x1p+0-0x1.15b086735ebdep+2;2:1@0x1p-1-0x1.588c04f13aec8p+2"
    (history (List.filteri (fun i _ -> i < 2) h));
  check Alcotest.int "diffractions" 75 (D.diffractions c);
  check Alcotest.int "toggle hits" 42 (D.toggle_hits c);
  check Alcotest.int "value" 64 (D.value c);
  check Alcotest.int "checksum" 473682229775901263 (Sim.Metrics.checksum (D.metrics c))

(* ------------------------------------------------------------------ *)
(* Retirement tree (its batch path is its own, pinned alongside). *)

let test_retire_batch () =
  let module R = Core.Retire_counter in
  let c = R.create ~n:81 () in
  let r = R.run_batch c ~origins:(range 1 81) in
  check Alcotest.string "batch" "64c1cfe2a2088cc4cc14d4193521a2a9"
    (digest (pairs r));
  check Alcotest.int "value" 81 (R.value c);
  check Alcotest.int "checksum" 942503656322725283 (Sim.Metrics.checksum (R.metrics c))

let test_retire_timed () =
  let module R = Core.Retire_counter in
  let c = R.create ~n:81 ~delay:(Sim.Delay.Exponential 1.0) ~seed:3 () in
  let h = R.run_batch_timed c ~stagger:0.5 ~origins:(range 1 81) () in
  check Alcotest.int "ops" 81 (List.length h);
  check Alcotest.string "history" "4e208363fc661942cbac5a403216442c"
    (digest (history h));
  check Alcotest.string "first ops"
    "1:0@0x0p+0-0x1.61e43e80cd2ffp+1;2:1@0x1p-1-0x1.ed710528030e8p+1"
    (history (List.filteri (fun i _ -> i < 2) h));
  check Alcotest.bool "linearizable" true (Counter.History.is_linearizable h);
  check Alcotest.int "checksum" 4421161699233959322 (Sim.Metrics.checksum (R.metrics c))

(* ------------------------------------------------------------------ *)
(* Quorum-majority, sequential, under the crash plans of
   [dcount chaos -c quorum-majority -n 9 --crashes 0,1,2,3,4 --ops 18
   --seed 42]: the same victims and delivery-count triggers, the same
   round-robin origins skipping crashed ones. *)

module QM = Baselines.Quorum_counter.Make (Quorum.Majority)

let chaos_row ~base_total f =
  let n = 9 and seed = 42 and ops = 18 in
  let rng = Sim.Rng.create ~seed:(seed lxor (f * 7919) lxor 104729) in
  let perm = Sim.Rng.permutation rng n in
  let crashes =
    List.init (min f n) (fun i ->
        {
          Sim.Fault.processor = perm.(i) + 1;
          trigger = Sim.Fault.After (1 + Sim.Rng.int rng (max 1 base_total));
        })
  in
  let c = QM.create ~seed ~faults:{ Sim.Fault.none with crashes } ~n () in
  let origin = ref 0 in
  let outcomes =
    List.init ops (fun _ ->
        let rec advance tries =
          origin := (!origin mod n) + 1;
          if QM.crashed c !origin && tries < n then advance (tries + 1)
        in
        advance 0;
        if QM.crashed c !origin then "skip"
        else
          Format.asprintf "%d=%a" !origin Counter.Counter_intf.pp_outcome
            (QM.inc_result c ~origin:!origin))
  in
  Printf.sprintf "f=%d %s retries=%d fallbacks=%d value=%d checksum=%d" f
    (String.concat "," outcomes) (QM.retries c) (QM.fallbacks c) (QM.value c)
    (Sim.Metrics.checksum (QM.metrics c))

let test_quorum_chaos_plans () =
  let baseline = QM.create ~seed:42 ~n:9 () in
  for i = 0 to 17 do
    ignore (QM.inc baseline ~origin:((i mod 9) + 1))
  done;
  let base_total = Sim.Metrics.total_messages (QM.metrics baseline) in
  check Alcotest.int "baseline messages" 288 base_total;
  let expected =
    [
      "f=0 1=0,2=1,3=2,4=3,5=4,6=5,7=6,8=7,9=8,1=9,2=10,3=11,4=12,5=13,6=14,7=15,8=16,9=17 retries=0 fallbacks=0 value=18 checksum=1703516350891722882";
      "f=1 1=0,2=1,4=2,5=3,6=4,7=5,8=6,9=7,1=8,2=9,4=10,5=11,6=12,7=13,8=14,9=15,1=16,2=17 retries=4 fallbacks=0 value=18 checksum=1148791387944055209";
      "f=2 1=0,2=1,3=2,4=stalled(Quorum_counter.inc: origin crashed mid-operation),5=4,6=5,7=6,8=7,9=8,1=9,2=10,3=11,5=12,6=13,7=14,8=15,1=16,2=17 retries=15 fallbacks=8 value=17 checksum=1454111375936286286";
      "f=3 1=0,2=1,3=2,4=3,7=4,8=5,9=6,1=7,2=8,3=9,4=10,7=11,9=12,1=13,2=14,3=15,4=16,7=17 retries=12 fallbacks=0 value=18 checksum=1708770843741541554";
      "f=4 1=0,2=1,3=2,4=stalled(Quorum_counter.inc: origin crashed mid-operation),5=3,6=4,7=5,8=6,9=7,1=stalled(Quorum_counter.inc: origin crashed mid-operation),2=8,3=9,6=10,7=11,8=12,2=13,3=14,6=15 retries=12 fallbacks=8 value=16 checksum=1238464037930927314";
    ]
  in
  List.iteri
    (fun f want ->
      check Alcotest.string (Printf.sprintf "f=%d" f) want
        (chaos_row ~base_total f))
    expected

let () =
  Alcotest.run "op_goldens"
    [
      ( "batch",
        [
          Alcotest.test_case "combining n=16" `Quick test_combining_small;
          Alcotest.test_case "combining n=64 exp" `Quick test_combining_exp;
          Alcotest.test_case "counting-net batch" `Quick test_counting_net_batch;
          Alcotest.test_case "counting-net timed" `Quick test_counting_net_timed;
          Alcotest.test_case "diffracting batches" `Quick
            test_diffracting_batches;
          Alcotest.test_case "diffracting timed" `Quick test_diffracting_timed;
          Alcotest.test_case "retire-tree batch" `Quick test_retire_batch;
          Alcotest.test_case "retire-tree timed" `Quick test_retire_timed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "quorum-majority chaos plans" `Quick
            test_quorum_chaos_plans;
        ] );
    ]
