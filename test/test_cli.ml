(* Exit-code contract of the dcount binary: the chaos and mc subcommands
   drive these from CI, so the codes are load-bearing. The test runs the
   real executable (a dune dep of this stanza) from the build sandbox. *)

let dcount = Filename.concat ".." (Filename.concat "bin" "dcount.exe")

let tmp = Filename.get_temp_dir_name ()

let run ?(quiet = true) args =
  let silence = if quiet then " >/dev/null 2>/dev/null" else "" in
  Sys.command (Filename.quote dcount ^ " " ^ args ^ silence)

let check_exit name expected args =
  Alcotest.(check int) name expected (run args)

(* ------------------------------------------------------------------ *)
(* dcount mc *)

let test_mc_exhausted_ok () =
  check_exit "central n=4 exhausts cleanly" 0 "mc -c central -n 4";
  check_exit "static-tree n=4 exhausts cleanly" 0 "mc -c static-tree -n 4"

let test_mc_explicit_schedule () =
  check_exit "retire-tree, 3 explicit ops" 0
    "mc -c retire-tree -n 8 -s explicit:1,8,4"

let test_mc_violation_exit_codes () =
  check_exit "race-reply violation = exit 1" 1 "mc -c race-reply -n 3";
  check_exit "--expect-violation inverts it" 0
    "mc -c race-reply -n 3 --expect-violation";
  check_exit "--expect-violation on a clean counter = exit 1" 1
    "mc -c central -n 3 --expect-violation";
  check_exit "amnesiac violation" 0 "mc -c amnesiac -n 4 --expect-violation"

let test_mc_budget_exit_code () =
  check_exit "blown state budget = exit 3" 3
    "mc -c retire-tree -n 8 --max-states 50"

let test_mc_replay_stored () =
  check_exit "stored counterexample reproduces" 0
    "mc --replay data/race_reply_n3.mcs"

let test_mc_replay_bad_file () =
  check_exit "missing file = exit 2" 2 "mc --replay data/no_such_file.mcs";
  let bad = Filename.concat tmp "dcount_cli_bad.mcs" in
  Out_channel.with_open_text bad (fun oc ->
      Out_channel.output_string oc "counter=central\nnot a field\n");
  Fun.protect
    ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      check_exit "unparseable file = exit 2" 2
        ("mc --replay " ^ Filename.quote bad))

let test_mc_counterexample_round_trip () =
  let out = Filename.concat tmp "dcount_cli_cx.mcs" in
  (try Sys.remove out with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      check_exit "find and write counterexample" 0
        ("mc -c race-reply -n 3 --expect-violation --counterexample-out "
        ^ Filename.quote out);
      Alcotest.(check bool) "file written" true (Sys.file_exists out);
      (* The freshly generated counterexample must match the stored one
         byte for byte — same canonical form, same deterministic search. *)
      let slurp p = In_channel.with_open_text p In_channel.input_all in
      Alcotest.(check string)
        "canonical bytes" (slurp "data/race_reply_n3.mcs") (slurp out);
      check_exit "and it replays" 0 ("mc --replay " ^ Filename.quote out))

let test_mc_all_table () =
  (* Broken counters violate but are annotated; exit stays 0. A tight
     budget keeps the tree counters from blowing the CI clock. *)
  check_exit "--all sweep" 0 "mc --all -n 3 --max-states 20000"

let test_mc_prune_none () =
  check_exit "--prune none still exhausts" 0 "mc -c central -n 3 --prune none";
  check_exit "bad prune mode = exit 2" 2 "mc -c central -n 3 --prune bogus"

let test_mc_probabilistic_faults_rejected () =
  (* Invalid_argument escapes as a crash, not 0/1/3 — any of the cmdliner
     error codes is acceptable; it must not look like a verdict. *)
  let code = run "mc -c central -n 3 --faults drop:0.5" in
  Alcotest.(check bool)
    (Printf.sprintf "drop plan rejected (exit %d)" code)
    true
    (code <> 0 && code <> 1 && code <> 3)

let test_mc_crash_faults () =
  check_exit "adversarial crash exploration" 0
    "mc -c central -n 3 --faults crash:1@99"

let test_mc_retire_ft () =
  (* Fault-free, the failure-aware tree is bit-identical to retire-tree,
     so the same explicit schedule exhausts. *)
  check_exit "retire-ft fault-free" 0 "mc -c retire-ft -n 8 -s explicit:1,8,4";
  (* Under a crash adversary the audit's timer interleavings are
     intractable exhaustively: without --allow-incomplete the bounded
     sweep reports exit 3, with it the clean bounded verdict is 0. *)
  check_exit "crash adversary, bounded = exit 3" 3
    "mc -c retire-ft -n 8 -s explicit:2 --faults crash:1@99 --max-depth 4 \
     --max-states 2000";
  check_exit "--allow-incomplete accepts the bounded verdict" 0
    "mc -c retire-ft -n 8 -s explicit:2 --faults crash:1@99 --max-depth 4 \
     --max-states 2000 --allow-incomplete";
  (* A failed hunt is never a success, bounded or not. *)
  check_exit "--expect-violation still fails on budget" 3
    "mc -c retire-ft -n 8 -s explicit:2 --faults crash:1@99 --max-depth 4 \
     --max-states 2000 --allow-incomplete --expect-violation";
  (* recover clauses are adversarial now: the revival time is ignored
     and the explorer branches over reviving the crashed victim at every
     decision point. *)
  check_exit "recover adversary, bounded" 0
    "mc -c retire-ft -n 8 -s explicit:2 --faults crash:1@99/recover:1@120 \
     --max-depth 4 --max-states 2000 --allow-incomplete"

let test_mc_ft_no_handoff_stored () =
  let out = Filename.concat tmp "dcount_cli_ft_cx.mcs" in
  (try Sys.remove out with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      check_exit "crash adversary finds the duplicate" 0
        ("mc -c ft-no-handoff -n 8 -s explicit:2,5 --faults crash:1@99 \
          --max-depth 6 --expect-violation --counterexample-out "
        ^ Filename.quote out);
      let slurp p = In_channel.with_open_text p In_channel.input_all in
      Alcotest.(check string)
        "canonical bytes match the stored negative control"
        (slurp "data/ft_no_handoff_n8.mcs")
        (slurp out));
  check_exit "stored counterexample replays" 0
    "mc --replay data/ft_no_handoff_n8.mcs"

let test_mc_durable () =
  (* Fault-free the durable counter's space is tiny and clean. *)
  check_exit "durable fault-free exhausts" 0
    "mc -c durable -n 2 -s explicit:2,2";
  (* Crash/recover adversary with the CounterProgress check on: bounded
     clean. *)
  check_exit "durable crash/recover bounded with --progress" 0
    "mc -c durable -n 2 -s explicit:2,2 --faults crash:1@99/recover:1@120 \
     --progress --max-depth 10 --max-states 5000 --allow-incomplete"

let test_mc_durable_no_cas_stored () =
  (* Regenerate the durable negative control with the hunt parameters
     the Makefile uses and compare byte-for-byte against the stored
     file — the CAS-is-load-bearing witness. *)
  let out = Filename.concat tmp "dcount_cli_durable_cx.mcs" in
  (try Sys.remove out with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      check_exit "recover adversary finds the manifest regression" 0
        ("mc -c durable-no-cas -n 2 -s explicit:2 --faults \
          crash:1@99/recover:1@120 --max-depth 10 --max-states 300000 \
          --expect-violation --counterexample-out "
        ^ Filename.quote out);
      let slurp p = In_channel.with_open_text p In_channel.input_all in
      Alcotest.(check string)
        "canonical bytes match the stored negative control"
        (slurp "data/durable_no_cas_n2.mcs")
        (slurp out));
  check_exit "stored counterexample replays" 0
    "mc --replay data/durable_no_cas_n2.mcs"

let test_mc_byz_property () =
  (* The corruption adversary splits the guard-stripped control on the
     very first execution; --property pins the verdict to the agreement
     invariant specifically. *)
  let hunt =
    "mc -c sync-no-threshold -n 4 -s explicit:1 --faults \
     byz:2@99/byzval:2:off-by-1/byzeq:2 --max-depth 100"
  in
  check_exit "hunt finds agreement-violated" 0
    (hunt ^ " --expect-violation --property agreement-violated");
  check_exit "--property mismatch = exit 1" 1
    (hunt ^ " --expect-violation --property values-wrong");
  check_exit "unknown property name = exit 2" 2
    (hunt ^ " --expect-violation --property no-such-thing");
  (* The guarded counter survives the same adversary under a bounded
     budget. *)
  check_exit "sync-count survives the same hunt" 0
    "mc -c sync-count -n 4 -s explicit:1 --faults \
     byz:2@99/byzval:2:off-by-1/byzeq:2 --max-depth 100 --max-states 4000 \
     --allow-incomplete --property agreement-violated"

let test_mc_byz_usage_errors () =
  (* A payload-rewriting plan needs the corruption hook: counters
     without one are rejected up front, and --all never mixes hooked
     and hookless counters under one plan. *)
  check_exit "byzval plan on hookless counter = exit 2" 2
    "mc -c central -n 3 --faults byz:1@99/byzval:1:max-int";
  check_exit "--all with byzval plan = exit 2" 2
    "mc --all -n 3 --faults byz:1@99/byzval:1:max-int"

let test_mc_sync_no_threshold_stored () =
  (* Regenerate the Byzantine negative control with the Makefile's hunt
     parameters and compare byte-for-byte against the stored file — the
     round-3-threshold-is-load-bearing witness. *)
  let out = Filename.concat tmp "dcount_cli_sync_cx.mcs" in
  (try Sys.remove out with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      check_exit "corruption adversary splits the control" 0
        ("mc -c sync-no-threshold -n 4 -s explicit:1 --faults \
          byz:2@99/byzval:2:off-by-1/byzeq:2 --max-depth 100 \
          --expect-violation --property agreement-violated \
          --counterexample-out "
        ^ Filename.quote out);
      let slurp p = In_channel.with_open_text p In_channel.input_all in
      Alcotest.(check string)
        "canonical bytes match the stored negative control"
        (slurp "data/sync_no_threshold_n4.mcs")
        (slurp out));
  check_exit "stored counterexample replays" 0
    "mc --replay data/sync_no_threshold_n4.mcs"

(* ------------------------------------------------------------------ *)
(* dcount chaos *)

let test_chaos_check_ok () =
  check_exit "chaos --check on central" 0
    "chaos -c central -n 4 --crashes 0,1 --check";
  check_exit "chaos --check on quorum-majority" 0
    "chaos -c quorum-majority -n 5 --crashes 0,1,2 --check"

let test_chaos_plain_sweep () =
  check_exit "sweep without --check" 0 "chaos -c retire-tree -n 8 --crashes 0,1"

let test_chaos_recover () =
  check_exit "retire-ft --recover --check" 0
    "chaos -c retire-ft -n 8 --crashes 0,2 --recover --check";
  (* --recover output contract: rows report emergency retirements and
     actual revivals; the header echoes the flag. *)
  let out = Filename.concat tmp "dcount_cli_chaos_rec.txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Filename.quote dcount
          ^ " chaos -c retire-ft -n 8 --crashes 2 --recover --check > "
          ^ Filename.quote out ^ " 2>/dev/null")
      in
      Alcotest.(check int) "exit 0" 0 code;
      let s = In_channel.with_open_text out In_channel.input_all in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "recover flag echoed" true (contains "recover=true");
      Alcotest.(check bool) "revivals reported" true (contains "recovered="))

let test_chaos_durable () =
  (* The durable sweep's output contract: rows report WAL replays
     (replayed=) and the audited durable count instead of the amnesiac
     sweep's recovered=; --check asserts zero lost increments. Three
     victims at n = 4 guarantee the writer (p1) is among them, so at
     least one row actually replays. *)
  let out = Filename.concat tmp "dcount_cli_chaos_durable.txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Filename.quote dcount
          ^ " chaos --durable -n 4 --ops 40 --crashes 0,3 --recover --check \
             > "
          ^ Filename.quote out ^ " 2>/dev/null")
      in
      Alcotest.(check int) "exit 0" 0 code;
      let s = In_channel.with_open_text out In_channel.input_all in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "durable sweep header" true
        (contains "chaos sweep (durable)");
      Alcotest.(check bool) "WAL replays reported" true
        (contains "replayed=");
      Alcotest.(check bool) "audited durable count reported" true
        (contains "durable=");
      Alcotest.(check bool) "durable check line" true
        (contains "chaos check (durable): OK");
      Alcotest.(check bool) "no amnesiac recovered= note" false
        (contains "recovered="))

let test_chaos_byz_check () =
  (* The Byzantine sweep: sync-count must survive every b <= f budget,
     the guard-stripped control must split at every b >= 1 — both are
     --check verdicts with exit 0. *)
  check_exit "sync-count --byz --check" 0
    "chaos --byz -c sync-count -n 7 --check";
  check_exit "sync-no-threshold --byz --check" 0
    "chaos --byz -c sync-no-threshold -n 7 --check"

let test_chaos_byz_usage_errors () =
  (* Only byz-capable counters accept the sweep; --durable is a
     different engine entirely. *)
  check_exit "--byz on a hookless counter = exit 2" 2
    "chaos --byz -c retire-tree -n 8";
  check_exit "--byz --durable = exit 2" 2 "chaos --byz --durable -n 4"

let test_chaos_byz_output_shape () =
  let out = Filename.concat tmp "dcount_cli_chaos_byz.txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Filename.quote dcount
          ^ " chaos --byz -c sync-count -n 7 --byz-counts 0,2 --check > "
          ^ Filename.quote out ^ " 2>/dev/null")
      in
      Alcotest.(check int) "exit 0" 0 code;
      let s = In_channel.with_open_text out In_channel.input_all in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "byzantine sweep header" true
        (contains "chaos sweep (byzantine)");
      Alcotest.(check bool) "threshold column" true (contains "b<=f");
      Alcotest.(check bool) "corruption counts reported" true
        (contains "corrupted=");
      Alcotest.(check bool) "byzantine check line" true
        (contains "chaos check (byzantine): OK"))

let test_chaos_output_shape () =
  (* Smoke the stdout contract the docs quote: the check line and the
     baseline header must be present. *)
  let out = Filename.concat tmp "dcount_cli_chaos.txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Filename.quote dcount
          ^ " chaos -c central -n 4 --crashes 0 --check > "
          ^ Filename.quote out ^ " 2>/dev/null")
      in
      Alcotest.(check int) "exit 0" 0 code;
      let s = In_channel.with_open_text out In_channel.input_all in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "check line" true (contains "chaos check: OK");
      Alcotest.(check bool) "baseline line" true (contains "baseline:"))

(* ------------------------------------------------------------------ *)
(* dcount load *)

let test_load_check_passes () =
  (* Serialising and combining counters stay linearizable at the
     moderate-overlap rate; --check exits 0. *)
  check_exit "retire-tree --check" 0
    "load -c retire-tree -n 64 --rate 0.05 --ops 400 --seed 42 --check";
  check_exit "combining --check" 0
    "load -c combining -n 64 --rate 0.05 --ops 400 --seed 42 --check"

let test_load_check_fails_on_counting_net () =
  (* The negative control (docs/LOAD.md): the counting network's
     non-linearizability is observable at moderate overlap. *)
  check_exit "counting-net violation = exit 1" 1
    "load -c counting-net -n 64 --rate 0.05 --ops 1000 --seed 42 --check";
  (* Without --check the same run reports and exits 0. *)
  check_exit "no --check = exit 0" 0
    "load -c counting-net -n 64 --rate 0.05 --ops 1000 --seed 42"

let test_load_usage_errors () =
  check_exit "unknown counter = exit 2" 2 "load -c no-such-counter --check";
  check_exit "sequential-only counter = exit 2" 2 "load -c static-tree";
  check_exit "--rate and --arrivals together = exit 2" 2
    "load -c central --rate 1.0 --arrivals poisson:1.0";
  check_exit "bad arrivals grammar = exit 2" 2
    "load -c central --arrivals uniform:1";
  check_exit "non-positive rate = exit 2" 2 "load -c central --rate 0";
  check_exit "zero ops = exit 2" 2 "load -c central --ops 0";
  check_exit "unknown flag = exit 2" 2 "load --no-such-flag"

(* ------------------------------------------------------------------ *)
(* dcount lint *)

let fixture name = "lint/fixtures/" ^ name

let test_lint_exit_codes () =
  check_exit "clean file = exit 0" 0 ("lint " ^ fixture "d1_good.ml");
  check_exit "findings = exit 1" 1 ("lint " ^ fixture "d1_bad.ml");
  check_exit "rule catalogue = exit 0" 0 "lint --list"

let test_lint_usage_errors () =
  check_exit "unknown rule = exit 2" 2
    ("lint --rules d9 " ^ fixture "d1_good.ml");
  check_exit "missing path = exit 2" 2 "lint no/such/path";
  (* The test binary itself is always present and is certainly not .ml. *)
  check_exit "non-.ml explicit file = exit 2" 2 "lint test_cli.exe"

let test_lint_rule_selection () =
  (* d1_bad only violates D1; selecting another rule must report clean. *)
  check_exit "other rule on d1_bad = exit 0" 0
    ("lint --rules d2 " ^ fixture "d1_bad.ml");
  check_exit "matching rule fires" 1 ("lint --rules d1 " ^ fixture "d1_bad.ml");
  (* family names expand: drace = R1,R2,R3 *)
  check_exit "drace family fires on r1_bad" 1
    ("lint --rules drace " ^ fixture "r1_bad.ml");
  check_exit "drace family clean on r1_good" 0
    ("lint --rules drace " ^ fixture "r1_good.ml");
  check_exit "other family clean on r1_bad" 0
    ("lint --rules determinism " ^ fixture "r1_bad.ml")

let test_lint_json_format () =
  let out = Filename.concat tmp "dcount_cli_lint.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Filename.quote dcount ^ " lint --format json "
          ^ fixture "d2_bad.ml" ^ " > " ^ Filename.quote out ^ " 2>/dev/null")
      in
      Alcotest.(check int) "findings = exit 1" 1 code;
      let s = In_channel.with_open_text out In_channel.input_all in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i =
          i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "json payload names the rule" true
        (contains "\"D2\"");
      Alcotest.(check bool)
        "json payload carries the schema version" true
        (contains "\"schema\": \"dcount-lint/2\"");
      Alcotest.(check bool)
        "each diagnostic names its family" true
        (contains "\"family\": \"determinism\""))

(* Usage errors exit 2 on every subcommand — including flags cmdliner
   itself rejects, which it would otherwise report as 124. *)
let test_usage_errors_exit_2 () =
  check_exit "lint: bad --format = exit 2" 2
    ("lint --format bogus " ^ fixture "d1_good.ml");
  check_exit "lint: unknown flag = exit 2" 2 "lint --no-such-flag";
  check_exit "mc: unknown flag = exit 2" 2 "mc --no-such-flag";
  check_exit "chaos: unknown flag = exit 2" 2 "chaos --no-such-flag";
  check_exit "unknown subcommand = exit 2" 2 "frobnicate"

(* ------------------------------------------------------------------ *)
(* shared plumbing *)

let test_unknown_counter_rejected () =
  let mc = run "mc -c no-such-counter -n 3" in
  let chaos = run "chaos -c no-such-counter --check" in
  Alcotest.(check bool) "mc rejects" true (mc <> 0);
  Alcotest.(check bool) "chaos rejects" true (chaos <> 0)

let () =
  (* The binary must exist: it is a declared dune dep, so a miss means
     the stanza wiring broke. *)
  if not (Sys.file_exists dcount) then
    failwith ("dcount binary not found at " ^ dcount);
  Alcotest.run "cli"
    [
      ( "mc",
        [
          Alcotest.test_case "exhausted ok" `Quick test_mc_exhausted_ok;
          Alcotest.test_case "explicit schedule" `Quick
            test_mc_explicit_schedule;
          Alcotest.test_case "violation codes" `Quick
            test_mc_violation_exit_codes;
          Alcotest.test_case "budget code" `Quick test_mc_budget_exit_code;
          Alcotest.test_case "replay stored" `Quick test_mc_replay_stored;
          Alcotest.test_case "replay bad file" `Quick test_mc_replay_bad_file;
          Alcotest.test_case "counterexample round trip" `Quick
            test_mc_counterexample_round_trip;
          Alcotest.test_case "--all table" `Quick test_mc_all_table;
          Alcotest.test_case "prune modes" `Quick test_mc_prune_none;
          Alcotest.test_case "probabilistic rejected" `Quick
            test_mc_probabilistic_faults_rejected;
          Alcotest.test_case "crash faults" `Quick test_mc_crash_faults;
          Alcotest.test_case "retire-ft bounded" `Quick test_mc_retire_ft;
          Alcotest.test_case "ft-no-handoff stored" `Quick
            test_mc_ft_no_handoff_stored;
          Alcotest.test_case "durable" `Quick test_mc_durable;
          Alcotest.test_case "durable-no-cas stored" `Quick
            test_mc_durable_no_cas_stored;
          Alcotest.test_case "byz --property codes" `Quick test_mc_byz_property;
          Alcotest.test_case "byz usage errors" `Quick test_mc_byz_usage_errors;
          Alcotest.test_case "sync-no-threshold stored" `Quick
            test_mc_sync_no_threshold_stored;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "--check ok" `Quick test_chaos_check_ok;
          Alcotest.test_case "plain sweep" `Quick test_chaos_plain_sweep;
          Alcotest.test_case "--recover" `Quick test_chaos_recover;
          Alcotest.test_case "--durable" `Quick test_chaos_durable;
          Alcotest.test_case "--byz check" `Quick test_chaos_byz_check;
          Alcotest.test_case "--byz usage errors" `Quick
            test_chaos_byz_usage_errors;
          Alcotest.test_case "--byz output shape" `Quick
            test_chaos_byz_output_shape;
          Alcotest.test_case "output shape" `Quick test_chaos_output_shape;
        ] );
      ( "load",
        [
          Alcotest.test_case "--check passes" `Quick test_load_check_passes;
          Alcotest.test_case "--check negative control" `Quick
            test_load_check_fails_on_counting_net;
          Alcotest.test_case "usage errors" `Quick test_load_usage_errors;
        ] );
      ( "lint",
        [
          Alcotest.test_case "exit codes" `Quick test_lint_exit_codes;
          Alcotest.test_case "usage errors" `Quick test_lint_usage_errors;
          Alcotest.test_case "rule selection" `Quick test_lint_rule_selection;
          Alcotest.test_case "json format" `Quick test_lint_json_format;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "unknown counter" `Quick
            test_unknown_counter_rejected;
          Alcotest.test_case "usage errors exit 2" `Quick
            test_usage_errors_exit_2;
        ] );
    ]
