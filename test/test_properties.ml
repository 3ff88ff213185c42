(* Tests for schedule properties (Definitions 2-5) and the Lemma 1
   transformation, pinned on the paper's Figure 2 examples. *)

module Q = Crs_num.Rational
open Crs_core
module A = Crs_generators.Adversarial

let run_fig2 sched = Execution.run_exn A.figure2 sched

let test_figure2_classification () =
  let nested = run_fig2 A.figure2_nested_schedule in
  let unnested = run_fig2 A.figure2_unnested_schedule in
  Alcotest.(check bool) "2b non-wasting" true (Properties.is_non_wasting nested);
  Alcotest.(check bool) "2b progressive" true (Properties.is_progressive nested);
  Alcotest.(check bool) "2b nested" true (Properties.is_nested nested);
  Alcotest.(check bool) "2c non-wasting" true (Properties.is_non_wasting unnested);
  Alcotest.(check bool) "2c progressive" true (Properties.is_progressive unnested);
  Alcotest.(check bool) "2c NOT nested" false (Properties.is_nested unnested)

let test_non_wasting_detects () =
  (* Leave slack while a job is unfinished. *)
  let inst = Helpers.instance_of_strings [ [ "1" ] ] in
  let sched = Helpers.schedule_of_strings [ [ "1/2" ]; [ "1/2" ] ] in
  let trace = Execution.run_exn inst sched in
  (match Properties.non_wasting trace with
  | Error v -> Alcotest.(check int) "violating step" 1 v.Properties.step
  | Ok () -> Alcotest.fail "expected violation")

let test_progressive_detects () =
  (* Two jobs both fed partially. *)
  let inst = Helpers.instance_of_strings [ [ "1" ]; [ "1" ] ] in
  let sched =
    Helpers.schedule_of_strings [ [ "1/2"; "1/2" ]; [ "1/2"; "1/2" ] ]
  in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check bool) "violation found" true
    (Result.is_error (Properties.progressive trace))

let test_balanced_detects () =
  (* Processor with fewer remaining jobs finishes while the longer queue
     stalls. *)
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "1/2" ] ] in
  let sched = Helpers.schedule_of_strings [ [ "0"; "1/2" ]; [ "1/2"; "0" ]; [ "1/2"; "0" ] ] in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check bool) "not balanced" true (Result.is_error (Properties.balanced trace))

(* Edge case Z1: zero-requirement jobs finish without resource, so no
   policy can be literally balanced when an r=0 job sits on a short
   queue. This documents the boundary of Definition 5. *)
let test_zero_requirement_breaks_balanced () =
  let inst =
    Helpers.instance_of_strings [ [ "4/5"; "1/3" ]; [ "1"; "2/5" ]; [ "0" ] ]
  in
  let trace = Execution.run_exn inst (Crs_kernels.Greedy_balance.schedule inst) in
  Alcotest.(check bool) "Z1: literal Definition 5 unattainable" true
    (Result.is_error (Properties.balanced trace))

let test_greedy_balance_properties () =
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 40 do
    let inst = Helpers.random_instance st in
    let trace = Execution.run_exn inst (Crs_kernels.Greedy_balance.schedule inst) in
    Alcotest.(check bool) "non-wasting" true (Properties.is_non_wasting trace);
    Alcotest.(check bool) "progressive" true (Properties.is_progressive trace);
    Alcotest.(check bool) "balanced" true (Properties.is_balanced trace);
    Alcotest.(check bool) "no overprovision" true
      (Result.is_ok (Properties.no_overprovision trace))
  done

let test_canonicalize () =
  let inst = Helpers.instance_of_strings [ [ "1/2" ] ] in
  (* Assign more than the job can use; canonicalization trims it. *)
  let sched = Helpers.schedule_of_strings [ [ "1" ] ] in
  let canon = Transform.canonicalize inst sched in
  Alcotest.check Helpers.check_q "trimmed to consumption" (Helpers.q "1/2")
    (Schedule.share canon ~step:0 ~proc:0);
  let trace = Execution.run_exn inst canon in
  Alcotest.(check int) "same makespan" 1 (Execution.makespan trace)

let test_make_non_wasting () =
  let inst = Helpers.instance_of_strings [ [ "1"; "1/2" ] ] in
  (* Wasteful: trickle the first job over 4 steps. *)
  let sched =
    Helpers.schedule_of_strings [ [ "1/4" ]; [ "1/4" ]; [ "1/4" ]; [ "1/4" ]; [ "1/2" ] ]
  in
  let nw = Transform.make_non_wasting inst sched in
  let trace = Execution.run_exn inst nw in
  Alcotest.(check bool) "completed" true trace.completed;
  Alcotest.(check bool) "non-wasting now" true (Properties.is_non_wasting trace);
  Alcotest.(check int) "makespan improves to optimum" 2 (Execution.makespan trace)

let test_normalize_figure2c () =
  (* Normalizing the unnested Figure 2c schedule must produce a nested
     schedule with the same makespan 4. *)
  let normalized = Transform.normalize A.figure2 A.figure2_unnested_schedule in
  let trace = Execution.run_exn A.figure2 normalized in
  Alcotest.(check int) "makespan preserved" 4 (Execution.makespan trace);
  Alcotest.(check bool) "nested" true (Properties.is_nested trace);
  Alcotest.(check bool) "progressive" true (Properties.is_progressive trace);
  Alcotest.(check bool) "non-wasting" true (Properties.is_non_wasting trace)

(* Lemma 1 on random schedules. The transformation is expected to succeed
   on the vast majority of inputs; failures (finding E3, see
   EXPERIMENTS.md) must be explicit Failure raises, never bad schedules.
   We require >= 95% success and full validity of every success. *)
let test_normalize_fuzz_statistics () =
  let st = Random.State.make [| 123 |] in
  let trials = 120 in
  let failures = ref 0 in
  for _ = 1 to trials do
    let inst = Helpers.random_instance st in
    let sched = Helpers.random_schedule st inst in
    match Transform.normalize inst sched with
    | normalized ->
      let before = Execution.run_exn inst sched in
      let after = Execution.run_exn inst normalized in
      Alcotest.(check bool) "makespan not increased" true
        (Execution.makespan after <= Execution.makespan before);
      Alcotest.(check bool) "all three properties" true
        (Properties.is_non_wasting after && Properties.is_progressive after
        && Properties.is_nested after)
    | exception Failure _ -> incr failures
  done;
  if !failures * 20 > trials then
    Alcotest.failf "normalize failed on %d/%d inputs (> 5%%)" !failures trials

let suite =
  [
    Alcotest.test_case "figure 2: nested vs unnested" `Quick test_figure2_classification;
    Alcotest.test_case "non-wasting: violation detected" `Quick test_non_wasting_detects;
    Alcotest.test_case "progressive: violation detected" `Quick test_progressive_detects;
    Alcotest.test_case "balanced: violation detected" `Quick test_balanced_detects;
    Alcotest.test_case "Z1: zero requirements vs Definition 5" `Quick
      test_zero_requirement_breaks_balanced;
    Alcotest.test_case "greedy-balance has all properties" `Slow
      test_greedy_balance_properties;
    Alcotest.test_case "transform: canonicalize" `Quick test_canonicalize;
    Alcotest.test_case "transform: make_non_wasting" `Quick test_make_non_wasting;
    Alcotest.test_case "transform: normalize figure 2c" `Quick test_normalize_figure2c;
    Alcotest.test_case "transform: Lemma 1 fuzz (E3 statistics)" `Slow
      test_normalize_fuzz_statistics;
  ]
