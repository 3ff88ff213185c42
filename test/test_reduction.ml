(* Tests for the Partition substrate and the Theorem 4 reduction. *)

module Q = Crs_num.Rational
module P = Crs_reduction.Partition
module R = Crs_reduction.Reduce
open Crs_core

let test_partition_solver () =
  let yes = P.make [| 1; 2; 3 |] in
  (match P.solve yes with
  | Some cert ->
    Alcotest.(check bool) "certificate verifies" true (P.verify_certificate yes cert)
  | None -> Alcotest.fail "expected YES");
  Alcotest.(check bool) "odd total is NO" false (P.is_yes (P.make [| 1; 2 |]));
  Alcotest.(check bool) "3,3,3,3,2 is NO" false (P.is_yes (P.make [| 3; 3; 3; 3; 2 |]));
  Alcotest.(check bool) "singleton is NO" false (P.is_yes (P.make [| 4 |]));
  Alcotest.(check bool) "pair of equals is YES" true (P.is_yes (P.make [| 5; 5 |]))

let test_partition_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Partition.make: empty") (fun () ->
      ignore (P.make [||]));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Partition.make: elements must be positive") (fun () ->
      ignore (P.make [| 1; 0 |]))

let test_certificate_checks () =
  let p = P.make [| 2; 2; 4 |] in
  Alcotest.(check bool) "good certificate" true (P.verify_certificate p [ 2 ]);
  Alcotest.(check bool) "wrong sum" false (P.verify_certificate p [ 0 ]);
  Alcotest.(check bool) "duplicate indices" false (P.verify_certificate p [ 2; 2 ]);
  Alcotest.(check bool) "out of range" false (P.verify_certificate p [ 3 ])

let prop_random_yes_generator =
  Helpers.qcheck_case ~count:50 "random_yes always yields YES instances"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      P.is_yes (P.random_yes ~n:5 ~max_value:12 st))

let prop_random_no_generator =
  Helpers.qcheck_case ~count:20 "random_no yields even-total NO instances"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = P.random_no ~n:5 ~max_value:9 st in
      (not (P.is_yes p)) && P.total p mod 2 = 0)

let test_reduction_shape () =
  let p = P.make [| 1; 2; 3 |] in
  let inst = R.to_crsharing p in
  Alcotest.(check int) "n processors" 3 (Instance.m inst);
  Alcotest.(check int) "three jobs each" 3 (Instance.n_max inst);
  (* Row i is (a~_i, eps~, a~_i); with eps = 1/4 (n+1), delta = 3/4:
     a~_1 = 1/(3+3/4) = 4/15. *)
  Alcotest.check Helpers.check_q "a~_1" (Helpers.q "4/15")
    (Job.requirement (Instance.job inst 0 0));
  Alcotest.check Helpers.check_q "first = third"
    (Job.requirement (Instance.job inst 0 0))
    (Job.requirement (Instance.job inst 0 2));
  (* First jobs cannot all finish in step 1: their sum exceeds 1. *)
  let first_sum =
    Q.sum (List.map (fun i -> Job.requirement (Instance.job inst i 0)) [ 0; 1; 2 ])
  in
  Alcotest.(check bool) "Σ a~_i > 1" true Q.(first_sum > Q.one)

let test_reduction_guard_rails () =
  Alcotest.(check bool) "odd total rejected" true
    (try ignore (R.to_crsharing (P.make [| 1; 2 |])); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "A < 2 rejected" true
    (try ignore (R.to_crsharing (P.make [| 1; 1 |])); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "element > A rejected" true
    (try ignore (R.to_crsharing (P.make [| 5; 1; 1; 1 |])); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "epsilon >= 1/n rejected" true
    (try ignore (R.to_crsharing ~epsilon:Q.half (P.make [| 1; 2; 3 |])); false
     with Invalid_argument _ -> true)

let test_yes_witness () =
  let p = P.make [| 4; 1; 3; 2 |] in
  match P.solve p with
  | None -> Alcotest.fail "expected YES"
  | Some cert ->
    let sched = R.yes_witness_schedule p cert in
    let trace = Execution.run_exn (R.to_crsharing p) sched in
    Alcotest.(check bool) "completes" true trace.Execution.completed;
    Alcotest.(check int) "makespan exactly 4" R.yes_makespan (Execution.makespan trace)

let test_theorem4_fixed_instances () =
  let yes = P.make [| 1; 2; 3 |] in
  let no = P.make [| 3; 3; 3; 3; 2 |] in
  Alcotest.(check int) "YES gadget optimum 4" 4
    (Crs_kernels.Opt_config.makespan (R.to_crsharing yes));
  let no_opt = Crs_kernels.Opt_config.makespan (R.to_crsharing no) in
  Alcotest.(check bool) "NO gadget optimum >= 5" true (no_opt >= R.no_makespan_lower);
  Alcotest.(check bool) "decide YES" true
    (R.decide ~exact:Crs_kernels.Opt_config.makespan yes);
  Alcotest.(check bool) "decide NO" false
    (R.decide ~exact:Crs_kernels.Opt_config.makespan no)

let prop_theorem4_random =
  Helpers.qcheck_case ~count:15 "reduction decides random instances correctly"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p =
        if seed mod 2 = 0 then P.random_yes ~n:4 ~max_value:8 st
        else P.random_no ~n:4 ~max_value:8 st
      in
      R.decide ~exact:Crs_kernels.Brute_force.makespan p = P.is_yes p)

let test_gap_ratio () =
  Alcotest.check Helpers.check_q "5/4" (Helpers.q "5/4") R.gap_ratio;
  Alcotest.(check bool) "gap consistent with makespans" true
    (Q.equal R.gap_ratio (Q.of_ints R.no_makespan_lower R.yes_makespan))

let suite =
  [
    Alcotest.test_case "partition: DP solver" `Quick test_partition_solver;
    Alcotest.test_case "partition: validation" `Quick test_partition_validation;
    Alcotest.test_case "partition: certificates" `Quick test_certificate_checks;
    prop_random_yes_generator;
    prop_random_no_generator;
    Alcotest.test_case "reduction: gadget shape" `Quick test_reduction_shape;
    Alcotest.test_case "reduction: guard rails" `Quick test_reduction_guard_rails;
    Alcotest.test_case "reduction: Figure 4a witness" `Quick test_yes_witness;
    Alcotest.test_case "Theorem 4 on fixed instances" `Quick test_theorem4_fixed_instances;
    prop_theorem4_random;
    Alcotest.test_case "Corollary 1 gap ratio" `Quick test_gap_ratio;
  ]
