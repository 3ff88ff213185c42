(* Tests for the paper's algorithms: RoundRobin (Thm 3), the exact
   solvers (Thms 5, 6), GreedyBalance (Thms 7, 8), cross-validated
   against one another and the brute-force reference. *)

module Q = Crs_num.Rational
open Crs_core
module A = Crs_generators.Adversarial

let q = Helpers.q

(* ---------- RoundRobin ---------- *)

let test_round_robin_phases () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "3/4"; "3/4" ] ] in
  (* Phase totals are 5/4 each: two steps per phase, makespan 4. *)
  Alcotest.(check int) "makespan" 4 (Crs_kernels.Round_robin.makespan inst);
  Alcotest.(check int) "prediction matches" 4
    (Crs_kernels.Round_robin.predicted_makespan_unit inst);
  Alcotest.(check int) "phase of step 1" 1 (Crs_kernels.Round_robin.phase_of_step inst 1);
  Alcotest.(check int) "phase of step 3" 2 (Crs_kernels.Round_robin.phase_of_step inst 3)

let test_round_robin_zero_phase () =
  (* A phase of zero-requirement jobs still needs one step. *)
  let inst = Helpers.instance_of_strings [ [ "0"; "1/2" ]; [ "0"; "1/2" ] ] in
  Alcotest.(check int) "prediction counts empty phases" 2
    (Crs_kernels.Round_robin.predicted_makespan_unit inst);
  Alcotest.(check int) "measured" 2 (Crs_kernels.Round_robin.makespan inst)

let test_round_robin_family () =
  List.iter
    (fun n ->
      let inst = A.round_robin_family ~n in
      let rr, opt = A.round_robin_family_predicted ~n in
      Alcotest.(check int) (Printf.sprintf "RR makespan n=%d" n) rr
        (Crs_kernels.Round_robin.makespan inst);
      let witness = A.round_robin_family_opt_schedule ~n in
      let trace = Execution.run_exn inst witness in
      Alcotest.(check int) (Printf.sprintf "witness optimum n=%d" n) opt
        (Execution.makespan trace);
      Alcotest.check Helpers.check_q "witness wastes nothing" Q.zero
        (Execution.unused_capacity trace);
      (* The witness is truly optimal: the DP agrees. *)
      Alcotest.(check int) "DP confirms optimum" opt (Crs_kernels.Opt_two.makespan inst))
    [ 2; 3; 7; 20 ]

let prop_round_robin_within_2x =
  Helpers.qcheck_case ~count:50 "Theorem 3: RR <= 2 OPT"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let rr = Crs_kernels.Round_robin.makespan instance in
      let opt = Crs_kernels.Brute_force.makespan instance in
      rr >= opt && rr <= 2 * opt)

let prop_round_robin_prediction =
  Helpers.qcheck_case ~count:50 "RR closed form matches simulation"
    (Helpers.gen_instance ()) (fun instance ->
      Crs_kernels.Round_robin.makespan instance
      = Crs_kernels.Round_robin.predicted_makespan_unit instance)

(* ---------- exact solvers cross-validation ---------- *)

let test_opt_two_requires_two_procs () =
  let inst = Helpers.instance_of_strings [ [ "1/2" ] ] in
  Alcotest.check_raises "m=1 rejected"
    (Invalid_argument "Opt_two: instance must have exactly 2 processors")
    (fun () -> ignore (Crs_kernels.Opt_two.makespan inst))

let test_opt_two_simple_cases () =
  (* Two jobs that fit together: one step. *)
  let inst = Helpers.instance_of_strings [ [ "1/2" ]; [ "1/2" ] ] in
  Alcotest.(check int) "perfect fit" 1 (Crs_kernels.Opt_two.makespan inst);
  (* Requirements 1 and 1: two steps. *)
  let inst2 = Helpers.instance_of_strings [ [ "1" ]; [ "1" ] ] in
  Alcotest.(check int) "sequential" 2 (Crs_kernels.Opt_two.makespan inst2);
  (* Empty second processor. *)
  let inst3 = Helpers.instance_of_strings [ [ "1/4"; "1/4" ]; [] ] in
  Alcotest.(check int) "single processor side" 2 (Crs_kernels.Opt_two.makespan inst3)

let test_opt_two_witness_valid () =
  let st = Random.State.make [| 17 |] in
  for _ = 1 to 30 do
    let inst = Helpers.random_instance ~max_m:2 st in
    let sol = Crs_kernels.Opt_two.solve inst in
    let trace = Execution.run_exn inst sol.Crs_kernels.Opt_two.schedule in
    Alcotest.(check bool) "witness completes" true trace.Execution.completed;
    Alcotest.(check int) "witness achieves claimed makespan"
      sol.Crs_kernels.Opt_two.makespan (Execution.makespan trace)
  done

let prop_exact_solvers_agree_m2 =
  Helpers.qcheck_case ~count:60 "Opt_two = Opt_two_pq = Opt_config = brute force (m=2)"
    (Helpers.gen_instance ~max_m:2 ~max_jobs:4 ()) (fun instance ->
      let dp = Crs_kernels.Opt_two.makespan instance in
      dp = Crs_kernels.Opt_two_pq.makespan instance
      && dp = Crs_kernels.Opt_config.makespan instance
      && dp = Crs_kernels.Brute_force.makespan instance)

(* Lemma 3 audit: keeping only the lexicographic best (t, r) per cell
   never loses against keeping the full Pareto frontier. *)
let prop_lemma3_sufficiency =
  Helpers.qcheck_case ~count:60 "Lemma 3: lex DP = Pareto-frontier DP"
    (Helpers.gen_instance ~max_m:2 ~max_jobs:5 ()) (fun instance ->
      Crs_kernels.Opt_two.makespan instance
      = Crs_kernels.Opt_two_pareto.makespan instance)

let prop_exact_solvers_agree_m3 =
  Helpers.qcheck_case ~count:30 "Opt_config = brute force (m=3)"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      Crs_kernels.Opt_config.makespan instance
      = Crs_kernels.Brute_force.makespan instance)

(* m=4 parity: the configuration DP against the brute-force reference
   on its widest testable machine count. The state space explodes with
   m, so counts and sizes stay tiny (1-2 jobs/proc, coarse grids). *)
let prop_exact_solvers_agree_m4 =
  Helpers.qcheck_case ~count:12 "Opt_config = brute force (m=4)"
    (QCheck2.Gen.map
       (fun seed ->
         let st = Random.State.make [| seed |] in
         Crs_generators.Random_gen.equal_rows ~m:4
           ~n:(1 + Random.State.int st 2)
           ~granularity:(3 + Random.State.int st 4)
           st)
       QCheck2.Gen.(int_bound 1_000_000))
    (fun instance ->
      Crs_kernels.Opt_config.makespan instance
      = Crs_kernels.Brute_force.makespan instance)

let prop_opt_config_prune_invariant =
  Helpers.qcheck_case ~count:25 "domination pruning preserves the optimum"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:2 ()) (fun instance ->
      Crs_kernels.Opt_config.makespan ~prune:true instance
      = Crs_kernels.Opt_config.makespan ~prune:false instance)

let prop_lemma4_audit =
  Helpers.qcheck_case ~count:25 "Lemma 4: step-equal extended configs are comparable"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:2 ()) (fun instance ->
      Crs_kernels.Lemma4_audit.holds instance)

(* E4: without the nested restriction Lemma 4 fails; the witness below
   reaches two step-equal extended configurations with incomparable
   remainders (hand-verified via two explicit unnested schedules). *)
let test_lemma4_needs_nestedness () =
  let witness = Helpers.instance_of_strings [ [ "7/8" ]; [ "10/11"; "1" ]; [ "1/3"; "2/3" ] ] in
  let unrestricted = Crs_kernels.Lemma4_audit.audit ~nested:false witness in
  Alcotest.(check bool) "E4: counterexample without nestedness" true
    (unrestricted.counterexample <> None);
  Alcotest.(check bool) "holds with nestedness" true
    (Crs_kernels.Lemma4_audit.holds witness)

let test_lemma4_audit_strong_form () =
  (* Lemma 4's proof concludes step-equal extended configurations are
     identical; the enumeration should therefore never produce two
     DISTINCT step-equal ones. *)
  let inst =
    Helpers.instance_of_strings
      [ [ "3/4"; "1/2" ]; [ "3/4"; "1/2" ]; [ "1/2" ] ]
  in
  let v = Crs_kernels.Lemma4_audit.audit inst in
  Alcotest.(check bool) "some configurations enumerated" true (v.configurations > 10);
  Alcotest.(check int) "strong form: no distinct step-equal pairs" 0 v.step_equal_pairs;
  Alcotest.(check (option string)) "no counterexample" None v.counterexample

let test_opt_config_witness_valid () =
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 20 do
    let inst = Helpers.random_instance ~max_m:3 ~max_jobs:3 st in
    let sol = Crs_kernels.Opt_config.solve inst in
    let trace = Execution.run_exn inst sol.Crs_kernels.Opt_config.schedule in
    Alcotest.(check bool) "witness completes" true trace.Execution.completed;
    Alcotest.(check int) "witness achieves claimed makespan"
      sol.Crs_kernels.Opt_config.makespan (Execution.makespan trace)
  done

let test_exact_lower_bounds () =
  let st = Random.State.make [| 31 |] in
  for _ = 1 to 20 do
    let inst = Helpers.random_instance ~max_m:2 st in
    let opt = Crs_kernels.Opt_two.makespan inst in
    Alcotest.(check bool) "Obs 1 + job count below OPT" true
      (Lower_bounds.combined inst <= opt)
  done

(* ---------- GreedyBalance ---------- *)

let test_greedy_balance_family () =
  List.iter
    (fun (m, blocks) ->
      let inst = A.greedy_balance_family ~m ~blocks () in
      Alcotest.(check int)
        (Printf.sprintf "GB on family m=%d blocks=%d" m blocks)
        (A.greedy_balance_family_predicted ~m ~blocks)
        (Crs_kernels.Greedy_balance.makespan inst))
    [ (2, 1); (2, 4); (3, 2); (4, 2); (5, 1) ]

let test_figure5_values () =
  (* The exact percentages of Figure 5 (first three blocks). *)
  let expect =
    [
      [ "99/100"; "7/100"; "1/100"; "49/50"; "13/100"; "1/100"; "49/50"; "19/100"; "1/100" ];
      [ "49/50"; "1/100"; "1/100"; "49/50"; "1/100"; "1/100"; "49/50"; "1/100"; "1/100" ];
      [ "97/100"; "1/100"; "1/100"; "23/25"; "1/100"; "1/100"; "43/50"; "1/100"; "1/100" ];
    ]
  in
  List.iteri
    (fun i row ->
      List.iteri
        (fun j cell ->
          Alcotest.check Helpers.check_q
            (Printf.sprintf "r_(%d,%d)" (i + 1) (j + 1))
            (q cell)
            (Job.requirement (Instance.job A.figure5 i j)))
        row)
    expect

let prop_theorem7_ratio =
  Helpers.qcheck_case ~count:50 "Theorem 7: GB <= (2-1/m) OPT"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let m = Instance.m instance in
      let gb = Crs_kernels.Greedy_balance.makespan instance in
      let opt = Crs_kernels.Brute_force.makespan instance in
      gb >= opt && gb * m <= ((2 * m) - 1) * opt)

let test_family_ratio_approaches_bound () =
  (* As blocks grow, GB/staircase approaches 2 - 1/m from below. *)
  let ratio m blocks =
    let inst = A.greedy_balance_family ~m ~blocks () in
    let gb = Crs_kernels.Greedy_balance.makespan inst in
    let stair =
      Crs_kernels.Heuristics.makespan_of Crs_kernels.Heuristics.staircase inst
    in
    float_of_int gb /. float_of_int stair
  in
  let r4 = ratio 3 4 and r12 = ratio 3 12 in
  Alcotest.(check bool) "monotone toward bound" true (r12 > r4);
  Alcotest.(check bool) "within the proved bound" true (r12 <= 2.0 -. (1.0 /. 3.0));
  Alcotest.(check bool) "gets close (>= 1.5 at 12 blocks)" true (r12 >= 1.5)

let prop_theorem7_proof_bounds =
  (* The two intermediate inequalities from the Theorem 7 proof hold with
     the measured OPT: S/OPT <= min(Eq.10, Eq.11). *)
  Helpers.qcheck_case ~count:40 "Theorem 7 proof inequalities (Eq. 10/11)"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let m = Instance.m instance in
      let trace =
        Execution.run_exn instance (Crs_kernels.Greedy_balance.schedule instance)
      in
      let g = Crs_hypergraph.Sched_graph.of_trace trace in
      let opt = Crs_kernels.Brute_force.makespan instance in
      let ratio = Q.of_ints (Execution.makespan trace) opt in
      let eq10, eq11 = Crs_hypergraph.Bounds.theorem7_ratio_bounds g ~m in
      Q.(ratio <= eq11)
      || (match eq10 with Some b -> Q.(ratio <= b) | None -> false))

(* ---------- heuristics & solver facade ---------- *)

let test_heuristics_never_below_opt () =
  let st = Random.State.make [| 41 |] in
  for _ = 1 to 15 do
    let inst = Helpers.random_instance ~max_m:2 ~max_jobs:3 st in
    let opt = Crs_kernels.Opt_two.makespan inst in
    List.iter
      (fun (name, policy) ->
        let ms = Crs_kernels.Heuristics.makespan_of policy inst in
        Alcotest.(check bool) (name ^ " >= OPT") true (ms >= opt))
      Crs_algorithms.Registry.policies
  done

let test_certified_bound_on_families () =
  (* On the Figure 3 family the work bound is tight: OPT = n+1 exactly. *)
  let inst = A.round_robin_family ~n:30 in
  Alcotest.(check int) "RR family: certified LB = OPT" 31
    (Crs_algorithms.Solver.certified_lower_bound inst);
  (* On Figure 1 the best certified bound is 5, one below the optimum 6 —
     pinning the gap documents how tight the machinery is. *)
  Alcotest.(check int) "figure 1: certified LB" 5
    (Crs_algorithms.Solver.certified_lower_bound A.figure1)

let test_solver_facade () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "1/2" ] ] in
  Alcotest.(check int) "dispatch m=2" 2 (Crs_algorithms.Solver.optimal_makespan inst);
  Alcotest.(check int) "explicit method" 2
    (Crs_algorithms.Solver.optimal_makespan ~method_:Crs_algorithms.Solver.Dfs_bnb inst);
  let sched = Crs_algorithms.Solver.optimal_schedule inst in
  Alcotest.(check int) "witness" 2 (Execution.makespan (Execution.run_exn inst sched));
  Alcotest.check Helpers.check_q "ratio of GB" Q.one
    (Crs_algorithms.Solver.ratio ~algorithm:Crs_kernels.Greedy_balance.makespan inst)

let prop_certified_ratio_bound =
  Helpers.qcheck_case ~count:40 "certified ratio upper bound is sound"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let certified = Crs_algorithms.Solver.ratio_upper_bound instance in
      let true_ratio =
        Crs_algorithms.Solver.ratio
          ~algorithm:Crs_kernels.Greedy_balance.makespan instance
      in
      Q.(true_ratio <= certified))

let suite =
  [
    Alcotest.test_case "round-robin: phases and prediction" `Quick test_round_robin_phases;
    Alcotest.test_case "round-robin: zero-requirement phase" `Quick
      test_round_robin_zero_phase;
    Alcotest.test_case "round-robin: Figure 3 family" `Quick test_round_robin_family;
    prop_round_robin_within_2x;
    prop_round_robin_prediction;
    Alcotest.test_case "opt-two: input validation" `Quick test_opt_two_requires_two_procs;
    Alcotest.test_case "opt-two: simple cases" `Quick test_opt_two_simple_cases;
    Alcotest.test_case "opt-two: witness schedules" `Quick test_opt_two_witness_valid;
    prop_exact_solvers_agree_m2;
    prop_lemma3_sufficiency;
    prop_exact_solvers_agree_m3;
    prop_exact_solvers_agree_m4;
    prop_opt_config_prune_invariant;
    prop_lemma4_audit;
    Alcotest.test_case "lemma 4 audit: strong form on a tie-heavy instance" `Quick
      test_lemma4_audit_strong_form;
    Alcotest.test_case "lemma 4 audit: nestedness is essential (E4)" `Quick
      test_lemma4_needs_nestedness;
    Alcotest.test_case "opt-config: witness schedules" `Quick test_opt_config_witness_valid;
    Alcotest.test_case "lower bounds below optimum" `Quick test_exact_lower_bounds;
    Alcotest.test_case "greedy-balance: Theorem 8 family" `Quick test_greedy_balance_family;
    Alcotest.test_case "greedy-balance: Figure 5 exact values" `Quick test_figure5_values;
    prop_theorem7_ratio;
    Alcotest.test_case "greedy-balance: family ratio trend" `Quick
      test_family_ratio_approaches_bound;
    prop_theorem7_proof_bounds;
    Alcotest.test_case "heuristics never beat the optimum" `Quick
      test_heuristics_never_below_opt;
    Alcotest.test_case "certified bounds on the families" `Quick
      test_certified_bound_on_families;
    Alcotest.test_case "solver facade" `Quick test_solver_facade;
    prop_certified_ratio_bound;
  ]
