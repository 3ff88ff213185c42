(* Exhaustive verification on a complete universe of tiny instances:
   every 2-processor instance with 0-2 jobs per processor and
   requirements on the grid {1/4, 1/2, 3/4, 1}. For each of the 441
   instances, all exact solvers must agree and every theorem-level
   inequality must hold. Unlike the qcheck sweeps, this leaves no
   sampling gaps in its universe. *)

module Q = Crs_num.Rational
open Crs_core

let grid = List.map (fun k -> Q.of_ints k 4) [ 1; 2; 3; 4 ]

let rows_up_to_2 =
  (* [], [a], [a; b] for grid values a, b *)
  [ [] ]
  @ List.map (fun a -> [ a ]) grid
  @ List.concat_map (fun a -> List.map (fun b -> [ a; b ]) grid) grid

let all_instances =
  List.concat_map
    (fun r1 ->
      List.map
        (fun r2 ->
          Instance.of_requirements [| Array.of_list r1; Array.of_list r2 |])
        rows_up_to_2)
    rows_up_to_2

let test_solver_agreement () =
  List.iter
    (fun inst ->
      let dp = Crs_kernels.Opt_two.makespan inst in
      let label = Instance.to_string inst in
      Alcotest.(check int) ("pq: " ^ label) dp (Crs_kernels.Opt_two_pq.makespan inst);
      Alcotest.(check int) ("pareto: " ^ label) dp
        (Crs_kernels.Opt_two_pareto.makespan inst);
      Alcotest.(check int) ("config: " ^ label) dp
        (Crs_kernels.Opt_config.makespan inst);
      Alcotest.(check int) ("bnb: " ^ label) dp (Crs_kernels.Brute_force.makespan inst))
    all_instances

let test_witnesses_and_bounds () =
  List.iter
    (fun inst ->
      let label = Instance.to_string inst in
      let sol = Crs_kernels.Opt_two.solve inst in
      let opt = sol.Crs_kernels.Opt_two.makespan in
      (* Witness achieves the optimum. *)
      (if Instance.total_jobs inst > 0 then begin
         let trace = Execution.run_exn inst sol.Crs_kernels.Opt_two.schedule in
         Alcotest.(check bool) ("witness completes: " ^ label) true
           trace.Execution.completed;
         Alcotest.(check int) ("witness makespan: " ^ label) opt
           (Execution.makespan trace)
       end);
      (* Lower bounds never exceed OPT. *)
      Alcotest.(check bool) ("LB: " ^ label) true (Lower_bounds.combined inst <= opt);
      (* Theorem 3 and Theorem 7 for m=2 on the whole universe. *)
      let rr = Crs_kernels.Round_robin.makespan inst in
      let gb = Crs_kernels.Greedy_balance.makespan inst in
      Alcotest.(check bool) ("Thm 3: " ^ label) true (rr >= opt && rr <= 2 * opt);
      Alcotest.(check bool) ("Thm 7: " ^ label) true
        (gb >= opt && 2 * gb <= 3 * opt);
      (* The bin-packing relaxation is a valid lower bound. *)
      if Q.(Instance.total_work inst > zero) then
        Alcotest.(check bool) ("BP relax: " ^ label) true
          (Crs_binpack.Splittable.crsharing_relaxation_bound inst <= opt))
    all_instances

let test_greedy_properties_everywhere () =
  List.iter
    (fun inst ->
      if Instance.total_jobs inst > 0 then begin
        let label = Instance.to_string inst in
        let trace = Execution.run_exn inst (Crs_kernels.Greedy_balance.schedule inst) in
        Alcotest.(check bool) ("nw: " ^ label) true (Properties.is_non_wasting trace);
        Alcotest.(check bool) ("prog: " ^ label) true (Properties.is_progressive trace);
        Alcotest.(check bool) ("bal: " ^ label) true (Properties.is_balanced trace)
      end)
    all_instances

let test_universe_size () =
  Alcotest.(check int) "441 instances" 441 (List.length all_instances)

let suite =
  [
    Alcotest.test_case "universe size" `Quick test_universe_size;
    Alcotest.test_case "all exact solvers agree on the full universe" `Slow
      test_solver_agreement;
    Alcotest.test_case "witnesses and theorem bounds on the full universe" `Slow
      test_witnesses_and_bounds;
    Alcotest.test_case "greedy-balance properties on the full universe" `Slow
      test_greedy_properties_everywhere;
  ]
