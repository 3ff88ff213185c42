(* Tests for the scheduling hypergraph (Section 3.2) and the Lemma 5 / 6
   lower bounds (Section 8.1), pinned on Figure 1. *)

module Q = Crs_num.Rational
open Crs_core
module G = Crs_hypergraph.Sched_graph
module B = Crs_hypergraph.Bounds
module A = Crs_generators.Adversarial

(* The Figure 1 schedule: greedily finish as many jobs as possible, i.e.
   prioritize smaller remaining requirements. *)
let figure1_graph () =
  let sched =
    Policy.run Crs_kernels.Heuristics.smallest_requirement_first A.figure1
  in
  G.of_trace (Execution.run_exn A.figure1 sched)

let test_figure1_shape () =
  let g = figure1_graph () in
  Alcotest.(check int) "12 nodes (jobs)" 12 (G.num_nodes g);
  Alcotest.(check int) "6 edges (steps)" 6 (G.num_edges g);
  Alcotest.(check int) "3 components" 3 (G.num_components g);
  (* e1 contains the three first jobs. *)
  Alcotest.(check (list (pair int int))) "e_1" [ (0, 0); (1, 0); (2, 0) ] (G.edge g 1);
  Alcotest.check Helpers.check_q "weight of (1,1) is 20%" (Helpers.q "1/5")
    (G.weight g (0, 0));
  (* Components of the Figure 1a schedule (hand-simulated): C1 = e1,e2
     with 5 nodes, C2 = e3,e4,e5 with 6 nodes, C3 = e6 with the single
     last job of processor 2. *)
  let sizes = List.map (fun c -> List.length c.G.nodes) (G.components g) in
  Alcotest.(check (list int)) "component sizes" [ 5; 6; 1 ] sizes;
  let edge_counts = List.map (fun c -> c.G.num_edges) (G.components g) in
  Alcotest.(check (list int)) "component edge counts" [ 2; 3; 1 ] edge_counts;
  let classes = List.map (fun c -> c.G.cls) (G.components g) in
  Alcotest.(check (list int)) "component classes" [ 3; 3; 1 ] classes

let test_figure1_observation2 () =
  let g = figure1_graph () in
  Alcotest.(check bool) "components are contiguous step intervals" true
    (Result.is_ok (G.check_observation_2 g));
  Alcotest.(check bool) "classes non-increasing" true
    (Result.is_ok (G.check_class_monotone g))

let test_component_of_step () =
  let g = figure1_graph () in
  Alcotest.(check int) "step 1 in C1" 0 (G.component_of_step g 1).G.index;
  Alcotest.(check int) "step 6 in C3" 2 (G.component_of_step g 6).G.index

let test_rejects_bad_traces () =
  let inst = Helpers.instance_of_strings [ [ "1" ] ] in
  let short = Helpers.schedule_of_strings [ [ "1/2" ] ] in
  Alcotest.check_raises "incomplete trace"
    (Invalid_argument "Sched_graph.of_trace: trace does not finish all jobs")
    (fun () -> ignore (G.of_trace (Execution.run_exn inst short)));
  let sized = Instance.create [| [| Job.make ~requirement:Q.one ~size:Q.two |] |] in
  let sched = Helpers.schedule_of_strings [ [ "1" ]; [ "1" ] ] in
  Alcotest.check_raises "non-unit sizes"
    (Invalid_argument "Sched_graph.of_trace: hypergraph defined for unit-size jobs")
    (fun () -> ignore (G.of_trace (Execution.run_exn sized sched)))

let test_figure1_bounds () =
  let g = figure1_graph () in
  (* Σ(#k - 1) = 3 for three 2-edge components. *)
  Alcotest.(check int) "Lemma 5" 3 (B.lemma5 g);
  (* Lemma 6: 5/3 + 4/3 + 3/3 = 4. *)
  Alcotest.(check int) "Lemma 6" 4 (B.lemma6_int g);
  Alcotest.check Helpers.check_q "#_avg = 2" Q.two (B.average_edges_per_component g)

let test_theorem7_formula () =
  Alcotest.check Helpers.check_q "2-1/2" (Helpers.q "3/2") (B.theorem7_bound ~m:2);
  Alcotest.check Helpers.check_q "2-1/5" (Helpers.q "9/5") (B.theorem7_bound ~m:5)

(* The key soundness property: on balanced, non-wasting schedules, every
   lower bound is at most the true optimum (verified exactly on small
   instances). *)
let prop_bounds_below_optimum =
  Helpers.qcheck_case ~count:40 "Lemma 5/6 bounds never exceed OPT"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let opt = Crs_kernels.Brute_force.makespan instance in
      let trace =
        Execution.run_exn instance (Crs_kernels.Greedy_balance.schedule instance)
      in
      let g = G.of_trace trace in
      Crs_core.Lower_bounds.combined instance <= opt
      && B.lemma5 g <= opt
      && B.lemma6_int g <= opt
      && B.combined g instance <= opt)

(* Lemma 2 (component size vs edge count): |C_k| >= #_k + q_k - 1 for all
   but the last component; |C_N| >= #_N. *)
let prop_lemma2 =
  Helpers.qcheck_case ~count:60 "Lemma 2 on greedy-balance graphs"
    (Helpers.gen_instance ()) (fun instance ->
      let trace =
        Execution.run_exn instance (Crs_kernels.Greedy_balance.schedule instance)
      in
      let g = G.of_trace trace in
      let comps = G.components g in
      let n = List.length comps in
      List.for_all
        (fun (c : G.component) ->
          let nodes = List.length c.G.nodes in
          if c.G.index = n - 1 then nodes >= c.G.num_edges
          else nodes >= c.G.num_edges + c.G.cls - 1)
        comps)

let prop_observation2_always =
  Helpers.qcheck_case ~count:60 "Observation 2 on arbitrary schedules"
    (Helpers.gen_instance_with_schedule ()) (fun (instance, schedule) ->
      let g = G.of_trace (Execution.run_exn instance schedule) in
      Result.is_ok (G.check_observation_2 g))

let prop_edges_sum_to_makespan =
  Helpers.qcheck_case ~count:60 "components' edge counts sum to makespan"
    (Helpers.gen_instance_with_schedule ()) (fun (instance, schedule) ->
      let trace = Execution.run_exn instance schedule in
      let g = G.of_trace trace in
      let total =
        List.fold_left (fun acc c -> acc + c.G.num_edges) 0 (G.components g)
      in
      total = Execution.makespan trace && total = G.num_edges g)

let suite =
  [
    Alcotest.test_case "figure 1: nodes, edges, components" `Quick test_figure1_shape;
    Alcotest.test_case "figure 1: observation 2 + class monotone" `Quick
      test_figure1_observation2;
    Alcotest.test_case "component_of_step" `Quick test_component_of_step;
    Alcotest.test_case "rejects incomplete / sized traces" `Quick test_rejects_bad_traces;
    Alcotest.test_case "figure 1: Lemma 5/6 values" `Quick test_figure1_bounds;
    Alcotest.test_case "Theorem 7 bound formula" `Quick test_theorem7_formula;
    prop_bounds_below_optimum;
    prop_lemma2;
    prop_observation2_always;
    prop_edges_sum_to_makespan;
  ]
