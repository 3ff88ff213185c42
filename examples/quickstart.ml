(* Quickstart: model a 3-core system sharing one memory bus, schedule it
   with the paper's algorithms, inspect the result.

   Run with: dune exec examples/quickstart.exe *)

module Q = Crs_num.Rational
open Crs_core

let () =
  (* An instance: three processors, each with a fixed job sequence. A job
     is its resource requirement (unit size): job "1/2" needs half the
     bus to run at full speed and carries half a unit of work. This is
     the instance of the paper's Figure 1. *)
  let instance =
    Instance.of_percent [ [ 20; 10; 10; 10 ]; [ 50; 55; 90; 55; 10 ]; [ 50; 40; 95 ] ]
  in
  Format.printf "Instance:@.%a@.@." Instance.pp instance;

  (* Certified lower bounds — no solving needed (Observation 1 + job
     count). *)
  Printf.printf "Lower bounds: total-work %d, job-count %d\n\n"
    (Lower_bounds.total_work instance)
    (Lower_bounds.job_count instance);

  (* GreedyBalance: the paper's linear-time (2 - 1/m)-approximation. *)
  let schedule = Crs_kernels.Greedy_balance.schedule instance in
  let trace = Execution.run_exn instance schedule in
  Printf.printf "GreedyBalance: %s\n" (Crs_render.Gantt.summary trace);
  print_string (Crs_render.Gantt.render trace);
  print_newline ();

  (* The scheduling hypergraph of Section 3.2: edges are time steps,
     components are the contiguous phases of the schedule. *)
  let graph = Crs_hypergraph.Sched_graph.of_trace trace in
  Format.printf "%a@." Crs_hypergraph.Sched_graph.pp graph;
  Printf.printf "Lemma 5 bound: %d | Lemma 6 bound: %d\n\n"
    (Crs_hypergraph.Bounds.lemma5 graph)
    (Crs_hypergraph.Bounds.lemma6_int graph);

  (* Exact optimum via configuration enumeration (Section 7) — fine at
     this size. *)
  let opt = Crs_algorithms.Solver.optimal_makespan instance in
  Printf.printf "Exact optimum: %d steps (GreedyBalance found %d; bound %s)\n"
    opt
    (Execution.makespan trace)
    (Q.to_string (Crs_hypergraph.Bounds.theorem7_bound ~m:(Instance.m instance)))
