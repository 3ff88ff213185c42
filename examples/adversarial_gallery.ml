(* Gallery: every figure of the paper, regenerated.

   Run with: dune exec examples/adversarial_gallery.exe *)

module Q = Crs_num.Rational
open Crs_core
module A = Crs_generators.Adversarial

let section title = Printf.printf "\n===== %s =====\n\n" title

let () =
  section "Figure 1 — scheduling hypergraph";
  let trace =
    Execution.run_exn A.figure1
      (Policy.run Crs_kernels.Heuristics.smallest_requirement_first A.figure1)
  in
  print_string (Crs_render.Gantt.render trace);
  let graph = Crs_hypergraph.Sched_graph.of_trace trace in
  Format.printf "@.%a@." Crs_hypergraph.Sched_graph.pp graph;

  section "Figure 2 — nested vs unnested";
  let show name sched =
    let t = Execution.run_exn A.figure2 sched in
    Printf.printf "%s: %s\n" name (Crs_render.Gantt.summary t)
  in
  show "Figure 2b (nested)  " A.figure2_nested_schedule;
  show "Figure 2c (unnested)" A.figure2_unnested_schedule;

  section "Figure 3 / Theorem 3 — RoundRobin worst case";
  Printf.printf "%-6s %-12s %-12s %s\n" "n" "RoundRobin" "Optimal" "ratio";
  List.iter
    (fun n ->
      let instance = A.round_robin_family ~n in
      let rr = Crs_kernels.Round_robin.makespan instance in
      let opt =
        Execution.makespan (Execution.run_exn instance (A.round_robin_family_opt_schedule ~n))
      in
      Printf.printf "%-6d %-12d %-12d %.4f\n" n rr opt
        (float_of_int rr /. float_of_int opt))
    [ 5; 10; 25; 50; 100 ];
  Printf.printf "(ratio tends to 2 as n grows, exactly as Theorem 3 proves)\n";

  section "Figure 4 / Theorem 4 — Partition gadget";
  let demo elements =
    let p = Crs_reduction.Partition.make elements in
    let opt = Crs_kernels.Opt_config.makespan (Crs_reduction.Reduce.to_crsharing p) in
    Printf.printf "elements [%s]: optimal makespan %d => %s\n"
      (String.concat "; " (Array.to_list (Array.map string_of_int elements)))
      opt
      (if opt = Crs_reduction.Reduce.yes_makespan then "YES-instance" else "NO-instance")
  in
  demo [| 1; 2; 3 |];
  demo [| 3; 3; 3; 3; 2 |];

  section "Figure 5 / Theorem 8 — GreedyBalance worst case";
  Printf.printf "The Figure 5 instance (m=3, eps=1/100, 3 blocks):\n%s\n"
    (Instance.to_string A.figure5);
  Printf.printf "%-10s %-14s %-12s %s\n" "m,blocks" "GreedyBalance" "staircase" "ratio";
  List.iter
    (fun (m, blocks) ->
      let instance = A.greedy_balance_family ~m ~blocks () in
      let gb = Crs_kernels.Greedy_balance.makespan instance in
      let stair =
        Crs_kernels.Heuristics.makespan_of Crs_kernels.Heuristics.staircase instance
      in
      Printf.printf "%d,%-8d %-14d %-12d %.4f   (2-1/m = %.4f)\n" m blocks gb stair
        (float_of_int gb /. float_of_int stair)
        (2.0 -. (1.0 /. float_of_int m)))
    [ (2, 4); (2, 16); (3, 4); (3, 12); (4, 8) ]
