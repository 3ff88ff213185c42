(* The paper's motivating scenario (Section 1): a many-core chip whose
   cores share one data bus, running I/O-intensive scientific workloads.
   The bandwidth distribution, not core speed, decides the makespan.

   We simulate 16 cores with bursty I/O tasks, compare bandwidth
   policies, then bridge the workload into the exact CRSharing model to
   certify how far each policy is from any possible schedule.

   Run with: dune exec examples/io_bound_manycore.exe *)

module M = Crs_manycore

let () =
  let st = Random.State.make [| 2014 |] in
  let tasks = M.Workload.io_burst ~cores:16 ~phases:4 ~io_intensity:0.9 st in
  Printf.printf "Workload: %d cores, bursty I/O (Section 1 scenario)\n\n"
    (Array.length tasks);

  let rows =
    List.map
      (fun (p : M.Policy.t) ->
        let r = M.Engine.run p tasks in
        p.name :: M.Stats.to_row (M.Stats.of_result tasks r))
      M.Policy.all
  in
  print_string (Crs_render.Table.render ~header:("policy" :: M.Stats.header) rows);
  print_newline ();

  (* Bridge into the exact model: I/O phases become unit-size CRSharing
     jobs on a rational grid. The certified lower bound then applies to
     EVERY bandwidth policy, simulated or not. *)
  let instance = M.Workload.to_crsharing ~granularity:20 tasks in
  let lb = Crs_core.Lower_bounds.combined instance in
  let gb = Crs_kernels.Greedy_balance.makespan instance in
  Printf.printf
    "Exact-model bridge: %d jobs; no policy can beat %d ticks;\n\
     discrete GreedyBalance achieves %d (certified ratio <= %.3f, proved \
     bound %.3f).\n"
    (Crs_core.Instance.total_jobs instance)
    lb gb
    (float_of_int gb /. float_of_int lb)
    (2.0 -. (1.0 /. float_of_int (Crs_core.Instance.m instance)))
