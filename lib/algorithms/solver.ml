module Q = Crs_num.Rational
open Crs_core
open Crs_kernels

(* Thin policy layer over {!Registry}: picks which registered exact
   solver answers a query; all dispatch and instrumentation lives in the
   registry itself. *)

type exact_method = Dp_two | Config_enum | Dfs_bnb

let solver_of_method = function
  | Dp_two -> Registry.Names.opt_two
  | Config_enum -> Registry.Names.opt_config
  | Dfs_bnb -> Registry.Names.brute_force

let optimal_makespan ?method_ instance =
  let name =
    match method_ with
    | Some m -> solver_of_method m
    | None -> Registry.Names.optimal
  in
  (Registry.solve (Registry.find_exn name) instance).Registry.makespan

let optimal_schedule instance =
  let out = Registry.solve (Registry.find_exn Registry.Names.optimal) instance in
  match out.Registry.schedule with
  | Some schedule -> schedule
  | None -> assert false (* "optimal" is a witness solver *)

let ratio ~algorithm instance =
  let opt = optimal_makespan instance in
  let alg = algorithm instance in
  if opt = 0 then
    if alg = 0 then Q.one
    else
      invalid_arg
        (Printf.sprintf
           "Solver.ratio: optimum is 0 but algorithm took %d steps (ratio undefined)"
           alg)
  else Q.of_ints alg opt

let certified_lower_bound instance =
  let schedule = Greedy_balance.schedule instance in
  let trace = Execution.run_exn instance schedule in
  let graph = Crs_hypergraph.Sched_graph.of_trace trace in
  Crs_hypergraph.Bounds.combined graph instance

let ratio_upper_bound instance =
  let gb = Greedy_balance.makespan instance in
  let lb = certified_lower_bound instance in
  if lb = 0 then Q.one else Q.of_ints gb lb
