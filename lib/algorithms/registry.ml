open Crs_core
open Crs_kernels

module Names = struct
  let greedy_balance = "greedy-balance"
  let round_robin = "round-robin"
  let uniform = "uniform"
  let proportional = "proportional"
  let staircase = "staircase"
  let fewest_remaining_first = "fewest-remaining-first"
  let largest_requirement_first = "largest-requirement-first"
  let smallest_requirement_first = "smallest-requirement-first"
  let optimal = "optimal"
  let opt_two = "opt-two"
  let opt_two_pq = "opt-two-pq"
  let opt_two_pareto = "opt-two-pareto"
  let opt_config = "opt-config"
  let brute_force = "brute-force"
  let online_greedy_balance = "online-greedy-balance"
  let online_round_robin = "online-round-robin"
end

module Counters = struct
  type t = {
    states_expanded : int;
    dp_relaxations : int;
    configs_enumerated : int;
    memo_hits : int;
    memo_misses : int;
    fuel_ticks : int;
  }

  let zero =
    {
      states_expanded = 0;
      dp_relaxations = 0;
      configs_enumerated = 0;
      memo_hits = 0;
      memo_misses = 0;
      fuel_ticks = 0;
    }

  let to_assoc c =
    [
      ("states_expanded", c.states_expanded);
      ("dp_relaxations", c.dp_relaxations);
      ("configs_enumerated", c.configs_enumerated);
      ("memo_hits", c.memo_hits);
      ("memo_misses", c.memo_misses);
      ("fuel_ticks", c.fuel_ticks);
    ]
end

type kind = Exact | Approx | Heuristic | Online

let kind_to_string = function
  | Exact -> "exact"
  | Approx -> "approx"
  | Heuristic -> "heuristic"
  | Online -> "online"

type requires = {
  min_m : int;
  max_m : int option;
  unit_size_only : bool;
  fuel_aware : bool;
}

type outcome = {
  makespan : int;
  schedule : Schedule.t option;
  counters : Counters.t;
}

module type SOLVER = sig
  val name : string
  val kind : kind
  val about : string
  val requires : requires
  val witness : bool
  val solve : Instance.t -> outcome
end

type solver = (module SOLVER)

let any_m = { min_m = 1; max_m = None; unit_size_only = false; fuel_aware = false }

(* A step policy run to completion: witness schedule, no native
   counters (Fuel delta covers nothing — policies don't tick). *)
let of_policy ~name:n ~kind:k ~about:a policy : solver =
  (module struct
    let name = n
    let kind = k
    let about = a
    let requires = any_m
    let witness = true

    let solve instance =
      let schedule = Policy.run policy instance in
      let makespan = Execution.makespan (Execution.run_exn instance schedule) in
      { makespan; schedule = Some schedule; counters = Counters.zero }
  end)

module Opt_two_solver : SOLVER = struct
  let name = Names.opt_two
  let kind = Exact
  let about = "O(n^2) dynamic program for two processors (paper, Algorithm 1)"
  let requires = { min_m = 2; max_m = Some 2; unit_size_only = true; fuel_aware = true }
  let witness = true

  let solve instance =
    let sol = Opt_two.solve instance in
    {
      makespan = sol.Opt_two.makespan;
      schedule = Some sol.Opt_two.schedule;
      counters =
        {
          Counters.zero with
          states_expanded = sol.Opt_two.counters.Opt_two.cells_expanded;
          dp_relaxations = sol.Opt_two.counters.Opt_two.relaxations;
        };
    }
end

module Opt_two_pq_solver : SOLVER = struct
  let name = Names.opt_two_pq
  let kind = Exact
  let about = "priority-queue variant of opt-two; expands only reachable states"
  let requires = { min_m = 2; max_m = Some 2; unit_size_only = true; fuel_aware = true }
  let witness = false

  let solve instance =
    let stats = Opt_two_pq.run instance in
    {
      makespan = stats.Opt_two_pq.makespan;
      schedule = None;
      counters =
        {
          Counters.zero with
          states_expanded = stats.Opt_two_pq.expanded;
          dp_relaxations = stats.Opt_two_pq.relaxations;
        };
    }
end

module Opt_two_pareto_solver : SOLVER = struct
  let name = Names.opt_two_pareto
  let kind = Exact
  let about = "Pareto-frontier DP auditing Lemma 3's sufficient statistic"
  let requires = { min_m = 2; max_m = Some 2; unit_size_only = true; fuel_aware = true }
  let witness = false

  let solve instance =
    let makespan = Opt_two_pareto.makespan instance in
    { makespan; schedule = None; counters = Counters.zero }
end

module Opt_config_solver : SOLVER = struct
  let name = Names.opt_config
  let kind = Exact
  let about = "layered configuration enumeration for any m (paper, Algorithm 2)"
  let requires = { min_m = 1; max_m = None; unit_size_only = true; fuel_aware = true }
  let witness = true

  (* Layer widths are the one figure the root span and the solver.*
     counters do not already carry, so the adapter exports them. *)
  let solve instance =
    let sol = Opt_config.solve instance in
    if Crs_obs.Metrics.enabled () then
      List.iter
        (Crs_obs.Metrics.observe (Crs_obs.Metrics.histogram "opt_config.layer_size"))
        sol.Opt_config.stats.Opt_config.layers;
    {
      makespan = sol.Opt_config.makespan;
      schedule = Some sol.Opt_config.schedule;
      counters =
        {
          Counters.zero with
          states_expanded = List.fold_left ( + ) 0 sol.Opt_config.stats.Opt_config.layers;
          configs_enumerated = sol.Opt_config.stats.Opt_config.generated;
        };
    }
end

module Optimal : SOLVER = struct
  let name = Names.optimal
  let kind = Exact
  let about = "best exact solver for the instance (Opt_two if m = 2, else Opt_config)"
  let requires = { min_m = 1; max_m = None; unit_size_only = true; fuel_aware = true }
  let witness = true

  let solve instance =
    if Instance.m instance = 2 then Opt_two_solver.solve instance
    else Opt_config_solver.solve instance
end

module Brute_force_solver : SOLVER = struct
  let name = Names.brute_force
  let kind = Exact
  let about = "reference DFS branch-and-bound; exponential, tiny instances only"
  let requires = { min_m = 1; max_m = None; unit_size_only = true; fuel_aware = true }
  let witness = false

  let solve instance =
    let makespan, c = Brute_force.solve instance in
    {
      makespan;
      schedule = None;
      counters =
        {
          Counters.zero with
          states_expanded = c.Brute_force.visited;
          memo_hits = c.Brute_force.memo_hits;
          memo_misses = c.Brute_force.memo_misses;
        };
    }
end

let policy_table =
  [
    ( Names.greedy_balance,
      Approx,
      "(2 - 1/m)-approximation; balances remaining job counts (Section 8.3)",
      Greedy_balance.policy );
    ( Names.round_robin,
      Approx,
      "2-approximation; phase-synchronous processor order (Section 4.2)",
      Round_robin.policy );
    (Names.uniform, Heuristic, "equal split among active processors", Policy.uniform);
    ( Names.proportional,
      Heuristic,
      "split proportional to remaining work of active jobs",
      Policy.proportional );
    ( Names.staircase,
      Heuristic,
      "greedy fill by fixed processor priority, highest index first",
      Heuristics.staircase );
    ( Names.fewest_remaining_first,
      Heuristic,
      "greedy fill prioritizing processors with fewer remaining jobs",
      Heuristics.fewest_remaining_first );
    ( Names.largest_requirement_first,
      Heuristic,
      "greedy fill prioritizing the largest active requirement",
      Heuristics.largest_requirement_first );
    ( Names.smallest_requirement_first,
      Heuristic,
      "greedy fill prioritizing the smallest active requirement",
      Heuristics.smallest_requirement_first );
  ]

let online_table =
  [
    ( Names.online_greedy_balance,
      "GreedyBalance through the semi-online view interface",
      Crs_core.Online.greedy_balance );
    ( Names.online_round_robin,
      "RoundRobin through the semi-online view interface",
      Crs_core.Online.round_robin );
  ]

let all : solver list =
  List.map
    (fun (n, k, a, p) -> of_policy ~name:n ~kind:k ~about:a p)
    policy_table
  @ [
      (module Optimal : SOLVER);
      (module Opt_two_solver : SOLVER);
      (module Opt_two_pq_solver : SOLVER);
      (module Opt_two_pareto_solver : SOLVER);
      (module Opt_config_solver : SOLVER);
      (module Brute_force_solver : SOLVER);
    ]
  @ List.map
      (fun (n, a, online) ->
        of_policy ~name:n ~kind:Online ~about:a (Crs_core.Online.to_policy online))
      online_table

let name (solver : solver) =
  let module S = (val solver) in
  S.name

let kind (solver : solver) =
  let module S = (val solver) in
  S.kind

let about (solver : solver) =
  let module S = (val solver) in
  S.about

let requires (solver : solver) =
  let module S = (val solver) in
  S.requires

let witness (solver : solver) =
  let module S = (val solver) in
  S.witness

let names = List.map name all
let find wanted = List.find_opt (fun s -> String.equal (name s) wanted) all

let find_exn wanted =
  match find wanted with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find_exn: unknown solver %S (valid: %s)" wanted
         (String.concat ", " names))

let applicability solver instance =
  let r = requires solver in
  let n = name solver in
  let m = Instance.m instance in
  if m < r.min_m then
    Error (Printf.sprintf "%s requires m >= %d, instance has m = %d" n r.min_m m)
  else
    match r.max_m with
    | Some mx when m > mx ->
      Error (Printf.sprintf "%s requires m <= %d, instance has m = %d" n mx m)
    | _ ->
      if r.unit_size_only && not (Instance.is_unit_size instance) then
        Error (Printf.sprintf "%s requires unit-size jobs" n)
      else Ok ()

(* Certifier hook for the ~certify:true post-pass. The independent
   certifier lives in crs_fuzz (which depends on this library), so it is
   injected as a function rather than called directly; linking
   Crs_fuzz.Certify installs it. *)
let certifier :
    (Instance.t -> Schedule.t -> claimed:int -> (unit, string) result) option ref =
  ref None

let install_certifier f = certifier := Some f

let solve ?(certify = false) solver instance =
  (match applicability solver instance with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Registry.solve: " ^ reason));
  let module S = (val solver : SOLVER) in
  let metered () =
    let before = Crs_util.Fuel.ticks () in
    let out = S.solve instance in
    let spent = Crs_util.Fuel.ticks () - before in
    { out with counters = { out.counters with Counters.fuel_ticks = spent } }
  in
  (* Root span per solve; counters become attributes at close so traces
     carry the same numbers as campaign JSONL. All deterministic (fuel,
     not wall time), so span signatures stay pool-size independent. *)
  let out =
    if Crs_obs.Trace.enabled () then
      Crs_obs.Trace.with_span
        ~attrs:[ ("algorithm", Crs_obs.Trace.Str S.name) ]
        "registry.solve"
        (fun () ->
          let out = metered () in
          Crs_obs.Trace.add_attrs
            (("makespan", Crs_obs.Trace.Int out.makespan)
            :: List.map
                 (fun (k, v) -> (k, Crs_obs.Trace.Int v))
                 (Counters.to_assoc out.counters));
          out)
    else metered ()
  in
  if Crs_obs.Metrics.enabled () then
    List.iter
      (fun (k, v) ->
        Crs_obs.Metrics.add
          (Crs_obs.Metrics.counter (Printf.sprintf "solver.%s.%s" S.name k))
          v)
      (("solves", 1) :: Counters.to_assoc out.counters);
  if certify then begin
    match out.schedule with
    | None -> () (* makespan-only solver: nothing to audit *)
    | Some schedule -> (
      match !certifier with
      | None ->
        failwith
          "Registry.solve: certify requested but no certifier installed \
           (link Crs_fuzz.Certify)"
      | Some audit -> (
        match audit instance schedule ~claimed:out.makespan with
        | Ok () -> ()
        | Error msg ->
          failwith
            (Printf.sprintf "Registry.solve: %s failed certification: %s" S.name
               msg)))
  end;
  out

let policies =
  List.map (fun (n, _, _, p) -> (n, p)) policy_table
  @ List.map (fun (n, _, o) -> (n, Crs_core.Online.to_policy o)) online_table
