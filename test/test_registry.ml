(* Parity and capability tests for the solver registry: every
   registered solver must agree with the direct module call it wraps,
   applicability must reject exactly the documented cases, and witness
   schedules must replay to the reported makespan. *)

open Crs_core
module R = Crs_algorithms.Registry
module H = Crs_kernels.Heuristics

(* Random unit-size instance with an EXACT processor count (Helpers'
   generator draws m >= 2; here we also need m = 1). Granularities are
   mixed per job so the parity sweep covers non-uniform grids. *)
let random_instance_m st m =
  Instance.of_requirements
    (Array.init m (fun _ ->
         Array.init
           (1 + Random.State.int st 3)
           (fun _ -> Helpers.rand_req st (4 + Random.State.int st 8))))

(* The direct, pre-registry entry point for each solver. The parity
   test pins Registry.solve to these — a registry wrapper that silently
   dispatched to the wrong module would fail here. *)
let direct_makespan name instance =
  let module Alg = Crs_kernels in
  if name = R.Names.greedy_balance then Alg.Greedy_balance.makespan instance
  else if name = R.Names.round_robin then Alg.Round_robin.makespan instance
  else if name = R.Names.uniform then H.makespan_of H.uniform instance
  else if name = R.Names.proportional then H.makespan_of H.proportional instance
  else if name = R.Names.staircase then H.makespan_of H.staircase instance
  else if name = R.Names.fewest_remaining_first then
    H.makespan_of H.fewest_remaining_first instance
  else if name = R.Names.largest_requirement_first then
    H.makespan_of H.largest_requirement_first instance
  else if name = R.Names.smallest_requirement_first then
    H.makespan_of H.smallest_requirement_first instance
  else if name = R.Names.optimal then
    if Instance.m instance = 2 then Alg.Opt_two.makespan instance
    else Alg.Opt_config.makespan instance
  else if name = R.Names.opt_two then Alg.Opt_two.makespan instance
  else if name = R.Names.opt_two_pq then Alg.Opt_two_pq.makespan instance
  else if name = R.Names.opt_two_pareto then Alg.Opt_two_pareto.makespan instance
  else if name = R.Names.opt_config then Alg.Opt_config.makespan instance
  else if name = R.Names.brute_force then Alg.Brute_force.makespan instance
  else if name = R.Names.online_greedy_balance then
    H.makespan_of (Online.to_policy Online.greedy_balance) instance
  else if name = R.Names.online_round_robin then
    H.makespan_of (Online.to_policy Online.round_robin) instance
  else Alcotest.fail ("no direct call known for solver " ^ name)

let test_registry_is_complete () =
  Alcotest.(check int) "16 solvers registered" 16 (List.length R.all);
  let sorted = List.sort_uniq compare R.names in
  Alcotest.(check int) "names unique" (List.length R.all) (List.length sorted);
  List.iter
    (fun n ->
      match R.find n with
      | Some s -> Alcotest.(check string) "find returns the named solver" n (R.name s)
      | None -> Alcotest.fail ("find lost solver " ^ n))
    R.names

let test_parity_with_direct_calls () =
  (* Seeded sweep over m in {1,2,3}: whenever a solver accepts the
     instance its registry makespan must equal the direct module call's. *)
  let checked = Hashtbl.create 16 in
  for seed = 1 to 12 do
    List.iter
      (fun m ->
        let st = Random.State.make [| 7 * seed; m |] in
        let instance = random_instance_m st m in
        List.iter
          (fun solver ->
            match R.applicability solver instance with
            | Error _ -> ()
            | Ok () ->
              let out = R.solve solver instance in
              let label =
                Printf.sprintf "%s seed=%d m=%d" (R.name solver) seed m
              in
              Alcotest.(check int) label
                (direct_makespan (R.name solver) instance)
                out.R.makespan;
              Hashtbl.replace checked (R.name solver) ())
          R.all)
      [ 1; 2; 3 ]
  done;
  (* Every solver must have been exercised at least once — a capability
     record that rejects everything would vacuously pass the loop. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " exercised") true (Hashtbl.mem checked n))
    R.names

let test_witness_schedules_replay () =
  let st = Random.State.make [| 42 |] in
  let instance = random_instance_m st 2 in
  List.iter
    (fun solver ->
      match R.applicability solver instance with
      | Error _ -> ()
      | Ok () ->
        let out = R.solve solver instance in
        if R.witness solver then
          match out.R.schedule with
          | None ->
            Alcotest.fail (R.name solver ^ " promises a witness but returned none")
          | Some schedule ->
            Alcotest.(check int)
              (R.name solver ^ " witness replays to reported makespan")
              out.R.makespan
              (Execution.makespan (Execution.run_exn instance schedule))
        else
          Alcotest.(check bool)
            (R.name solver ^ " without witness returns no schedule")
            true (out.R.schedule = None))
    R.all

let test_applicability_rejections () =
  let st = Random.State.make [| 5 |] in
  let m1 = random_instance_m st 1 in
  let m3 = random_instance_m st 3 in
  let opt_two = R.find_exn R.Names.opt_two in
  (match R.applicability opt_two m3 with
  | Error msg ->
    Alcotest.(check bool) "m=3 rejection names the bound" true
      (Helpers.contains ~needle:"m <= 2" msg)
  | Ok () -> Alcotest.fail "opt-two must reject m = 3");
  (match R.applicability opt_two m1 with
  | Error msg ->
    Alcotest.(check bool) "m=1 rejection names the bound" true
      (Helpers.contains ~needle:"m >= 2" msg)
  | Ok () -> Alcotest.fail "opt-two must reject m = 1");
  (* Solving an inapplicable instance is a programming error, not a
     silent wrong answer. *)
  Alcotest.(check bool) "solve on inapplicable instance raises" true
    (try
       ignore (R.solve opt_two m3);
       false
     with Invalid_argument _ -> true);
  (* Policies accept any m, including the degenerate single processor. *)
  List.iter
    (fun (name, _) ->
      match R.applicability (R.find_exn name) m1 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ " should accept m = 1: " ^ msg))
    R.policies

let test_find_unknown () =
  Alcotest.(check bool) "find returns None" true (R.find "no-such-solver" = None);
  Alcotest.(check bool) "find_exn raises with the valid names" true
    (try
       ignore (R.find_exn "no-such-solver");
       false
     with Invalid_argument msg ->
       Helpers.contains ~needle:"no-such-solver" msg
       && Helpers.contains ~needle:R.Names.greedy_balance msg)

let test_counters_populated () =
  let st = Random.State.make [| 11 |] in
  let instance = random_instance_m st 2 in
  let out name = R.solve (R.find_exn name) instance in
  let dp = (out R.Names.opt_two).R.counters in
  Alcotest.(check bool) "opt-two expands DP cells" true
    (dp.R.Counters.states_expanded > 0);
  let cfg = (out R.Names.opt_config).R.counters in
  Alcotest.(check bool) "opt-config enumerates configurations" true
    (cfg.R.Counters.configs_enumerated > 0);
  Alcotest.(check bool) "fuel-aware solvers report ticks" true
    (cfg.R.Counters.fuel_ticks > 0);
  let bf = (out R.Names.brute_force).R.counters in
  Alcotest.(check bool) "brute-force visits nodes" true
    (bf.R.Counters.states_expanded > 0);
  (* Instances that greedy solves optimally are pruned at the root and
     never reach the memo probe, so use the Figure-5 family, where
     greedy is adversarially bad and brute force genuinely searches. *)
  let fig5 = Crs_generators.Adversarial.greedy_balance_family ~m:3 ~blocks:2 () in
  let c = (R.solve (R.find_exn R.Names.brute_force) fig5).R.counters in
  Alcotest.(check bool) "brute-force reports memo hits" true
    (c.R.Counters.memo_hits > 0);
  Alcotest.(check bool) "brute-force reports memo misses" true
    (c.R.Counters.memo_misses > 0);
  Alcotest.(check int) "assoc order is stable"
    6 (List.length (R.Counters.to_assoc dp))

let suite =
  [
    Alcotest.test_case "registry covers all algorithms, names unique" `Quick
      test_registry_is_complete;
    Alcotest.test_case "parity: registry solve == direct module call" `Quick
      test_parity_with_direct_calls;
    Alcotest.test_case "witness schedules replay to the reported makespan" `Quick
      test_witness_schedules_replay;
    Alcotest.test_case "applicability rejects documented cases" `Quick
      test_applicability_rejections;
    Alcotest.test_case "unknown names: find/find_exn" `Quick test_find_unknown;
    Alcotest.test_case "counters populated per solver family" `Quick
      test_counters_populated;
  ]
