(* Stress tests: the linear-time algorithms and exact arithmetic at
   scales well beyond the other suites. *)

module Q = Crs_num.Rational
open Crs_core

let test_greedy_on_large_family () =
  (* m=6, 40 blocks: 240 jobs per processor, 1440 jobs total. *)
  let inst = Crs_generators.Adversarial.greedy_balance_family ~m:6 ~blocks:40 () in
  let gb = Crs_kernels.Greedy_balance.makespan inst in
  Alcotest.(check int) "prediction holds at scale"
    (Crs_generators.Adversarial.greedy_balance_family_predicted ~m:6 ~blocks:40)
    gb;
  Alcotest.(check bool) "above work bound" true (gb >= Lower_bounds.total_work inst)

let test_round_robin_closed_form_large () =
  let inst = Crs_generators.Adversarial.round_robin_family ~n:1000 in
  Alcotest.(check int) "RR = 2n at n=1000" 2000
    (Crs_kernels.Round_robin.predicted_makespan_unit inst);
  let witness =
    Execution.run_exn inst
      (Crs_generators.Adversarial.round_robin_family_opt_schedule ~n:1000)
  in
  Alcotest.(check int) "OPT witness = 1001" 1001 (Execution.makespan witness);
  Alcotest.check Helpers.check_q "witness zero waste" Q.zero
    (Execution.unused_capacity witness)

let test_opt_two_medium () =
  let st = Random.State.make [| 77 |] in
  let rows =
    Array.init 2 (fun _ ->
        Array.init 150 (fun _ -> Q.of_ints (1 + Random.State.int st 100) 100))
  in
  let inst = Instance.of_requirements rows in
  let dp = Crs_kernels.Opt_two.makespan inst in
  let pq = Crs_kernels.Opt_two_pq.makespan inst in
  Alcotest.(check int) "dp = pq at n=150" dp pq;
  Alcotest.(check bool) "within bounds" true
    (dp >= Lower_bounds.combined inst && dp <= 300)

let test_bignum_large_ops () =
  let module N = Crs_num.Natural in
  (* 2000-bit arithmetic: (2^a - 1)(2^b - 1) divmod checks. *)
  let a = N.sub (N.shift_left N.one 1000) N.one in
  let b = N.sub (N.shift_left N.one 997) N.one in
  let p = N.mul a b in
  let q, r = N.divmod p b in
  Alcotest.(check bool) "divmod exact at 2000 bits" true (N.equal q a && N.is_zero r);
  let g = N.gcd p a in
  Alcotest.(check bool) "gcd(p, a) = a" true (N.equal g a);
  (* Harmonic sum: denominators with hundreds of digits. *)
  let h = Q.sum (List.init 300 (fun i -> Q.of_ints 1 (i + 1))) in
  Alcotest.(check bool) "harmonic sum sane" true
    Q.(h > Q.of_int 6 && h < Q.of_int 7)

let test_continuous_large () =
  let inst = Crs_generators.Adversarial.greedy_balance_family ~m:4 ~blocks:15 () in
  let r = Crs_extension.Continuous.greedy_balance inst in
  Alcotest.(check bool) "continuous >= work bound" true
    Q.(r.Crs_extension.Continuous.makespan >= Crs_extension.Continuous.work_lower_bound inst);
  (* Each event completes >= 1 job; simultaneous completions merge. *)
  let events = List.length r.Crs_extension.Continuous.events in
  Alcotest.(check bool) "at most one event per job" true
    (events >= 1 && events <= Instance.total_jobs inst)

let test_simulator_large () =
  let st = Random.State.make [| 88 |] in
  let tasks = Crs_manycore.Workload.io_burst ~cores:64 ~phases:6 ~io_intensity:0.9 st in
  let r = Crs_manycore.Engine.run Crs_manycore.Policy.greedy_balance tasks in
  Alcotest.(check bool) "64-core run completes" true (r.Crs_manycore.Engine.makespan > 0)

let test_executor_seeded_stress () =
  (* Hundreds of variable-cost tasks (cost spread over two orders of
     magnitude, seeded) on an oversubscribed executor, repeated across
     distinct steal schedules: results must equal the sequential map
     element-for-element every time. This is the torture version of the
     campaign determinism contract, aimed at the deque's pop-vs-steal
     races rather than at solver behavior. *)
  let st = Random.State.make [| 4099 |] in
  let n = 600 in
  let costs =
    Array.init n (fun i -> (i, 50 + Random.State.int st 5000))
  in
  let work (i, c) =
    let acc = ref i in
    for k = 1 to c do
      acc := (!acc * 1103515245) + k
    done;
    (i, !acc)
  in
  let expect = Array.map work costs in
  for round = 1 to 3 do
    let domains = [| 2; 4; 8 |].(round - 1) in
    let got = Crs_exec.Exec.map ~domains work costs in
    Alcotest.(check bool)
      (Printf.sprintf "round %d (%d domains): order-preserving" round domains)
      true (got = expect)
  done

let suite =
  [
    Alcotest.test_case "greedy-balance on 1440 jobs" `Slow test_greedy_on_large_family;
    Alcotest.test_case "round-robin closed form at n=1000" `Slow
      test_round_robin_closed_form_large;
    Alcotest.test_case "opt-two at n=150" `Slow test_opt_two_medium;
    Alcotest.test_case "bignum at 2000 bits" `Slow test_bignum_large_ops;
    Alcotest.test_case "continuous greedy at scale" `Slow test_continuous_large;
    Alcotest.test_case "simulator at 64 cores" `Slow test_simulator_large;
    Alcotest.test_case "executor seeded variable-cost stress" `Slow
      test_executor_seeded_stress;
  ]
