(* Tests for the extensions: footnote-3 rescaling, arbitrary sizes,
   continuous time. *)

module Q = Crs_num.Rational
open Crs_core
module X = Crs_extension

let q = Helpers.q

(* ---------- rescaling (footnote 3) ---------- *)

let test_rescale_identity_below_one () =
  let j = X.Rescale.make ~requirement:(q "1/2") ~size:(q "3") in
  let r = X.Rescale.rescale j in
  Alcotest.check Helpers.check_q "requirement kept" (q "1/2") (Job.requirement r);
  Alcotest.check Helpers.check_q "size kept" (q "3") (Job.size r)

let test_rescale_above_one () =
  (* r=2, p=3  ->  r=1, p=6: same work per the paper's footnote. *)
  let j = X.Rescale.make ~requirement:(q "2") ~size:(q "3") in
  let r = X.Rescale.rescale j in
  Alcotest.check Helpers.check_q "requirement capped" Q.one (Job.requirement r);
  Alcotest.check Helpers.check_q "volume scaled" (q "6") (Job.size r);
  Alcotest.check Helpers.check_q "work invariant" (X.Rescale.work j) (Job.work r)

let test_rescale_behavioural_equivalence () =
  (* A requirement-2 job under shares <= 1 progresses at share/2 volume
     per step; the rescaled job at share/1 over twice the volume: same
     completion times under any schedule. *)
  let original =
    (* Emulate r=2 by rescaling; then compare against the direct r=1
       double-volume encoding executed on the same shares. *)
    X.Rescale.rescale_instance [| [| X.Rescale.make ~requirement:(q "2") ~size:Q.one |] |]
  in
  let direct = Instance.create [| [| Job.make ~requirement:Q.one ~size:Q.two |] |] in
  let sched = Helpers.schedule_of_strings [ [ "1" ]; [ "1/2" ]; [ "1/2" ] ] in
  let t1 = Execution.run_exn original sched in
  let t2 = Execution.run_exn direct sched in
  Alcotest.(check int) "same makespan" (Execution.makespan t1) (Execution.makespan t2)

let test_rescale_validation () =
  Alcotest.check_raises "zero requirement"
    (Invalid_argument "Rescale.make: requirement must be > 0") (fun () ->
      ignore (X.Rescale.make ~requirement:Q.zero ~size:Q.one))

(* ---------- general sizes ---------- *)

let test_split_integer_sizes () =
  let inst =
    Instance.create
      [| [| Job.make ~requirement:(q "1/2") ~size:(q "3") |]; [| Job.unit (q "1/4") |] |]
  in
  let split = X.General.split_integer_sizes inst in
  Alcotest.(check int) "3 unit jobs" 3 (Instance.n_i split 0);
  Alcotest.(check bool) "unit sizes" true (Instance.is_unit_size split);
  Alcotest.check Helpers.check_q "work preserved" (Instance.total_work inst)
    (Instance.total_work split);
  Alcotest.check_raises "fractional size rejected"
    (Invalid_argument "General.split_integer_sizes: sizes must be positive integers")
    (fun () ->
      ignore
        (X.General.split_integer_sizes
           (Instance.create [| [| Job.make ~requirement:Q.one ~size:(q "3/2") |] |])))

let test_bracket_optimum () =
  let inst =
    Instance.create
      [|
        [| Job.make ~requirement:(q "1/2") ~size:(q "2") |];
        [| Job.make ~requirement:(q "1/2") ~size:(q "2") |];
      |]
  in
  let lower, upper = X.General.bracket_optimum inst in
  Alcotest.(check bool) "bracket ordered" true (lower <= upper);
  (* Both jobs need 2 volume units at speed cap 1 => >= 2 steps; total
     work 2 => exactly 2 possible only if both run at full speed: their
     requirements sum to 1 so both CAN. *)
  Alcotest.(check int) "lower" 2 lower;
  Alcotest.(check int) "upper" 2 upper

let prop_general_round_robin_vs_bound =
  (* The paper conjectures Theorem 3 transfers to arbitrary sizes; we can
     check the one-sided certified version: RR within 2x of the certified
     lower bound + 1 (the +1 covers the ceiling granularity). *)
  Helpers.qcheck_case ~count:25 "RR within 2*LB + 1 on sized jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let inst = Crs_generators.Random_gen.sized_jobs ~m:3 ~n:3 ~granularity:6 ~max_size:3 st in
      let rr =
        Execution.makespan
          (Execution.run_exn inst (Crs_kernels.Round_robin.schedule inst))
      in
      let lb = Lower_bounds.combined inst in
      rr <= (2 * lb) + 1)

(* ---------- continuous time ---------- *)

let test_continuous_single_job () =
  let inst = Helpers.instance_of_strings [ [ "1/2" ] ] in
  let r = X.Continuous.greedy_balance inst in
  (* Work 1/2 at max rate 1/2 (its own requirement): one time unit. *)
  Alcotest.check Helpers.check_q "makespan 1" Q.one r.X.Continuous.makespan

let test_continuous_beats_discrete () =
  (* Two big jobs on two processors: discrete needs 2 steps, continuous
     gets the second processor started mid-interval... here both have
     requirement 1: continuous also needs 2. Use asymmetric jobs where
     continuity helps. *)
  let inst = Helpers.instance_of_strings [ [ "3/4" ]; [ "3/4" ] ] in
  let r = X.Continuous.greedy_balance inst in
  (* Continuous: job 1 at rate 3/4 finishes at 1; job 2 received 1/4·1,
     then rate 3/4: finishes at 1 + (3/4 - 1/4)/(3/4) = 5/3. *)
  Alcotest.check Helpers.check_q "continuous makespan 5/3" (q "5/3")
    r.X.Continuous.makespan;
  Alcotest.(check int) "discrete takes 2" 2 (Crs_kernels.Greedy_balance.makespan inst);
  Alcotest.check Helpers.check_q "overhead 1/3" (q "1/3")
    (X.Continuous.discretization_overhead inst)

let test_continuous_work_bound () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "1/2" ] ] in
  Alcotest.check Helpers.check_q "bound = max(work, volume)" Q.two
    (X.Continuous.work_lower_bound inst)

let prop_continuous_sound =
  (* Continuous GB usually beats discrete GB but not always (different
     greedy trajectories; the discrete one may luck into a better job
     order), so the sound invariants are: at least the continuous work
     bound, and no worse than the discrete makespan plus the number of
     jobs (each completion event restarts at most one step's worth of
     slack). *)
  Helpers.qcheck_case ~count:40 "continuous GB within sound envelope"
    (Helpers.gen_instance ()) (fun instance ->
      let r = X.Continuous.greedy_balance instance in
      let discrete = Q.of_int (Crs_kernels.Greedy_balance.makespan instance) in
      let slack = Q.of_int (Instance.total_jobs instance) in
      Q.(r.X.Continuous.makespan >= X.Continuous.work_lower_bound instance)
      && Q.(r.X.Continuous.makespan <= Q.add discrete slack))

let prop_continuous_completions_ordered =
  Helpers.qcheck_case ~count:30 "per-processor completion times increase"
    (Helpers.gen_instance ()) (fun instance ->
      let r = X.Continuous.greedy_balance instance in
      Array.for_all
        (fun row ->
          let ok = ref true in
          for k = 0 to Array.length row - 2 do
            let a = row.(k) and b = row.(k + 1) in
            if Q.(a >= b) then ok := false
          done;
          !ok)
        r.X.Continuous.completions)

(* ---------- free assignment (Section 9 outlook) ---------- *)

let test_free_assignment_bracket () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "1/2" ] ] in
  let lb, ub, fixed =
    X.Free_assignment.price_of_fixed_assignment
      ~exact:Crs_algorithms.Solver.optimal_makespan inst
  in
  Alcotest.(check bool) "lb <= fixed" true (lb <= fixed);
  Alcotest.(check bool) "lb <= ub" true (lb <= ub);
  (* Three half-jobs, m=2: both free and fixed need 2 steps. *)
  Alcotest.(check int) "fixed" 2 fixed;
  Alcotest.(check int) "free lb" 2 lb

let test_free_assignment_schedulability () =
  let inst = Helpers.instance_of_strings [ [ "1/2" ]; [ "1/2" ] ] in
  let relax = X.Free_assignment.relaxation inst in
  let nf = Crs_binpack.Splittable.next_fit relax in
  Alcotest.(check bool) "NextFit packings schedulable" true
    (X.Free_assignment.packing_is_schedulable inst nf);
  (* Two parts of one job in a bin is not schedulable. *)
  let bad = { Crs_binpack.Splittable.bins = [ [ (0, q "1/4"); (0, q "1/4") ] ] } in
  Alcotest.(check bool) "same-job bin rejected" false
    (X.Free_assignment.packing_is_schedulable inst bad)

let prop_free_assignment_relaxes =
  Helpers.qcheck_case ~count:40 "free-assignment LB <= fixed OPT; NF schedulable"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let lb, _ub, fixed =
        X.Free_assignment.price_of_fixed_assignment
          ~exact:Crs_kernels.Brute_force.makespan instance
      in
      lb <= fixed
      && X.Free_assignment.packing_is_schedulable instance
           (Crs_binpack.Splittable.next_fit (X.Free_assignment.relaxation instance)))

(* ---------- multiple resources ---------- *)

module MR = X.Multi_resource

let test_multi_resource_validation () =
  Alcotest.(check bool) "bad requirement rejected" true
    (try ignore (MR.job ~requirements:[| q "3/2" |] ~size:Q.one); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "dimension mismatch rejected" true
    (try
       ignore
         (MR.create ~d:2 [| [| MR.unit_job [| Q.half |] |] |]);
       false
     with Invalid_argument _ -> true)

let test_multi_resource_two_resources () =
  (* Two jobs: one bus-heavy, one memory-heavy — they can run at full
     speed together because they stress different resources. *)
  let t =
    MR.create ~d:2
      [|
        [| MR.unit_job [| q "9/10"; q "1/10" |] |];
        [| MR.unit_job [| q "1/10"; q "9/10" |] |];
      |]
  in
  let r = MR.greedy_balance t in
  Alcotest.(check bool) "valid" true (Result.is_ok (MR.check t r));
  Alcotest.(check int) "parallel in one step" 1 r.MR.makespan;
  (* Same jobs forced onto ONE resource would need two steps. *)
  let clash =
    MR.create ~d:2
      [|
        [| MR.unit_job [| q "9/10"; q "1/10" |] |];
        [| MR.unit_job [| q "9/10"; q "1/10" |] |];
      |]
  in
  let rc = MR.greedy_balance clash in
  Alcotest.(check int) "contended resource forces 2 steps" 2 rc.MR.makespan;
  Alcotest.(check int) "lower bound sees the bottleneck" 2 (MR.lower_bound clash)

let test_multi_resource_leontief_gating () =
  (* A job needing (1/2, 1/2) next to one needing (1/2, 0): the second
     resource is free for the second job, but resource 1 gates both. *)
  let t =
    MR.create ~d:2
      [|
        [| MR.unit_job [| Q.half; Q.half |] |];
        [| MR.unit_job [| Q.half; Q.zero |] |];
      |]
  in
  let r = MR.greedy_balance t in
  Alcotest.(check int) "fits in one step" 1 r.MR.makespan;
  Alcotest.(check bool) "valid" true (Result.is_ok (MR.check t r))

let prop_multi_resource_d1_bridge =
  Helpers.qcheck_case ~count:50 "d=1 embedding reproduces core GreedyBalance"
    (Helpers.gen_instance ()) MR.greedy_matches_single_resource

let prop_multi_resource_sound =
  Helpers.qcheck_case ~count:40 "vector greedy: valid runs above the lower bound"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, d) ->
      let st = Random.State.make [| seed |] in
      let m = 2 + Random.State.int st 2 in
      let t =
        MR.create ~d
          (Array.init m (fun _ ->
               Array.init
                 (1 + Random.State.int st 3)
                 (fun _ ->
                   MR.unit_job
                     (Array.init d (fun _ ->
                          Q.of_ints (1 + Random.State.int st 10) 10)))))
      in
      let greedy = MR.greedy_balance t in
      let unif = MR.uniform t in
      Result.is_ok (MR.check t greedy)
      && Result.is_ok (MR.check t unif)
      && greedy.MR.makespan >= MR.lower_bound t
      && unif.MR.makespan >= MR.lower_bound t)

let suite =
  [
    Alcotest.test_case "rescale: r <= 1 untouched" `Quick test_rescale_identity_below_one;
    Alcotest.test_case "rescale: footnote 3" `Quick test_rescale_above_one;
    Alcotest.test_case "rescale: behavioural equivalence" `Quick
      test_rescale_behavioural_equivalence;
    Alcotest.test_case "rescale: validation" `Quick test_rescale_validation;
    Alcotest.test_case "general: unit splitting" `Quick test_split_integer_sizes;
    Alcotest.test_case "general: optimum bracketing" `Quick test_bracket_optimum;
    prop_general_round_robin_vs_bound;
    Alcotest.test_case "continuous: single job" `Quick test_continuous_single_job;
    Alcotest.test_case "continuous: beats discrete" `Quick test_continuous_beats_discrete;
    Alcotest.test_case "continuous: work bound" `Quick test_continuous_work_bound;
    prop_continuous_sound;
    prop_continuous_completions_ordered;
    Alcotest.test_case "free assignment: bracket" `Quick test_free_assignment_bracket;
    Alcotest.test_case "free assignment: schedulability" `Quick
      test_free_assignment_schedulability;
    prop_free_assignment_relaxes;
    Alcotest.test_case "multi-resource: validation" `Quick test_multi_resource_validation;
    Alcotest.test_case "multi-resource: complementary demands" `Quick
      test_multi_resource_two_resources;
    Alcotest.test_case "multi-resource: Leontief gating" `Quick
      test_multi_resource_leontief_gating;
    prop_multi_resource_d1_bridge;
    prop_multi_resource_sound;
  ]
