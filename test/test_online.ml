(* Tests for the semi-online policy interface. *)

open Crs_core

let test_online_gb_matches_offline () =
  let st = Random.State.make [| 21 |] in
  for _ = 1 to 40 do
    let inst = Helpers.random_instance st in
    let offline = Crs_kernels.Greedy_balance.schedule inst in
    let online = Policy.run (Online.to_policy Online.greedy_balance) inst in
    Alcotest.(check bool) "bit-identical schedules" true (Schedule.equal offline online)
  done

let test_online_rr_matches_offline_equal_rows () =
  let st = Random.State.make [| 22 |] in
  for _ = 1 to 30 do
    let inst = Crs_generators.Random_gen.equal_rows ~m:3 ~n:4 ~granularity:10 st in
    let offline = Crs_kernels.Round_robin.schedule inst in
    let online = Policy.run (Online.to_policy Online.round_robin) inst in
    Alcotest.(check bool) "same schedules on equal queues" true
      (Schedule.equal offline online)
  done

let prop_online_never_beats_offline_opt =
  Helpers.qcheck_case ~count:40 "online GB >= OPT; gap sound"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let online, opt =
        Online.clairvoyance_gap ~exact:Crs_kernels.Brute_force.makespan
          Online.greedy_balance instance
      in
      online >= opt)

let test_online_views () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/4" ]; [] ] in
  let policy : Online.t =
    fun views ->
     Alcotest.(check int) "only active processors" 1 (Array.length views);
     Alcotest.(check int) "proc id" 0 views.(0).Online.proc;
     if views.(0).Online.time = 1 then
       Alcotest.(check int) "jobs behind at start" 1 views.(0).Online.jobs_behind;
     Array.map (fun v -> v.Online.remaining_work) views
  in
  let sched = Policy.run (Online.to_policy policy) inst in
  Alcotest.(check int) "completes in 2 steps" 2 (Schedule.horizon sched)

let test_online_arity_guard () =
  let inst = Helpers.instance_of_strings [ [ "1/2" ] ] in
  let bad : Online.t = fun _ -> [||] in
  Alcotest.check_raises "wrong arity"
    (Failure "Online.to_policy: policy returned wrong arity") (fun () ->
      ignore (Policy.run (Online.to_policy bad) inst))

let suite =
  [
    Alcotest.test_case "online GreedyBalance = offline" `Quick
      test_online_gb_matches_offline;
    Alcotest.test_case "online RoundRobin = offline (equal queues)" `Quick
      test_online_rr_matches_offline_equal_rows;
    prop_online_never_beats_offline_opt;
    Alcotest.test_case "views restrict information" `Quick test_online_views;
    Alcotest.test_case "arity guard" `Quick test_online_arity_guard;
  ]
