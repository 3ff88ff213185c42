(* Benchmark & experiment harness.

   The paper has no measured tables; its evaluation artifacts are
   Figures 1-5 and Theorems 3-8. Each experiment below regenerates the
   corresponding series and prints it next to the paper's claim (see
   DESIGN.md section 5 for the index and EXPERIMENTS.md for recorded
   results). Run `dune exec bench/main.exe` for all experiments, pass an
   experiment id (f1 f2 f3 f4 f5 t3 t5 t6 t7 l56 mc ext bp dc fa mr
   ablation campaign registry num obs dp) to run one, `micro` for the
   Bechamel runtime micro-benchmarks, or `smoke` for a tiny-n pass over
   the gated experiments (num obs dp registry) that judges no timing
   gates — this is what `dune build @bench-smoke` runs. `num` also
   accepts `--check` (fast differential sample only) and
   `--record-baseline` (write data/num_baseline.json for the speedup
   gate). *)

module Q = Crs_num.Rational
open Crs_core
module A = Crs_generators.Adversarial
module T = Crs_render.Table
module R = Crs_algorithms.Registry

(* Name-based dispatch through the solver registry; experiments that
   exercise a specific implementation detail (pruning flags, tie-break
   variants) keep their direct module calls. *)
let solve_by name instance = (R.solve (R.find_exn name) instance).R.makespan

let banner id title claim =
  Printf.printf "\n=== %s: %s ===\npaper: %s\n\n" (String.uppercase_ascii id) title claim

(* ---------- F1: Figure 1, hypergraph ---------- *)

let exp_f1 () =
  banner "f1" "scheduling hypergraph of Figure 1"
    "6 edges e1..e6 grouped into components C1..C3 (left to right)";
  let schedule =
    Policy.run Crs_kernels.Heuristics.smallest_requirement_first A.figure1
  in
  let trace = Execution.run_exn A.figure1 schedule in
  let g = Crs_hypergraph.Sched_graph.of_trace trace in
  Format.printf "%a@." Crs_hypergraph.Sched_graph.pp g;
  Printf.printf "Lemma 5 bound %d, Lemma 6 bound %d, exact optimum %d\n"
    (Crs_hypergraph.Bounds.lemma5 g)
    (Crs_hypergraph.Bounds.lemma6_int g)
    (Crs_algorithms.Solver.optimal_makespan A.figure1)

(* ---------- F2: Figure 2, nested vs unnested ---------- *)

let exp_f2 () =
  banner "f2" "nested vs unnested schedules (Figure 2)"
    "both schedules non-wasting and progressive; only 2b nested";
  let row name sched =
    let trace = Execution.run_exn A.figure2 sched in
    let flag p = if p trace then "yes" else "no" in
    [
      name;
      string_of_int (Execution.makespan trace);
      flag Properties.is_non_wasting;
      flag Properties.is_progressive;
      flag Properties.is_nested;
    ]
  in
  print_string
    (T.render
       ~header:[ "schedule"; "makespan"; "non-wasting"; "progressive"; "nested" ]
       [
         row "Figure 2b" A.figure2_nested_schedule;
         row "Figure 2c" A.figure2_unnested_schedule;
       ])

(* ---------- F3 / T3 lower-bound family ---------- *)

let exp_f3 () =
  banner "f3" "RoundRobin worst-case family (Figure 3)"
    "RoundRobin needs 2n steps, OPT n+1; ratio tends to 2";
  let rows =
    List.map
      (fun n ->
        let instance = A.round_robin_family ~n in
        let rr = Crs_kernels.Round_robin.makespan instance in
        let witness =
          Execution.makespan
            (Execution.run_exn instance (A.round_robin_family_opt_schedule ~n))
        in
        let prr, popt = A.round_robin_family_predicted ~n in
        [
          string_of_int n;
          string_of_int rr;
          string_of_int prr;
          string_of_int witness;
          string_of_int popt;
          Printf.sprintf "%.4f" (float_of_int rr /. float_of_int witness);
        ])
      [ 5; 10; 25; 50; 100; 250 ]
  in
  print_string
    (T.render
       ~header:[ "n"; "RR"; "RR(pred)"; "OPT"; "OPT(pred)"; "ratio" ]
       rows)

(* ---------- T3: RoundRobin ratio on random instances ---------- *)

let exp_t3 () =
  banner "t3" "Theorem 3 on random instances"
    "RoundRobin <= 2 OPT always (worst case exactly 2)";
  let st = Random.State.make [| 303 |] in
  let trials = 150 in
  let worst = ref Q.zero in
  let sum = ref 0.0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 2; jobs_max = 4 }
        st
    in
    let rr = solve_by R.Names.round_robin instance in
    let opt = solve_by R.Names.opt_two instance in
    let ratio = Q.of_ints rr opt in
    if Q.(ratio > !worst) then worst := ratio;
    sum := !sum +. Q.to_float ratio
  done;
  Printf.printf "%d random 2-processor instances: mean ratio %.3f, worst %.3f (bound 2.0)\n"
    trials (!sum /. float_of_int trials) (Q.to_float !worst);
  assert Q.(!worst <= Q.two)

(* ---------- F4: Theorem 4 gadget ---------- *)

let exp_f4 () =
  banner "f4" "Partition reduction (Figure 4 / Theorem 4 / Corollary 1)"
    "optimal makespan 4 iff YES; NO forces >= 5 (5/4 gap)";
  let st = Random.State.make [| 404 |] in
  let rows = ref [] in
  let add p =
    let truth = Crs_reduction.Partition.is_yes p in
    let opt =
      Crs_kernels.Opt_config.makespan (Crs_reduction.Reduce.to_crsharing p)
    in
    rows :=
      [
        String.concat ";"
          (Array.to_list (Array.map string_of_int p.Crs_reduction.Partition.elements));
        (if truth then "YES" else "NO");
        string_of_int opt;
        (if (opt = 4) = truth then "ok" else "MISMATCH");
      ]
      :: !rows
  in
  add (Crs_reduction.Partition.make [| 1; 2; 3 |]);
  add (Crs_reduction.Partition.make [| 3; 3; 3; 3; 2 |]);
  for _ = 1 to 4 do
    add (Crs_reduction.Partition.random_yes ~n:4 ~max_value:9 st)
  done;
  for _ = 1 to 3 do
    add (Crs_reduction.Partition.random_no ~n:5 ~max_value:7 st)
  done;
  print_string
    (T.render ~header:[ "elements"; "partition"; "opt makespan"; "agree" ]
       (List.rev !rows))

(* ---------- F5 / T8: GreedyBalance worst case ---------- *)

let exp_f5 () =
  banner "f5" "GreedyBalance worst-case family (Figure 5 / Theorem 8)"
    "GreedyBalance spends 2m-1 steps per block, OPT ~m; ratio tends to 2-1/m";
  let rows =
    List.map
      (fun (m, blocks) ->
        let instance = A.greedy_balance_family ~m ~blocks () in
        let gb = solve_by R.Names.greedy_balance instance in
        let pred = A.greedy_balance_family_predicted ~m ~blocks in
        let stair = solve_by R.Names.staircase instance in
        let lb = Lower_bounds.combined instance in
        [
          Printf.sprintf "%d" m;
          Printf.sprintf "%d" blocks;
          string_of_int gb;
          string_of_int pred;
          string_of_int stair;
          string_of_int lb;
          Printf.sprintf "%.4f" (float_of_int gb /. float_of_int stair);
          Printf.sprintf "%.4f" (2.0 -. (1.0 /. float_of_int m));
        ])
      [ (2, 2); (2, 8); (2, 32); (3, 3); (3, 9); (3, 27); (4, 4); (4, 16); (5, 10) ]
  in
  print_string
    (T.render
       ~header:
         [ "m"; "blocks"; "GB"; "GB(pred)"; "staircase"; "work-LB"; "ratio"; "2-1/m" ]
       rows)

(* ---------- T5: two-processor exact algorithm ---------- *)

let exp_t5 () =
  banner "t5" "OptResAssignment (Theorem 5)"
    "optimal for m=2, O(n^2) time; the PQ variant visits fewer states";
  let st = Random.State.make [| 505 |] in
  let agree = ref 0 in
  let trials = 100 in
  for _ = 1 to trials do
    let instance = Helpers_bench.random_two_proc st 3 in
    if
      Crs_kernels.Opt_two.makespan instance
      = Crs_kernels.Brute_force.makespan instance
    then incr agree
  done;
  Printf.printf "agreement with brute force: %d/%d\n\n" !agree trials;
  let rows =
    List.map
      (fun n ->
        let instance = Helpers_bench.random_two_proc ~n st 0 in
        let t0 = Unix.gettimeofday () in
        let ms = Crs_kernels.Opt_two.makespan instance in
        let dt_arr = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        let pq = Crs_kernels.Opt_two_pq.run instance in
        let dt_pq = Unix.gettimeofday () -. t0 in
        assert (ms = pq.Crs_kernels.Opt_two_pq.makespan);
        let expanded = pq.Crs_kernels.Opt_two_pq.expanded in
        [
          string_of_int n;
          string_of_int ms;
          Printf.sprintf "%.1f" (dt_arr *. 1000.);
          Printf.sprintf "%.1f" (dt_pq *. 1000.);
          Printf.sprintf "%d" ((n + 1) * (n + 1));
          string_of_int expanded;
        ])
      [ 25; 50; 100; 200; 400 ]
  in
  print_string
    (T.render
       ~header:[ "n per proc"; "OPT"; "array ms"; "pq ms"; "table states"; "pq states" ]
       rows);
  (* Lemma 3 audit: how large do Pareto frontiers get when we refuse to
     collapse each cell to the lexicographic best pair? *)
  let st = Random.State.make [| 515 |] in
  Printf.printf "\nLemma 3 audit (Pareto frontier per DP cell):\n";
  List.iter
    (fun n ->
      let instance = Helpers_bench.random_two_proc ~n st 0 in
      let lex = Crs_kernels.Opt_two.makespan instance in
      let pareto = Crs_kernels.Opt_two_pareto.makespan instance in
      let mx, mean = Crs_kernels.Opt_two_pareto.frontier_sizes instance in
      Printf.printf
        "  n=%-4d lex OPT %d = pareto OPT %d | frontier max %d, mean %.2f\n" n lex
        pareto mx mean;
      assert (lex = pareto))
    [ 10; 20; 40 ]

(* ---------- T6: configuration enumeration ---------- *)

let exp_t6 () =
  banner "t6" "OptResAssignment2 (Theorem 6)"
    "optimal for fixed m; domination pruning keeps layers polynomial";
  let st = Random.State.make [| 606 |] in
  let rows =
    List.concat_map
      (fun m ->
        List.map
          (fun n ->
            let instance =
              Crs_generators.Random_gen.equal_rows ~m ~n ~granularity:10 st
            in
            let sol = Crs_kernels.Opt_config.solve instance in
            let sol_np = Crs_kernels.Opt_config.solve ~prune:false instance in
            assert (sol.Crs_kernels.Opt_config.makespan = sol_np.Crs_kernels.Opt_config.makespan);
            let stats = sol.Crs_kernels.Opt_config.stats in
            let stats_np = sol_np.Crs_kernels.Opt_config.stats in
            let max_layer = List.fold_left max 0 stats.Crs_kernels.Opt_config.layers in
            let max_layer_np =
              List.fold_left max 0 stats_np.Crs_kernels.Opt_config.layers
            in
            [
              string_of_int m;
              string_of_int n;
              string_of_int sol.Crs_kernels.Opt_config.makespan;
              string_of_int stats.Crs_kernels.Opt_config.generated;
              string_of_int max_layer;
              string_of_int stats_np.Crs_kernels.Opt_config.generated;
              string_of_int max_layer_np;
            ])
          [ 2; 3; 4 ])
      [ 2; 3; 4 ]
  in
  print_string
    (T.render
       ~header:
         [ "m"; "n"; "OPT"; "generated"; "max layer"; "gen (no prune)"; "layer (no prune)" ]
       rows)

(* ---------- T7: balanced schedules are (2-1/m)-approximations ---------- *)

let exp_t7 () =
  banner "t7" "Theorem 7 on random instances"
    "GreedyBalance <= (2 - 1/m) OPT for every balanced schedule";
  let st = Random.State.make [| 707 |] in
  let rows =
    List.map
      (fun m ->
        let trials = if m = 2 then 120 else 60 in
        let worst = ref 1.0 and sum = ref 0.0 in
        for _ = 1 to trials do
          let instance =
            Crs_generators.Random_gen.instance
              ~spec:
                { Crs_generators.Random_gen.default_spec with m; jobs_min = 1; jobs_max = 3 }
              st
          in
          let gb = Crs_kernels.Greedy_balance.makespan instance in
          let opt =
            if m = 2 then Crs_kernels.Opt_two.makespan instance
            else Crs_kernels.Brute_force.makespan instance
          in
          let r = float_of_int gb /. float_of_int opt in
          if r > !worst then worst := r;
          sum := !sum +. r
        done;
        [
          string_of_int m;
          string_of_int trials;
          Printf.sprintf "%.3f" (!sum /. float_of_int trials);
          Printf.sprintf "%.3f" !worst;
          Printf.sprintf "%.3f" (2.0 -. (1.0 /. float_of_int m));
        ])
      [ 2; 3; 4 ]
  in
  print_string
    (T.render ~header:[ "m"; "trials"; "mean ratio"; "worst ratio"; "bound 2-1/m" ] rows)

(* ---------- L56: component lower bounds ---------- *)

let exp_l56 () =
  banner "l56" "Lemma 5 / Lemma 6 lower bounds"
    "OPT >= sum(#k - 1) and OPT >= n >= sum |Ck|/qk + |CN|/m on balanced schedules";
  let st = Random.State.make [| 56 |] in
  let trials = 100 in
  let ok = ref 0 in
  let tight5 = ref 0 and tight6 = ref 0 and tight_any = ref 0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
        st
    in
    let opt = Crs_kernels.Brute_force.makespan instance in
    let trace =
      Execution.run_exn instance (Crs_kernels.Greedy_balance.schedule instance)
    in
    let g = Crs_hypergraph.Sched_graph.of_trace trace in
    let l5 = Crs_hypergraph.Bounds.lemma5 g in
    let l6 = Crs_hypergraph.Bounds.lemma6_int g in
    let comb = Crs_hypergraph.Bounds.combined g instance in
    if l5 <= opt && l6 <= opt then incr ok;
    if l5 = opt then incr tight5;
    if l6 = opt then incr tight6;
    if comb = opt then incr tight_any
  done;
  Printf.printf
    "%d instances: bounds sound on %d; Lemma5 tight %d, Lemma6 tight %d, best-of-all \
     tight %d\n"
    trials !ok !tight5 !tight6 !tight_any

(* ---------- MC: the many-core scenario ---------- *)

let exp_mc () =
  banner "mc" "many-core bus simulation (Section 1 scenario)"
    "bandwidth distribution decides makespan; greedy balancing wins";
  let st = Random.State.make [| 1 |] in
  List.iter
    (fun (wname, tasks) ->
      Printf.printf "-- workload: %s --\n" wname;
      let rows =
        List.map
          (fun (p : Crs_manycore.Policy.t) ->
            let r = Crs_manycore.Engine.run p tasks in
            p.name :: Crs_manycore.Stats.to_row (Crs_manycore.Stats.of_result tasks r))
          Crs_manycore.Policy.all
      in
      print_string
        (T.render ~header:("policy" :: Crs_manycore.Stats.header) rows);
      let instance = Crs_manycore.Workload.to_crsharing ~granularity:20 tasks in
      Printf.printf "exact-model lower bound (any policy): %d ticks\n\n"
        (Lower_bounds.combined instance))
    [
      ("io-burst (12 cores)", Crs_manycore.Workload.io_burst ~cores:12 ~phases:4 ~io_intensity:0.8 st);
      ("mixed-vm (9 cores)", Crs_manycore.Workload.mixed_vm ~cores:9 st);
      ("streaming (8 cores)", Crs_manycore.Workload.streaming ~cores:8 ~length:8.0 st);
    ]

(* ---------- EXT: extensions ---------- *)

let exp_ext () =
  banner "ext" "extensions (Section 9 outlook)"
    "conjecture: results transfer to arbitrary sizes; continuous time removes the \
     step-boundary cost";
  let st = Random.State.make [| 909 |] in
  let trials = 60 in
  let worst_rr = ref 1.0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.sized_jobs ~m:3 ~n:3 ~granularity:8 ~max_size:3 st
    in
    let r =
      Q.to_float
        (Crs_extension.General.ratio_vs_lower_bound
           (fun i ->
             Execution.makespan (Execution.run_exn i (Crs_kernels.Round_robin.schedule i)))
           instance)
    in
    if r > !worst_rr then worst_rr := r
  done;
  Printf.printf
    "sized jobs (%d trials): worst RoundRobin / certified-LB ratio %.3f (conjectured \
     bound 2)\n"
    trials !worst_rr;
  let overhead_pos = ref 0 and overhead_neg = ref 0 in
  let total_overhead = ref 0.0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 4 }
        st
    in
    let o = Q.to_float (Crs_extension.Continuous.discretization_overhead instance) in
    total_overhead := !total_overhead +. o;
    if o > 0.0 then incr overhead_pos else if o < 0.0 then incr overhead_neg
  done;
  Printf.printf
    "continuous vs discrete GreedyBalance (%d trials): mean overhead %.3f steps \
     (positive on %d, negative on %d)\n"
    trials
    (!total_overhead /. float_of_int trials)
    !overhead_pos !overhead_neg

(* ---------- BP: splittable bin packing baseline ---------- *)

let exp_bp () =
  banner "bp" "splittable bin packing with cardinality constraints (Section 2 baseline)"
    "NextFit is an absolute (2 - 1/k)-approximation (Chung et al.; Epstein & van Stee)";
  let module S = Crs_binpack.Splittable in
  let st = Random.State.make [| 111 |] in
  let rows =
    List.map
      (fun k ->
        let trials = 60 in
        let worst = ref 1.0 in
        for _ = 1 to trials do
          let n = 4 + Random.State.int st 12 in
          let sizes =
            Array.init n (fun _ -> Q.of_ints (1 + Random.State.int st 30) 10)
          in
          let t = S.make ~k sizes in
          let nf = S.num_bins (S.next_fit t) in
          let r = float_of_int nf /. float_of_int (max 1 (S.lower_bound t)) in
          if r > !worst then worst := r
        done;
        [
          string_of_int k;
          string_of_int trials;
          Printf.sprintf "%.3f" !worst;
          Printf.sprintf "%.3f" (Q.to_float (S.next_fit_guarantee ~k));
        ])
      [ 2; 3; 4; 6 ]
  in
  print_string
    (T.render ~header:[ "k"; "trials"; "worst NF/LB"; "bound 2-1/k" ] rows);
  (* The interleaved family with certified OPT. *)
  let rows =
    List.map
      (fun n ->
        let t = S.interleave_family ~n in
        let nf = S.num_bins (S.next_fit t) in
        let nfd = S.num_bins (S.next_fit_decreasing t) in
        let opt = S.interleave_family_opt ~n in
        [
          string_of_int n;
          string_of_int nf;
          string_of_int nfd;
          string_of_int opt;
          Printf.sprintf "%.4f" (float_of_int nf /. float_of_int opt);
        ])
      [ 6; 12; 24; 48; 96 ]
  in
  Printf.printf "\ninterleaved family (k=2, certified OPT = n):\n";
  print_string (T.render ~header:[ "n"; "NF"; "NF-decreasing"; "OPT"; "NF/OPT" ] rows);
  (* The relaxation as a CRSharing bound. *)
  let st = Random.State.make [| 112 |] in
  let trials = 60 in
  let tight = ref 0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
        st
    in
    let opt = Crs_kernels.Brute_force.makespan instance in
    if S.crsharing_relaxation_bound instance = opt then incr tight
  done;
  Printf.printf
    "\nCRSharing relaxation: bound equals the true optimum on %d/%d random instances\n"
    !tight trials

(* ---------- DC: discrete-continuous baseline ---------- *)

let exp_dc () =
  banner "dc" "discrete-continuous scheduling with power rates (Section 2 baseline)"
    "convex f: one job at a time optimal; concave f: parallel optimal (Jozefowska & \
     Weglarz)";
  let module D = Crs_discont.Discont in
  let workloads = [| 4.0; 2.0; 1.0; 1.0 |] in
  let rows =
    List.map
      (fun alpha ->
        let t = D.make ~m:4 ~alpha workloads in
        let seq = D.sequential_makespan t in
        let par = D.parallel_makespan t in
        let winner =
          if Float.abs (seq -. par) < 1e-9 then "tie"
          else if seq < par then "sequential"
          else "parallel"
        in
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.3f" seq;
          Printf.sprintf "%.3f" par;
          winner;
        ])
      [ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 3.0 ]
  in
  print_string
    (T.render ~header:[ "alpha"; "sequential"; "parallel"; "winner" ] rows);
  Printf.printf "(crossover at alpha = 1, as the analytical results predict)\n\n";
  (* n > m: the heuristic regime the literature addresses. *)
  let st = Random.State.make [| 113 |] in
  let rows =
    List.map
      (fun alpha ->
        let mean = ref 0.0 in
        let trials = 30 in
        for _ = 1 to trials do
          let n = 6 + Random.State.int st 6 in
          let ws = Array.init n (fun _ -> 0.5 +. Random.State.float st 3.0) in
          let t = D.make ~m:3 ~alpha ws in
          let h = (D.list_heuristic t).D.makespan in
          let seq = D.sequential_makespan t in
          mean := !mean +. (h /. seq)
        done;
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.3f" (!mean /. 30.0);
        ])
      [ 0.25; 0.5; 0.75; 1.0; 1.5 ]
  in
  print_string
    (T.render ~header:[ "alpha"; "heuristic/sequential (m=3, n>m)" ] rows)

(* ---------- FA: price of fixed assignment ---------- *)

let exp_fa () =
  banner "fa" "price of fixed assignment (Section 9 outlook)"
    "dropping the job-to-processor binding turns CRSharing into splittable bin packing";
  let st = Random.State.make [| 114 |] in
  let trials = 80 in
  let zero_gap = ref 0 and sum_gap = ref 0 and max_gap = ref 0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
        st
    in
    let lb, _ub, fixed =
      Crs_extension.Free_assignment.price_of_fixed_assignment
        ~exact:Crs_kernels.Brute_force.makespan instance
    in
    let gap = fixed - lb in
    if gap = 0 then incr zero_gap;
    sum_gap := !sum_gap + gap;
    if gap > !max_gap then max_gap := gap
  done;
  Printf.printf
    "%d random instances (m=3): fixed OPT equals the free-assignment lower bound on \
     %d; mean gap %.2f steps, max %d\n"
    trials !zero_gap
    (float_of_int !sum_gap /. float_of_int trials)
    !max_gap;
  (* The family where fixed assignment genuinely hurts: the Theorem 8
     blocks force balancing costs the relaxation does not pay. *)
  List.iter
    (fun (m, blocks) ->
      let instance = A.greedy_balance_family ~m ~blocks () in
      let lb = Crs_extension.Free_assignment.lower_bound instance in
      let ub = Crs_extension.Free_assignment.upper_bound instance in
      let gb = Crs_kernels.Greedy_balance.makespan instance in
      Printf.printf
        "Theorem-8 family m=%d blocks=%d: free in [%d, %d], fixed GreedyBalance %d\n" m
        blocks lb ub gb)
    [ (3, 5); (4, 5) ]

(* ---------- MR: multiple shared resources ---------- *)

let exp_mr () =
  banner "mr" "several shared continuous resources (Section 9 extension)"
    "Leontief jobs; complementary demands overlap, contended resources gate";
  let module MR = Crs_extension.Multi_resource in
  let st = Random.State.make [| 115 |] in
  let rows =
    List.concat_map
      (fun d ->
        List.map
          (fun correlated ->
            let trials = 30 in
            let sum_ratio = ref 0.0 in
            for _ = 1 to trials do
              let m = 3 in
              let t =
                MR.create ~d
                  (Array.init m (fun _ ->
                       Array.init
                         (2 + Random.State.int st 2)
                         (fun _ ->
                           let base = Q.of_ints (1 + Random.State.int st 10) 10 in
                           MR.unit_job
                             (Array.init d (fun k ->
                                  if correlated || k = 0 then base
                                  else Q.of_ints (1 + Random.State.int st 10) 10)))))
              in
              let greedy = MR.greedy_balance t in
              sum_ratio :=
                !sum_ratio
                +. (float_of_int greedy.MR.makespan /. float_of_int (max 1 (MR.lower_bound t)))
            done;
            [
              string_of_int d;
              (if correlated then "correlated" else "independent");
              Printf.sprintf "%.3f" (!sum_ratio /. 30.0);
            ])
          [ true; false ])
      [ 1; 2; 3 ]
  in
  print_string
    (T.render ~header:[ "resources d"; "demands"; "mean greedy/LB" ] rows);
  Printf.printf
    "(correlated demands behave like d=1; independent demands leave more parallel \
     slack per resource, and greedy exploits it)\n"

(* ---------- ablation: design choices ---------- *)

let exp_ablation () =
  banner "ablation" "design-choice ablations"
    "tie-breaking in GreedyBalance; PQ vs table DP; domination pruning (see t5/t6)";
  let st = Random.State.make [| 808 |] in
  let variants : (string * Policy.t) list =
    [
      ("paper (larger remaining first)", Crs_kernels.Greedy_balance.policy);
      ( "smaller remaining first",
        Policy.greedy_fill ~by:(fun s a b ->
            let ja = Policy.jobs_remaining s a and jb = Policy.jobs_remaining s b in
            if ja <> jb then ja > jb
            else begin
              let wa = Policy.remaining_work s a and wb = Policy.remaining_work s b in
              Q.(wa < wb)
            end) );
      ( "index tie-break",
        Policy.greedy_fill ~by:(fun s a b ->
            let ja = Policy.jobs_remaining s a and jb = Policy.jobs_remaining s b in
            if ja <> jb then ja > jb else a < b) );
    ]
  in
  let trials = 80 in
  let instances =
    List.init trials (fun _ ->
        Crs_generators.Random_gen.instance
          ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
          st)
  in
  let opts = List.map Crs_kernels.Brute_force.makespan instances in
  let rows =
    List.map
      (fun (name, policy) ->
        let worst = ref 1.0 and sum = ref 0.0 in
        List.iter2
          (fun instance opt ->
            let ms = Crs_kernels.Heuristics.makespan_of policy instance in
            let r = float_of_int ms /. float_of_int opt in
            if r > !worst then worst := r;
            sum := !sum +. r)
          instances opts;
        [
          name;
          Printf.sprintf "%.3f" (!sum /. float_of_int trials);
          Printf.sprintf "%.3f" !worst;
        ])
      variants
  in
  print_string (T.render ~header:[ "tie-breaking"; "mean ratio"; "worst ratio" ] rows);
  (* On the Theorem 8 family the tie-breaking is immaterial (the job
     counts drive the balancing), but adversaries for other rules exist;
     the bound 2-1/m holds for ALL of them by Theorem 7. *)
  let fam = A.greedy_balance_family ~m:3 ~blocks:6 () in
  List.iter
    (fun (name, policy) ->
      Printf.printf "Theorem-8 family m=3 blocks=6: %-32s -> %d steps\n" name
        (Crs_kernels.Heuristics.makespan_of policy fam))
    variants

(* ---------- campaign: parallel batch-evaluation subsystem ---------- *)

let exp_campaign () =
  banner "campaign" "work-stealing campaign executor (sequential vs parallel)"
    "greedy-vs-opt ratio sweeps (t5/t6 style) fan out across the Chase-Lev \
     work-stealing executor; payloads and trace signatures are byte-identical \
     at any pool size";
  let module C = Crs_campaign in
  let spec =
    {
      C.Spec.family = C.Spec.Uniform;
      m = 3;
      n = 4;
      granularity = 10;
      seed_lo = 1;
      seed_hi = 60;
      algorithms =
        [
          Crs_algorithms.Registry.Names.greedy_balance;
          Crs_algorithms.Registry.Names.round_robin;
        ];
      baseline = C.Spec.Exact;
      fuel = Some 5_000_000;
    }
  in
  let items = Array.length (C.Spec.expand spec) in
  let hardware_cores = Domain.recommended_domain_count () in
  let domains = 4 in
  let run_seq () = C.Runner.run ~domains:1 spec in
  let run_par () = C.Runner.run ~domains spec in
  (* Paired-reps methodology (same as BENCH_num/BENCH_obs): every timed
     region starts from a settled GC, each rep times both variants
     back-to-back with the order alternating, and the gate uses the
     MEDIAN of the per-rep ratios — machine-speed drift hits both halves
     of a pair, and reps where a slow phase lands between the halves are
     discarded by the median. *)
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Warmup: first runs in a process carry heap sizing + domain spawn
     cold costs; keep every retained rep in the stable position. *)
  ignore (run_seq ());
  ignore (run_par ());
  let reps = 9 in
  let ratios = Array.make reps 0.0 in
  let seq_best = ref infinity and par_best = ref infinity in
  let payloads_identical = ref true in
  let seq_digest = ref "" in
  for i = 0 to reps - 1 do
    let (seq, seq_s), (par, par_s) =
      if i land 1 = 0 then
        let s = time run_seq in
        (s, time run_par)
      else
        let p = time run_par in
        (time run_seq, p)
    in
    if seq_s < !seq_best then seq_best := seq_s;
    if par_s < !par_best then par_best := par_s;
    ratios.(i) <- seq_s /. Float.max par_s 1e-9;
    seq_digest := C.Report.payload_digest seq;
    payloads_identical :=
      !payloads_identical && String.equal !seq_digest (C.Report.payload_digest par)
  done;
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    let n = Array.length s in
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  in
  let speedup = median ratios in
  let rate t = float_of_int items /. Float.max t 1e-9 in
  print_string
    (T.render
       ~header:[ "mode"; "items"; "best wall s"; "items/s" ]
       [
         [ "sequential"; string_of_int items; Printf.sprintf "%.3f" !seq_best;
           Printf.sprintf "%.1f" (rate !seq_best) ];
         [ Printf.sprintf "executor (%d domains)" domains; string_of_int items;
           Printf.sprintf "%.3f" !par_best; Printf.sprintf "%.1f" (rate !par_best) ];
       ]);
  (* Executor behavior under this workload, via the crs_obs counters the
     executor records (zero-cost while the benches above ran untraced). *)
  Crs_obs.Metrics.reset ();
  Crs_obs.Metrics.set_enabled true;
  ignore (run_par ());
  Crs_obs.Metrics.set_enabled false;
  let mval name = Crs_obs.Metrics.counter_value (Crs_obs.Metrics.counter name) in
  let exec_pushes = mval "exec.push" in
  let exec_steals = mval "exec.steal" in
  let exec_parks = mval "exec.park" in
  Crs_obs.Metrics.reset ();
  (* Trace signatures must be byte-identical at any pool size: the spans
     are keyed by item id, not by which worker stole what. A smaller
     sweep keeps the traced runs cheap. *)
  let sig_spec = { spec with C.Spec.seed_hi = 12 } in
  let signature_at domains =
    Crs_obs.Trace.reset ();
    Crs_obs.Trace.set_enabled true;
    ignore (C.Runner.run ~domains sig_spec);
    let s = Crs_obs.Trace.signature () in
    Crs_obs.Trace.set_enabled false;
    Crs_obs.Trace.reset ();
    s
  in
  let sig_1 = signature_at 1 in
  let trace_signature_identical =
    String.equal sig_1 (signature_at 2) && String.equal sig_1 (signature_at domains)
  in
  let summary = C.Report.summarize (run_seq ()) in
  (* On a box with fewer cores than domains the parallel run just
     time-slices one core; the ratio measures executor overhead, not
     scaling, and must not be read as a speedup claim. Both the detected
     core count and the domain count actually used are recorded so the
     flag is auditable. *)
  let speedup_meaningful = hardware_cores >= domains in
  let speedup_gate = 1.8 in
  let gate_met = (not speedup_meaningful) || speedup >= speedup_gate in
  Printf.printf
    "speedup %.2fx median of %d paired reps on %d domains (%d hardware core%s \
     detected)%s\n"
    speedup reps domains hardware_cores
    (if hardware_cores = 1 then "" else "s")
    (if speedup_meaningful then
       Printf.sprintf " — gate >= %.1fx: %s" speedup_gate
         (if gate_met then "met" else "NOT MET")
     else
       " — NOT meaningful: fewer cores than domains, ratio reflects \
        executor overhead only");
  Printf.printf "executor: %d pushes, %d steals, %d parks on the counted run\n"
    exec_pushes exec_steals exec_parks;
  Printf.printf "trace signature identical at domains {1,2,%d}: %b\n" domains
    trace_signature_identical;
  Printf.printf "sweep: %d done, %d timeout, mean ratio %s\n" summary.C.Report.completed
    summary.C.Report.timeouts
    (match summary.C.Report.mean_ratio with
    | Some r -> Printf.sprintf "%.4f" r
    | None -> "-");
  let json =
    Printf.sprintf
      "{\"items\":%d,\"domains\":%d,\"domains_used\":%d,\"hardware_cores\":%d,\
       \"reps\":%d,\"sequential_s\":%.6f,\"parallel_s\":%.6f,\
       \"sequential_items_per_s\":%.2f,\"parallel_items_per_s\":%.2f,\
       \"speedup\":%.4f,\"speedup_gate\":%.2f,\"gate_met\":%b,\
       \"speedup_meaningful\":%b,\"payloads_identical\":%b,\
       \"trace_signature_identical\":%b,\"exec_pushes\":%d,\
       \"exec_steals\":%d,\"exec_parks\":%d}\n"
      items domains domains hardware_cores reps !seq_best !par_best
      (rate !seq_best) (rate !par_best) speedup speedup_gate gate_met
      speedup_meaningful !payloads_identical trace_signature_identical
      exec_pushes exec_steals exec_parks
  in
  Out_channel.with_open_text "BENCH_campaign.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_campaign.json\n";
  assert !payloads_identical;
  assert trace_signature_identical;
  assert gate_met

(* ---------- serve: solver-as-a-service daemon ---------- *)

let exp_serve ?(mode = `Run) () =
  banner "serve" "solver-as-a-service daemon (crs-serve/1)"
    "dynamic arrivals (closed-loop, Poisson, bursty — the workload shapes of \
     dynamic vs batch scheduling) against a long-running daemon, then the \
     concurrent frontend: interleaved connections must answer byte-identically \
     to a single-connection run";
  let module S = Crs_serve.Server in
  let module L = Crs_serve.Loadgen in
  let module P = Crs_serve.Protocol in
  let module J = Crs_util.Stable_json in
  let closed_n, poisson_n, bursty_n, conns, multi_n, ident_per_conn =
    match mode with
    | `Run -> (400, 300, 300, 4, 400, 25)
    | `Smoke -> (40, 20, 20, 2, 24, 6)
  in
  (* Queue sized above the identity pass's worst case (4 connections x
     25 pipelined solves all admitted at once). *)
  let config =
    {
      S.default_config with
      S.workers = 2;
      queue = 128;
      cache_capacity = 128;
      default_fuel = Some 5_000_000;
      conn = { S.default_config.conn with drain_grace_s = 0.2 };
    }
  in
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server = S.create config in
  let daemon =
    Domain.spawn (fun () ->
        S.serve_io server ~input:server_fd ~output:server_fd;
        S.drain server)
  in
  let client = L.Client.of_fd client_fd in
  (* Eight distinct m=3 instances, cycled — a repeated-instance workload
     where all but the first occurrence of each should hit the cache. *)
  let gen_spec =
    { Crs_generators.Random_gen.default_spec with m = 3; jobs_min = 3; jobs_max = 3 }
  in
  let instances =
    Array.init 8 (fun i ->
        Crs_generators.Random_gen.instance ~spec:gen_spec
          (Random.State.make [| 100 + i |]))
  in
  let solve_line instance =
    J.obj
      [
        ("proto", J.str P.version);
        ("kind", J.str "solve");
        ("instance", J.str (Instance.to_string instance));
        ("algorithm", J.str R.Names.greedy_balance);
      ]
  in
  let workload n = List.init n (fun i -> solve_line instances.(i mod 8)) in
  let closed = L.run client ~arrival:L.Closed_loop ~requests:(workload closed_n) in
  let poisson =
    L.run ~seed:2 client ~arrival:(L.Poisson { rate = 2000.0 })
      ~requests:(workload poisson_n)
  in
  let bursty =
    L.run ~seed:3 client ~arrival:(L.Bursty { burst = 20; rate = 50.0 })
      ~requests:(workload bursty_n)
  in
  (* Canonical equivalence: a processor permutation and a zero-padded
     variant of the same instance must get byte-identical responses. *)
  let base = instances.(0) in
  let permuted = Instance.sub_processors base [ 2; 1; 0 ] in
  let padded = Crs_fuzz.Oracle.zero_pad_instance base in
  let r_base = L.Client.rpc client (solve_line base) in
  let r_perm = L.Client.rpc client (solve_line permuted) in
  let r_pad = L.Client.rpc client (solve_line padded) in
  let byte_identical = String.equal r_base r_perm && String.equal r_base r_pad in
  let stats_line =
    J.obj [ ("proto", J.str P.version); ("kind", J.str "stats") ]
  in
  let hello_line =
    J.obj [ ("proto", J.str P.version); ("kind", J.str "hello") ]
  in
  (* hello seeds the control histogram; the first stats request seeds the
     stats histogram (a request's latency lands after its own response is
     assembled), so the SECOND stats response carries a sample for every
     kind this workload exercised. *)
  ignore (L.Client.rpc client hello_line);
  ignore (L.Client.rpc client stats_line);
  let stats_json =
    match J.parse (L.Client.rpc client stats_line) with
    | Ok v -> v
    | Error msg -> failwith ("serve stats response unparseable: " ^ msg)
  in
  let cache_int field =
    match Option.bind (J.member "cache" stats_json) (J.member field) with
    | Some (J.Int i) -> i
    | _ -> failwith ("serve stats: missing cache." ^ field)
  in
  let lat_int kind field =
    match
      Option.bind (J.member "latency" stats_json) (fun l ->
          Option.bind (J.member kind l) (J.member field))
    with
    | Some (J.Int i) -> i
    | _ -> failwith (Printf.sprintf "serve stats: missing latency.%s.%s" kind field)
  in
  let hits = cache_int "hits" and misses = cache_int "misses" in
  let hit_rate = float_of_int hits /. Float.max 1.0 (float_of_int (hits + misses)) in
  let shutdown_line =
    J.obj [ ("proto", J.str P.version); ("kind", J.str "shutdown") ]
  in
  ignore (L.Client.rpc client shutdown_line);
  Domain.join daemon;
  Unix.close client_fd;
  Unix.close server_fd;
  (* ---- phase 2: the concurrent frontend ---- *)
  (* A fresh server driven through Server.attach over socketpairs — the
     exact reader path the accept loop uses, minus the listener. The
     cache is prewarmed by computing the goldens, so the concurrent run
     is all hits and the responses are the canonical bytes. *)
  let server2 = S.create config in
  let golden = Array.map (fun i -> S.handle_line server2 (solve_line i)) instances in
  let conn_fds =
    Array.init conns (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let readers =
    Array.map
      (fun (sfd, _) ->
        match S.attach server2 sfd with
        | Some th -> th
        | None -> failwith "serve bench: connection refused below max-conns")
      conn_fds
  in
  let clients = Array.map (fun (_, cfd) -> L.Client.of_fd cfd) conn_fds in
  let multi =
    L.run_multi ~seed:5 clients ~arrival:L.Closed_loop ~requests:(workload multi_n)
  in
  (* Interleaved byte-identity: every connection pipelines its whole
     slice in one write (maximal interleaving on the server), then reads
     back positionally; each response must equal the single-connection
     golden for its instance. *)
  let ident_failures = Atomic.make 0 in
  let ident_threads =
    Array.mapi
      (fun c cl ->
        Thread.create
          (fun () ->
            let ks = List.init ident_per_conn (fun j -> (c + j) mod 8) in
            List.iter
              (fun k -> L.Client.send_line cl (solve_line instances.(k)))
              ks;
            List.iter
              (fun k ->
                match L.Client.recv_line cl with
                | Some r when String.equal r golden.(k) -> ()
                | _ -> Atomic.incr ident_failures)
              ks)
          ())
      clients
  in
  Array.iter Thread.join ident_threads;
  let concurrent_byte_identical = Atomic.get ident_failures = 0 in
  let stats2_json =
    match J.parse (J.obj (S.stats_payload server2)) with
    | Ok v -> v
    | Error msg -> failwith ("serve stats payload unparseable: " ^ msg)
  in
  let conn_int field =
    match Option.bind (J.member "connections" stats2_json) (J.member field) with
    | Some (J.Int i) -> i
    | _ -> failwith ("serve stats: missing connections." ^ field)
  in
  let accepted = conn_int "accepted" and refused = conn_int "refused" in
  ignore (L.Client.rpc clients.(0) shutdown_line);
  Array.iter Thread.join readers;
  Array.iter
    (fun (_, cfd) -> try Unix.close cfd with Unix.Unix_error _ -> ())
    conn_fds;
  S.drain server2;
  (* ---- phase 3: the sharded tier ---- *)
  (* The balancer in-process, the shards as real `crsched serve`
     subprocesses — the full `crsched balance` data path minus only the
     public listener. Cold tier: a corpus hit-rate window, closed-loop
     throughput across connections, byte-identity against the phase-2
     single-process goldens (the sharding guarantee), and — in full
     runs — a kill -9 restart under load with exact accounting. The
     drain snapshots every shard's warm state; a second tier on the
     same state must replay it and beat the cold hit rate. *)
  let module B = Crs_serve.Balancer in
  let crsched_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "crsched.exe"))
  in
  let shards3 = match mode with `Run -> 3 | `Smoke -> 2 in
  let corpus_passes = match mode with `Run -> 5 | `Smoke -> 2 in
  let kill_reqs = match mode with `Run -> 200 | `Smoke -> 0 in
  let fresh_dir name =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "crs-bench-%s-%d" name (Unix.getpid ()))
    in
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir
  in
  let rec rm_rf path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> (try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let socket_dir = fresh_dir "shards" in
  let warm_dir = fresh_dir "warm" in
  let shard_argv ~index ~socket =
    [|
      crsched_exe; "serve"; "--listen"; "unix:" ^ socket; "--workers"; "1";
      "--queue"; "128"; "--cache"; "128"; "--warm-state"; warm_dir;
      "--warm-id"; Printf.sprintf "shard-%d" index;
    |]
  in
  let tier_cfg =
    let d = B.default_config ~shards:shards3 ~socket_dir ~shard_argv in
    {
      d with
      B.health_interval_s = 0.5;
      restart_backoff_s = 0.05;
      conn = { d.conn with drain_grace_s = 0.2 };
    }
  in
  let with_tier f =
    match B.create tier_cfg with
    | Error msg -> failwith ("serve bench: " ^ msg)
    | Ok t -> Fun.protect ~finally:(fun () -> B.drain t) (fun () -> f t)
  in
  let open_tier_conn t =
    let bfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* Without close-on-exec, a respawned shard would inherit the client
       end and the reader would never see EOF. *)
    Unix.set_close_on_exec cfd;
    match B.attach t bfd with
    | Some reader -> (cfd, L.Client.of_fd cfd, reader)
    | None -> failwith "serve bench: balancer refused a connection"
  in
  let close_tier_conn (cfd, _, reader) =
    (try Unix.close cfd with Unix.Unix_error _ -> ());
    Thread.join reader
  in
  let tier_stat t path =
    match J.parse (J.obj (B.stats_payload t)) with
    | Error msg -> failwith ("balancer stats unparseable: " ^ msg)
    | Ok json -> (
      let rec walk json = function
        | [] -> Some json
        | k :: rest -> (
          match (json, int_of_string_opt k) with
          | J.List items, Some i when i >= 0 && i < List.length items ->
            walk (List.nth items i) rest
          | _ -> Option.bind (J.member k json) (fun j -> walk j rest))
      in
      match walk json path with
      | Some (J.Int v) -> v
      | _ -> failwith ("balancer stats lack " ^ String.concat "." path))
  in
  (* Hit rate over a bounded request window (stat deltas), not lifetime
     counters — warm replay itself counts as misses on the shard, which
     is exactly the cost warming moves off the request path. *)
  let hit_window t f =
    let h0 = tier_stat t [ "cache"; "hits" ]
    and m0 = tier_stat t [ "cache"; "misses" ] in
    f ();
    let dh = tier_stat t [ "cache"; "hits" ] - h0
    and dm = tier_stat t [ "cache"; "misses" ] - m0 in
    float_of_int dh /. Float.max 1.0 (float_of_int (dh + dm))
  in
  let corpus = List.init (corpus_passes * 8) (fun i -> i mod 8) in
  let sharded_ident_failures = ref 0 in
  let cold_hit_rate = ref 0.0 in
  let sharded = ref None in
  let restart_ok = ref (kill_reqs = 0) in
  let restart_refused = ref 0 in
  let restart_restarts = ref 0 in
  let accounting_ok = ref false in
  with_tier (fun t ->
      let conns3 = Array.init conns (fun _ -> open_tier_conn t) in
      Fun.protect
        ~finally:(fun () -> Array.iter close_tier_conn conns3)
        (fun () ->
          let _, c0, _ = conns3.(0) in
          cold_hit_rate :=
            hit_window t (fun () ->
                List.iter
                  (fun k ->
                    ignore (L.Client.rpc c0 (solve_line instances.(k))))
                  corpus);
          Array.iteri
            (fun k i ->
              let m = Instance.m i in
              let permuted =
                Instance.sub_processors i (List.init m (fun j -> m - 1 - j))
              in
              let padded = Crs_fuzz.Oracle.zero_pad_instance i in
              List.iter
                (fun v ->
                  if
                    not
                      (String.equal golden.(k)
                         (L.Client.rpc c0 (solve_line v)))
                  then incr sharded_ident_failures)
                [ i; permuted; padded ])
            instances;
          let clients3 = Array.map (fun (_, c, _) -> c) conns3 in
          sharded :=
            Some
              (L.run_multi ~seed:7 clients3 ~arrival:L.Closed_loop
                 ~requests:(workload multi_n));
          if kill_reqs > 0 then begin
            let statuses = Array.make kill_reqs "?" in
            let driver =
              Thread.create
                (fun () ->
                  for i = 0 to kill_reqs - 1 do
                    let r = L.Client.rpc c0 (solve_line instances.(i mod 8)) in
                    statuses.(i) <-
                      (match J.parse r with
                      | Ok j -> (
                        match J.member "status" j with
                        | Some (J.Str s) -> s
                        | _ -> "?")
                      | Error _ -> "?")
                  done)
                ()
            in
            Thread.delay 0.01;
            let victim = (B.shard_pids t).(0) in
            if victim > 0 then Unix.kill victim Sys.sigkill;
            Thread.join driver;
            (* The tier must answer ok again for a key routed to the
               killed shard — proof the monitor brought it back. *)
            let routed0 =
              Array.to_list instances
              |> List.find_opt (fun i ->
                     B.route ~shards:shards3 (Crs_serve.Canon.key i) = 0)
            in
            let recovered =
              match routed0 with
              | None -> true
              | Some i ->
                let rec go n =
                  n > 0
                  &&
                  match
                    J.parse (L.Client.rpc c0 (solve_line i))
                    |> Result.to_option
                    |> Fun.flip Option.bind (J.member "status")
                  with
                  | Some (J.Str "ok") -> true
                  | _ ->
                    Thread.delay 0.01;
                    go (n - 1)
                in
                go 400
            in
            let count s =
              Array.fold_left
                (fun acc x -> if String.equal x s then acc + 1 else acc)
                0 statuses
            in
            restart_refused := count "overloaded";
            restart_ok :=
              recovered && count "ok" + !restart_refused = kill_reqs;
            (* The kill wiped the victim's cache; one full corpus pass
               repopulates it so the drain snapshot (and the warm gate)
               covers all eight keys again. *)
            Array.iter
              (fun i -> ignore (L.Client.rpc c0 (solve_line i)))
              instances
          end;
          accounting_ok :=
            tier_stat t [ "balancer"; "accepted" ]
            = tier_stat t [ "balancer"; "answered" ]
              + tier_stat t [ "balancer"; "refused" ];
          restart_restarts := tier_stat t [ "balancer"; "restarts" ]));
  let warm_hit_rate = ref 0.0 in
  let warm_replayed = ref 0 in
  with_tier (fun t ->
      for s = 0 to shards3 - 1 do
        warm_replayed :=
          !warm_replayed
          + tier_stat t
              [ "balancer"; "shard"; string_of_int s; "warm"; "replayed" ]
      done;
      let conn = open_tier_conn t in
      Fun.protect
        ~finally:(fun () -> close_tier_conn conn)
        (fun () ->
          let _, c, _ = conn in
          warm_hit_rate :=
            hit_window t (fun () ->
                List.iter
                  (fun k ->
                    if
                      not
                        (String.equal golden.(k)
                           (L.Client.rpc c (solve_line instances.(k))))
                    then incr sharded_ident_failures)
                  corpus)));
  rm_rf socket_dir;
  rm_rf warm_dir;
  let sharded =
    match !sharded with Some s -> s | None -> failwith "sharded stats missing"
  in
  let row name (s : L.stats) =
    [
      name; string_of_int s.L.sent; string_of_int s.L.received;
      Printf.sprintf "%.0f" s.L.throughput_rps;
      Printf.sprintf "%.3f" s.L.p50_ms; Printf.sprintf "%.3f" s.L.p99_ms;
    ]
  in
  print_string
    (T.render
       ~header:[ "arrival"; "sent"; "recv"; "req/s"; "p50 ms"; "p99 ms" ]
       [ row "closed-loop" closed; row "poisson(2000/s)" poisson;
         row "bursty(20@50/s)" bursty;
         row (Printf.sprintf "multi-conn(%d)" conns) multi;
         row (Printf.sprintf "sharded(%d)" shards3) sharded ]);
  Printf.printf
    "sharded tier: cold hit rate %.3f, warm hit rate %.3f (replayed %d), \
     restarts %d, refused during outage %d\n"
    !cold_hit_rate !warm_hit_rate !warm_replayed !restart_restarts
    !restart_refused;
  Printf.printf "cache: %d hits / %d misses (hit rate %.3f)\n" hits misses
    hit_rate;
  Printf.printf "canonical equivalence responses byte-identical: %b\n"
    byte_identical;
  Printf.printf
    "concurrent responses byte-identical to single-connection goldens: %b\n"
    concurrent_byte_identical;
  let lat_kinds = [ "solve"; "campaign"; "stats"; "control" ] in
  List.iter
    (fun kind ->
      Printf.printf "latency.%s: count %d, p50 <= %d us, p99 <= %d us, max %d us\n"
        kind (lat_int kind "count") (lat_int kind "p50_us")
        (lat_int kind "p99_us") (lat_int kind "max_us"))
    lat_kinds;
  Printf.printf "connections: %d accepted, %d refused\n" accepted refused;
  let complete (s : L.stats) = s.L.received = s.L.sent && s.L.sent > 0 in
  let worst_p99 = Float.max closed.L.p99_ms (Float.max poisson.L.p99_ms bursty.L.p99_ms) in
  let gate_cache = hit_rate > 0.0 in
  let gate_complete =
    complete closed && complete poisson && complete bursty && complete multi
  in
  let gate_accounting = accepted = conns && refused = 0 in
  (* Per-kind server-side p99 (log2 bucket upper edge, so the gate is a
     power of two): 2^18 us ~ 262 ms, in line with the 250 ms
     client-side gate. Campaign saw no traffic here; gate the kinds the
     workload exercised. *)
  let p99_gate_us = 262144 in
  let gated_kinds = [ "solve"; "stats"; "control" ] in
  let gate_per_kind_p99 =
    List.for_all
      (fun kind ->
        lat_int kind "count" > 0 && lat_int kind "p99_us" <= p99_gate_us)
      gated_kinds
  in
  let gate_throughput = closed.L.throughput_rps >= 200.0 in
  (* The multi-connection gate is conservative: this box may be a single
     core, so concurrency buys interleaving, not parallel solving. *)
  let gate_multi_throughput = multi.L.throughput_rps >= 150.0 in
  let gate_p99 = worst_p99 <= 250.0 in
  (* Sharded-tier gates. The throughput floor matches the multi-conn
     gate: fanning out across worker processes must not cost the tier
     its single-process concurrency floor. *)
  let sharded_byte_identical = !sharded_ident_failures = 0 in
  let gate_sharded_throughput = sharded.L.throughput_rps >= 150.0 in
  let gate_sharded_complete = complete sharded in
  let gate_warm = !warm_replayed >= 8 && !warm_hit_rate > !cold_hit_rate in
  let gate_restart =
    !restart_ok && !accounting_ok && (kill_reqs = 0 || !restart_restarts >= 1)
  in
  (match mode with
  | `Smoke ->
    Printf.printf
      "smoke run: timings carry no signal, timing gates not judged \
       (correctness asserts still run)\n";
    assert gate_complete;
    assert gate_cache;
    assert byte_identical;
    assert concurrent_byte_identical;
    assert gate_accounting;
    assert gate_sharded_complete;
    assert sharded_byte_identical;
    assert gate_warm;
    assert gate_restart
  | `Run ->
    Printf.printf
      "gates: throughput>=200rps %b, multi_conn>=150rps %b, p99<=250ms %b \
       (worst %.3f), per_kind_p99<=%dus %b, hit_rate>0 %b, all_answered %b, \
       byte_identical %b, concurrent_byte_identical %b, accounting %b\n"
      gate_throughput gate_multi_throughput gate_p99 worst_p99 p99_gate_us
      gate_per_kind_p99 gate_cache gate_complete byte_identical
      concurrent_byte_identical gate_accounting;
    Printf.printf
      "gates: sharded_throughput>=150rps %b, sharded_byte_identical %b, \
       warm_hit_rate>cold %b (%.3f > %.3f), restart_accounting %b\n"
      gate_sharded_throughput sharded_byte_identical gate_warm !warm_hit_rate
      !cold_hit_rate gate_restart;
    let stats_obj (s : L.stats) =
      J.obj
        [
          ("sent", J.int s.L.sent);
          ("received", J.int s.L.received);
          ("throughput_rps", J.float s.L.throughput_rps);
          ("p50_ms", J.float s.L.p50_ms);
          ("p99_ms", J.float s.L.p99_ms);
          ("max_ms", J.float s.L.max_ms);
        ]
    in
    let lat_obj kind =
      J.obj
        [
          ("count", J.int (lat_int kind "count"));
          ("p50_us", J.int (lat_int kind "p50_us"));
          ("p99_us", J.int (lat_int kind "p99_us"));
          ("max_us", J.int (lat_int kind "max_us"));
        ]
    in
    let json =
      J.obj
        [
          ("closed_loop", stats_obj closed);
          ("poisson", stats_obj poisson);
          ("bursty", stats_obj bursty);
          ( "multi_conn",
            J.obj
              [
                ("conns", J.int conns);
                ("sent", J.int multi.L.sent);
                ("received", J.int multi.L.received);
                ("throughput_rps", J.float multi.L.throughput_rps);
                ("p50_ms", J.float multi.L.p50_ms);
                ("p99_ms", J.float multi.L.p99_ms);
                ("byte_identical", J.bool concurrent_byte_identical);
              ] );
          ( "latency_us",
            J.obj (List.map (fun kind -> (kind, lat_obj kind)) lat_kinds) );
          ( "connections",
            J.obj [ ("accepted", J.int accepted); ("refused", J.int refused) ]
          );
          ( "cache",
            J.obj
              [
                ("hits", J.int hits);
                ("misses", J.int misses);
                ("hit_rate", J.float hit_rate);
              ] );
          ("byte_identical", J.bool byte_identical);
          ( "sharded",
            J.obj
              [
                ("shards", J.int shards3);
                ("sent", J.int sharded.L.sent);
                ("received", J.int sharded.L.received);
                ("throughput_rps", J.float sharded.L.throughput_rps);
                ("p50_ms", J.float sharded.L.p50_ms);
                ("p99_ms", J.float sharded.L.p99_ms);
                ("cold_hit_rate", J.float !cold_hit_rate);
                ("warm_hit_rate", J.float !warm_hit_rate);
                ("warm_replayed", J.int !warm_replayed);
                ("restarts", J.int !restart_restarts);
                ("refused_during_outage", J.int !restart_refused);
                ("byte_identical", J.bool sharded_byte_identical);
              ] );
          ( "gates",
            J.obj
              [
                ("throughput", J.bool gate_throughput);
                ("multi_conn_throughput", J.bool gate_multi_throughput);
                ("p99", J.bool gate_p99);
                ("per_kind_p99", J.bool gate_per_kind_p99);
                ("cache_hit_rate", J.bool gate_cache);
                ("all_answered", J.bool gate_complete);
                ("byte_identical", J.bool byte_identical);
                ("concurrent_byte_identical", J.bool concurrent_byte_identical);
                ("conn_accounting", J.bool gate_accounting);
                ("sharded_throughput", J.bool gate_sharded_throughput);
                ("sharded_byte_identical", J.bool sharded_byte_identical);
                ("warm_hit_rate_gt_cold", J.bool gate_warm);
                ("restart_accounting", J.bool gate_restart);
              ] );
        ]
    in
    Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
        Out_channel.output_string oc (json ^ "\n"));
    Printf.printf "wrote BENCH_serve.json\n";
    assert (gate_throughput && gate_multi_throughput && gate_p99
            && gate_per_kind_p99 && gate_cache && gate_complete
            && byte_identical && concurrent_byte_identical && gate_accounting
            && gate_sharded_throughput && gate_sharded_complete
            && sharded_byte_identical && gate_warm && gate_restart))

(* ---------- registry: dispatch overhead ---------- *)

let exp_registry ?(mode = `Run) () =
  banner "registry" "solver-registry dispatch overhead"
    "capability-checked registry dispatch costs <= 5% over calling Opt_two directly";
  let solver = R.find_exn R.Names.opt_two in
  (* min over repetitions: robust against scheduler noise. *)
  let time_min ~reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let sizes, reps =
    match mode with `Run -> ([ 50; 100; 200; 400 ], 7) | `Smoke -> ([ 20; 40 ], 2)
  in
  let total_direct = ref 0.0 and total_via = ref 0.0 in
  let rows =
    List.map
      (fun n ->
        let instance = A.round_robin_family ~n in
        (* Both sides do the full solve including witness replay, so the
           measured gap is exactly the registry layer: the find +
           capability check + counters/fuel bookkeeping. *)
        ignore (Crs_kernels.Opt_two.solve instance) (* warm-up *);
        let direct =
          time_min ~reps (fun () ->
              (Crs_kernels.Opt_two.solve instance).Crs_kernels.Opt_two.makespan)
        in
        let via = time_min ~reps (fun () -> (R.solve solver instance).R.makespan) in
        assert (
          (Crs_kernels.Opt_two.solve instance).Crs_kernels.Opt_two.makespan
          = (R.solve solver instance).R.makespan);
        total_direct := !total_direct +. direct;
        total_via := !total_via +. via;
        [
          string_of_int n;
          Printf.sprintf "%.3f" (direct *. 1000.);
          Printf.sprintf "%.3f" (via *. 1000.);
          Printf.sprintf "%+.2f%%" ((via -. direct) /. direct *. 100.);
        ])
      sizes
  in
  print_string
    (T.render ~header:[ "n (Fig. 3 family)"; "direct ms"; "registry ms"; "overhead" ] rows);
  let overhead_pct = (!total_via -. !total_direct) /. !total_direct *. 100. in
  let budget_pct = 5.0 in
  Printf.printf "aggregate dispatch overhead %+.2f%% (budget %.1f%%)\n" overhead_pct
    budget_pct;
  match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, budget not judged\n"
  | `Run ->
    let json =
      Printf.sprintf
        "{\"sizes\":[%s],\"reps\":%d,\"direct_s\":%.6f,\"registry_s\":%.6f,\
         \"overhead_pct\":%.4f,\"budget_pct\":%.1f,\"within_budget\":%b}\n"
        (String.concat "," (List.map string_of_int sizes))
        reps !total_direct !total_via overhead_pct budget_pct
        (overhead_pct <= budget_pct)
    in
    Out_channel.with_open_text "BENCH_registry.json" (fun oc ->
        Out_channel.output_string oc json);
    Printf.printf "wrote BENCH_registry.json\n";
    assert (overhead_pct <= budget_pct)

(* ---------- fuzz: certifier throughput + gate ---------- *)

let exp_fuzz () =
  banner "fuzz" "independent schedule-certifier throughput"
    "Certify.check re-validates every greedy-balance witness from scratch";
  let spec = { Crs_campaign.Spec.default with m = 4; n = 6; granularity = 12 } in
  let count = 200 in
  let solver = R.find_exn R.Names.greedy_balance in
  let witnesses =
    Array.init count (fun i ->
        let instance = Crs_campaign.Spec.instance spec ~seed:(i + 1) in
        let out = R.solve solver instance in
        match out.R.schedule with
        | Some s -> (instance, s, out.R.makespan)
        | None -> failwith "greedy-balance returned no witness")
  in
  let certify_all () =
    Array.for_all
      (fun (instance, s, claimed) ->
        match Crs_fuzz.Certify.check instance s ~claimed with
        | Ok _ -> true
        | Error _ -> false)
      witnesses
  in
  ignore (certify_all ()) (* warm-up *);
  let rounds = 5 in
  let all_certified = ref true in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    all_certified := certify_all () && !all_certified
  done;
  let certify_s = Unix.gettimeofday () -. t0 in
  let certified = count * rounds in
  let certified_per_s = float_of_int certified /. certify_s in
  Printf.printf
    "certified %d witnesses (%d instances x %d rounds) in %.3fs: %.0f/s, all_certified=%b\n"
    certified count rounds certify_s certified_per_s !all_certified;
  let json =
    Printf.sprintf
      "{\"instances\":%d,\"rounds\":%d,\"certify_s\":%.6f,\
       \"certified_per_s\":%.1f,\"all_certified\":%b}\n"
      count rounds certify_s certified_per_s !all_certified
  in
  Out_channel.with_open_text "BENCH_fuzz.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_fuzz.json\n";
  assert !all_certified

(* ---------- num: number-layer throughput + gate ---------- *)

(* Minimal field extractor for the flat one-line JSON files this harness
   writes; no JSON dependency is installed. *)
let json_number_field text key =
  let needle = "\"" ^ key ^ "\":" in
  let n = String.length text and m = String.length ("\"" ^ key ^ "\":") in
  let rec find i =
    if i + m > n then None
    else if String.equal (String.sub text i m) needle then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < n
      &&
      match text.[!stop] with
      | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
      | _ -> false
    do
      incr stop
    done;
    if !stop = start then None
    else float_of_string_opt (String.sub text start (!stop - start))

let num_baseline_path = "data/num_baseline.json"

(* The per-op loops run on paper-style operands: requirement-sized
   fractions with denominators <= 12, i.e. the small tier once the
   two-tier representation lands. *)
let num_measure () =
  let pool_size = 1024 in
  let pool =
    Array.init pool_size (fun i -> Q.of_ints ((i mod 23) - 11) ((i mod 12) + 1))
  in
  let per_op name iters f =
    (* Start every timed section from a compacted heap: the sections
       differ wildly in allocation profile, and inherited GC state
       otherwise skews later sections by 2x. *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    for k = 0 to iters - 1 do
      ignore (Sys.opaque_identity (f pool.(k land 1023) pool.((k * 7 + 3) land 1023)))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (name, dt /. float_of_int iters *. 1e9)
  in
  let time_min ~reps f =
    Gc.compact ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let ops =
    [
      per_op "add" 1_000_000 Q.add;
      per_op "mul" 1_000_000 Q.mul;
      per_op "compare" 1_000_000 (fun a b -> Q.of_int (Q.compare a b));
      ( "sum500",
        (Gc.compact ();
         let t0 = Unix.gettimeofday () in
         for _ = 1 to 20 do
           ignore
             (Sys.opaque_identity
                (Q.sum (List.init 500 (fun i -> Q.of_ints 1 (i + 1)))))
         done;
         (Unix.gettimeofday () -. t0) /. 20. *. 1e9) );
    ]
  in
  let opt_two_n = 1200 in
  let fig3_big = A.round_robin_family ~n:opt_two_n in
  ignore (Crs_kernels.Opt_two.makespan fig3_big) (* warm-up *);
  let opt_two_s =
    time_min ~reps:3 (fun () -> Crs_kernels.Opt_two.makespan fig3_big)
  in
  let brute_n = 800 in
  let fig3_small = A.round_robin_family ~n:brute_n in
  let brute_s =
    time_min ~reps:3 (fun () ->
        Crs_kernels.Brute_force.makespan ~node_limit:20_000_000 fig3_small)
  in
  (ops, opt_two_n, opt_two_s, brute_n, brute_s)

let num_json ops opt_two_n opt_two_s brute_n brute_s =
  Printf.sprintf
    "{%s,\"opt_two_n\":%d,\"opt_two_s\":%.6f,\"brute_n\":%d,\"brute_s\":%.6f}"
    (String.concat ","
       (List.map (fun (name, ns) -> Printf.sprintf "\"%s_ns\":%.2f" name ns) ops))
    opt_two_n opt_two_s brute_n brute_s

let exp_num ?(mode = `Run) () =
  banner "num" "exact-rational number layer (two-tier small/bigint fast path)"
    "no measured claim; gate: >= 2x end-to-end Opt_two on the Figure-3 family \
     vs the pre-change baseline, exactness pinned by a differential suite";
  match mode with
  | `Check ->
    let t0 = Unix.gettimeofday () in
    let outcome = Crs_num.Check.run ~ops:10_000 ~seed:2024 () in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "differential check: %s in %.3fs (budget 1s)\n"
      (Crs_num.Check.describe outcome) dt;
    if not (Crs_num.Check.ok outcome) || dt >= 1.0 then exit 1
  | (`Record | `Run) as mode -> (
    let ops, opt_two_n, opt_two_s, brute_n, brute_s = num_measure () in
    print_string
      (T.render
         ~header:[ "operation"; "ns/op (small operands)" ]
         (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) ops));
    Printf.printf "end-to-end: opt_two fig3 n=%d %.3fs | brute_force fig3 n=%d %.3fs\n"
      opt_two_n opt_two_s brute_n brute_s;
    match mode with
    | `Record ->
      Out_channel.with_open_text num_baseline_path (fun oc ->
          Out_channel.output_string oc
            (num_json ops opt_two_n opt_two_s brute_n brute_s ^ "\n"));
      Printf.printf "recorded pre-change baseline to %s\n" num_baseline_path
    | `Run ->
      let outcome = Crs_num.Check.run ~ops:10_000 ~seed:2024 () in
      Printf.printf "differential check: %s\n" (Crs_num.Check.describe outcome);
      let baseline =
        In_channel.with_open_text num_baseline_path In_channel.input_all
      in
      let field key =
        match json_number_field baseline key with
        | Some v -> v
        | None -> failwith (Printf.sprintf "%s: missing %s" num_baseline_path key)
      in
      let b_opt_two = field "opt_two_s" and b_brute = field "brute_s" in
      let opt_two_speedup = b_opt_two /. Float.max opt_two_s 1e-9 in
      let brute_speedup = b_brute /. Float.max brute_s 1e-9 in
      let gate = 2.0 in
      let gate_met = opt_two_speedup >= gate in
      let op_line (name, ns) =
        let base = field (name ^ "_ns") in
        Printf.sprintf
          "\"%s\":{\"now_ns\":%.2f,\"baseline_ns\":%.2f,\"speedup\":%.2f}" name ns
          base (base /. Float.max ns 1e-9)
      in
      let json =
        Printf.sprintf
          "{\"ops\":{%s},\"opt_two_n\":%.0f,\"opt_two_s\":%.6f,\
           \"opt_two_baseline_s\":%.6f,\"opt_two_speedup\":%.4f,\"brute_n\":%.0f,\
           \"brute_s\":%.6f,\"brute_baseline_s\":%.6f,\"brute_speedup\":%.4f,\
           \"differential_ops\":%d,\"differential_ok\":%b,\"gate\":%.1f,\
           \"gate_met\":%b}\n"
          (String.concat "," (List.map op_line ops))
          (field "opt_two_n") opt_two_s b_opt_two opt_two_speedup (field "brute_n")
          brute_s b_brute brute_speedup outcome.Crs_num.Check.ops
          (Crs_num.Check.ok outcome) gate gate_met
      in
      Out_channel.with_open_text "BENCH_num.json" (fun oc ->
          Out_channel.output_string oc json);
      Printf.printf
        "speedup vs pre-change baseline: opt_two %.2fx, brute_force %.2fx (gate \
         %.1fx on opt_two: %s)\n"
        opt_two_speedup brute_speedup gate
        (if gate_met then "met" else "NOT MET");
      Printf.printf "wrote BENCH_num.json\n";
      assert (Crs_num.Check.ok outcome);
      assert gate_met)

(* ---------- obs: instrumentation-overhead gate ---------- *)

(* CPU model and logical CPU count, recorded next to the timings. *)
let host () =
  let lines =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
    with Sys_error _ -> []
  in
  let model =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"model name" l then
          Option.map
            (fun i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            (String.index_opt l ':')
        else None)
      lines
  in
  ( Option.value model ~default:"unknown",
    Domain.recommended_domain_count () )

(* The kernels in crs_kernels cannot link crs_obs, so the only hooks a
   solve passes are Registry.solve's root span and counters. The gate
   times that boundary against the kernel it wraps: Opt_two.solve
   called directly (baseline) vs Registry.solve on opt-two (measured),
   first with tracing and metrics disabled, then enabled. Both run in
   the SAME process with rep-interleaved timing, so machine-speed drift
   — which moves wall AND CPU-time minima several percent between
   processes on shared hardware, far above the 2% bound being checked —
   hits both sides identically and cancels out of the ratio. Per-rep
   CPU time keeps scheduler noise out of the minima. *)
let obs_measure ~opt_two_n ~reps ~warmups =
  let cpu_s f =
    (* Start every timed call from the same GC state: otherwise the
       major slices owed by the PREVIOUS call land inside this one and
       per-rep times swing by several percent. *)
    Gc.full_major ();
    let t0 = Crs_obs.Clock.cputime_ns () in
    ignore (Sys.opaque_identity (f ()));
    Int64.to_float (Int64.sub (Crs_obs.Clock.cputime_ns ()) t0) /. 1e9
  in
  let fig3 = A.round_robin_family ~n:opt_two_n in
  let opt_two = R.find_exn R.Names.opt_two in
  let kernel () = Crs_kernels.Opt_two.solve fig3 in
  let registry () = R.solve opt_two fig3 in
  let set_obs on =
    Crs_obs.Trace.set_enabled on;
    Crs_obs.Metrics.set_enabled on
  in
  set_obs false;
  (* Throwaway pass first: the first dozen solves in a process run
     10-15% slower while the heap sizes itself, so every retained rep
     sits in the stable late-process position. *)
  for _ = 1 to warmups do
    ignore (cpu_s kernel);
    ignore (cpu_s registry)
  done;
  Gc.compact ();
  (* Paired reps: each rep times both sides back-to-back (order
     alternating, so GC pacing and slow phases hit both positions
     equally) and contributes one registry/kernel ratio. The gate uses
     the MEDIAN ratio — a slow co-tenant phase or major-GC slice skews
     individual reps but moves paired ratios only when it lands between
     the two halves of a pair, and the median discards those reps. The
     interquartile range of the ratios states the noise. *)
  let paired () =
    let ratios = Array.make reps 0.0 in
    let kernel_s = ref infinity and registry_s = ref infinity in
    for i = 0 to reps - 1 do
      let k, r =
        if i land 1 = 0 then
          let k = cpu_s kernel in
          (k, cpu_s registry)
        else
          let r = cpu_s registry in
          (cpu_s kernel, r)
      in
      kernel_s := Float.min !kernel_s k;
      registry_s := Float.min !registry_s r;
      ratios.(i) <- r /. Float.max k 1e-9
    done;
    Array.sort compare ratios;
    (* Linear interpolation between closest ranks. *)
    let quantile q =
      let x = q *. float_of_int (reps - 1) in
      let i = int_of_float x in
      let j = min (i + 1) (reps - 1) in
      ratios.(i) +. ((x -. float_of_int i) *. (ratios.(j) -. ratios.(i)))
    in
    (!kernel_s, !registry_s, quantile 0.5, quantile 0.75 -. quantile 0.25)
  in
  let baseline_s, disabled_s, disabled_ratio, disabled_iqr = paired () in
  set_obs true;
  let _, enabled_s, enabled_ratio, enabled_iqr = paired () in
  Crs_obs.Trace.reset ();
  ignore (registry ());
  let spans = List.length (Crs_obs.Trace.spans ()) in
  set_obs false;
  Crs_obs.Trace.reset ();
  Crs_obs.Metrics.reset ();
  ( baseline_s,
    (disabled_s, disabled_ratio -. 1.0, disabled_iqr),
    (enabled_s, enabled_ratio -. 1.0, enabled_iqr),
    spans )

let exp_obs ?(mode = `Run) () =
  banner "obs" "observability layer (span tracer + metrics registry)"
    "gate: <= 2% overhead of Registry.solve with tracing and metrics \
     disabled on opt-two/Figure-3, vs the hook-free Crs_kernels.Opt_two.solve \
     called directly";
  let opt_two_n, reps, warmups =
    match mode with
    (* n = 2400 keeps each timed solve at a few tenths of a second,
       the scale the 2% budget was calibrated against: at n = 1200 the
       region is ~40ms, where run-to-run jitter alone is a couple of
       percent. *)
    | `Run -> (2400, 30, 8)
    (* Smoke: the machinery end to end at a size where timings carry
       no signal — no file written, no gate judged. *)
    | `Smoke -> (80, 4, 1)
  in
  let ( baseline_s,
        (disabled_s, overhead, disabled_iqr),
        (enabled_s, enabled_overhead, enabled_iqr),
        spans ) =
    obs_measure ~opt_two_n ~reps ~warmups
  in
  let gate = 0.02 in
  let gate_met = overhead <= gate in
  Printf.printf
    "opt_two fig3 n=%d: kernel %.3fs, registry disabled %.3fs, enabled %.3fs \
     (%d spans/solve)\n"
    opt_two_n baseline_s disabled_s enabled_s spans;
  match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, gate not judged\n"
  | `Run ->
    let cpu_model, nproc = host () in
    let json =
      Crs_util.Stable_json.(
        obj
          [
            ("opt_two_n", int opt_two_n);
            ("reps", int reps);
            ("baseline_s", float baseline_s);
            ("disabled_s", float disabled_s);
            ("disabled_overhead", float overhead);
            ("disabled_ratio_iqr", float disabled_iqr);
            ("enabled_s", float enabled_s);
            ("enabled_overhead", float enabled_overhead);
            ("enabled_ratio_iqr", float enabled_iqr);
            ("spans_per_solve", int spans);
            ("gate", float gate);
            ("gate_met", bool gate_met);
            ("nproc", int nproc);
            ("cpu_model", str cpu_model);
          ])
    in
    Out_channel.with_open_text "BENCH_obs.json" (fun oc ->
        Out_channel.output_string oc (json ^ "\n"));
    Printf.printf
      "disabled overhead vs direct kernel call: %+.2f%% (IQR of ratios %.2f \
       points; gate <= %.0f%%: %s); enabled: %+.2f%% (IQR %.2f points)\n"
      (overhead *. 100.) (disabled_iqr *. 100.) (gate *. 100.)
      (if gate_met then "met" else "NOT MET")
      (enabled_overhead *. 100.) (enabled_iqr *. 100.);
    Printf.printf "wrote BENCH_obs.json\n";
    assert gate_met

(* ---------- dp: flat-state DP kernels vs frozen boxed baselines ---------- *)

(* Allocation of one Opt_two solve in common-denominator mode, after
   warm-up (so the tableau comes from the pool): the fewest major words
   over [reps] solves, and minor words per expanded cell. Major words
   include words promoted out of the minor heap, so a stray minor
   collection inside a solve can only raise the figure. *)
let dp_alloc ~n ~reps =
  let inst =
    Crs_generators.Random_gen.equal_rows ~m:2 ~n ~granularity:20
      (Random.State.make [| 0x200; n |])
  in
  let cells =
    (Crs_kernels.Opt_two.solve inst).counters.Crs_kernels.Opt_two.cells_expanded
  in
  let major () =
    let _, _, ma = Gc.counters () in
    ma
  in
  let major_best = ref infinity and minor_total = ref 0.0 in
  for _ = 1 to reps do
    let ma0 = major () and mi0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Crs_kernels.Opt_two.solve inst));
    minor_total := !minor_total +. (Gc.minor_words () -. mi0);
    major_best := Float.min !major_best (major () -. ma0)
  done;
  (cells, !major_best, !minor_total /. float_of_int reps /. float_of_int cells)

let exp_dp ?(mode = `Run) () =
  banner "dp" "flat-state DP kernels (Opt_two / Opt_config)"
    "gate: >= 2x end-to-end on the Figure-3 family for BOTH kernels vs the \
     frozen pre-rewrite boxed kernels vendored into this binary \
     (bench/legacy); results byte-compared first, so the speedup is over \
     identical answers; plus an Opt_two allocation gate (major words per \
     solve, minor words per expanded cell)";
  let module L2 = Crs_legacy.Legacy_opt_two in
  let module LC = Crs_legacy.Legacy_opt_config in
  let two_n, cfg_n, cfg_iters, reps =
    match mode with `Run -> (1200, 400, 20, 9) | `Smoke -> (60, 40, 2, 3)
  in
  let fig3_two = A.round_robin_family ~n:two_n in
  let fig3_cfg = A.round_robin_family ~n:cfg_n in
  (* Parity before speed: the ratio is only meaningful over identical
     answers. Opt_two must agree byte-for-byte including counters;
     Opt_config must agree on makespan, generated count and layer
     profile (survivor order is canonical in the flat kernel where the
     legacy one inherited hashtable iteration order, so the witness
     schedule may differ — both must certify). *)
  let s_new = Crs_kernels.Opt_two.solve fig3_two in
  let s_old = L2.solve fig3_two in
  assert (s_new.Crs_kernels.Opt_two.makespan = s_old.L2.makespan);
  assert (Schedule.equal s_new.schedule s_old.schedule);
  assert (
    s_new.counters.Crs_kernels.Opt_two.cells_expanded
    = s_old.L2.counters.L2.cells_expanded);
  assert (
    s_new.counters.Crs_kernels.Opt_two.relaxations
    = s_old.L2.counters.L2.relaxations);
  let c_new = Crs_kernels.Opt_config.solve fig3_cfg in
  let c_old = LC.solve fig3_cfg in
  assert (c_new.Crs_kernels.Opt_config.makespan = c_old.LC.makespan);
  assert (
    c_new.stats.Crs_kernels.Opt_config.generated = c_old.LC.stats.LC.generated);
  assert (c_new.stats.Crs_kernels.Opt_config.layers = c_old.LC.stats.LC.layers);
  (match
     Crs_fuzz.Certify.check fig3_cfg c_new.schedule
       ~claimed:c_new.Crs_kernels.Opt_config.makespan
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  (match
     Crs_fuzz.Certify.check fig3_cfg c_old.LC.schedule ~claimed:c_old.LC.makespan
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  Printf.printf
    "parity: opt_two schedules byte-identical, counters (%d cells, %d \
     relaxations) equal; opt_config generated %d and %d layers equal, both \
     witnesses certified\n"
    s_new.counters.Crs_kernels.Opt_two.cells_expanded
    s_new.counters.Crs_kernels.Opt_two.relaxations
    c_new.stats.Crs_kernels.Opt_config.generated
    (List.length c_new.stats.Crs_kernels.Opt_config.layers);
  (* Paired-reps methodology (same as BENCH_campaign/BENCH_obs): every
     timed region starts from a settled GC, each rep times flat and
     legacy back-to-back with the order alternating, and the gate uses
     the MEDIAN of the per-rep ratios — machine-speed drift hits both
     halves of a pair, and reps where a slow phase lands between the
     halves are discarded by the median. *)
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    let n = Array.length s in
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  in
  let measure name flat legacy =
    ignore (flat ());
    ignore (legacy ());
    let ratios = Array.make reps 0.0 in
    let flat_best = ref infinity and legacy_best = ref infinity in
    for i = 0 to reps - 1 do
      let f_s, l_s =
        if i land 1 = 0 then
          let f = time flat in
          (f, time legacy)
        else
          let l = time legacy in
          (time flat, l)
      in
      if f_s < !flat_best then flat_best := f_s;
      if l_s < !legacy_best then legacy_best := l_s;
      ratios.(i) <- l_s /. Float.max f_s 1e-9
    done;
    let speedup = median ratios in
    Printf.printf "%-36s flat %.3fs legacy %.3fs -> %.2fx (median of %d)\n" name
      !flat_best !legacy_best speedup reps;
    (!flat_best, !legacy_best, speedup)
  in
  let two_flat, two_legacy, two_speedup =
    measure
      (Printf.sprintf "opt_two fig3 n=%d (full solve)" two_n)
      (fun () -> Crs_kernels.Opt_two.solve fig3_two)
      (fun () -> L2.solve fig3_two)
  in
  let cfg_flat, cfg_legacy, cfg_speedup =
    measure
      (Printf.sprintf "opt_config fig3 n=%d x%d (full solve)" cfg_n cfg_iters)
      (fun () ->
        for _ = 1 to cfg_iters - 1 do
          ignore (Sys.opaque_identity (Crs_kernels.Opt_config.solve fig3_cfg))
        done;
        Crs_kernels.Opt_config.solve fig3_cfg)
      (fun () ->
        for _ = 1 to cfg_iters - 1 do
          ignore (Sys.opaque_identity (LC.solve fig3_cfg))
        done;
        LC.solve fig3_cfg)
  in
  (* Allocation gate. A solve whose tableau came from the pool must not
     allocate major words in proportion to its n^2 table (a per-solve
     Array.make of the tableau costs 161,605 at n = 200), and the sweep
     must not box per cell. *)
  let alloc_n = 200 in
  let alloc_cells, major_words, minor_per_cell = dp_alloc ~n:alloc_n ~reps:9 in
  let major_bound = float_of_int (20 * alloc_n) and minor_bound = 1.0 in
  let alloc_met = major_words <= major_bound && minor_per_cell <= minor_bound in
  Printf.printf
    "allocation, opt_two common-denominator n=%d (%d cells): %.0f major \
     words/solve (bound %.0f), %.3f minor words/cell (bound %.1f): %s\n"
    alloc_n alloc_cells major_words major_bound minor_per_cell minor_bound
    (if alloc_met then "met" else "NOT MET");
  match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, gate not judged\n"
  | `Run ->
    let gate = 2.0 in
    let gate_met = two_speedup >= gate && cfg_speedup >= gate in
    let cpu_model, nproc = host () in
    let json =
      Printf.sprintf
        "{\"opt_two_n\":%d,\"opt_two_flat_s\":%.6f,\"opt_two_legacy_s\":%.6f,\
         \"opt_two_speedup\":%.4f,\"opt_config_n\":%d,\"opt_config_iters\":%d,\
         \"opt_config_flat_s\":%.6f,\"opt_config_legacy_s\":%.6f,\
         \"opt_config_speedup\":%.4f,\"reps\":%d,\"cells_expanded\":%d,\
         \"relaxations\":%d,\"generated\":%d,\"parity\":true,\"gate\":%.1f,\
         \"gate_met\":%b,\"alloc_n\":%d,\"alloc_cells\":%d,\
         \"alloc_major_words_per_solve\":%.0f,\"alloc_major_bound\":%.0f,\
         \"alloc_minor_words_per_cell\":%.4f,\"alloc_minor_bound\":%.1f,\
         \"alloc_gate_met\":%b,\"nproc\":%d,\"cpu_model\":%S}\n"
        two_n two_flat two_legacy two_speedup cfg_n cfg_iters cfg_flat cfg_legacy
        cfg_speedup reps s_new.counters.Crs_kernels.Opt_two.cells_expanded
        s_new.counters.Crs_kernels.Opt_two.relaxations
        c_new.stats.Crs_kernels.Opt_config.generated gate gate_met alloc_n
        alloc_cells major_words major_bound minor_per_cell minor_bound alloc_met
        nproc cpu_model
    in
    Out_channel.with_open_text "BENCH_dp.json" (fun oc ->
        Out_channel.output_string oc json);
    Printf.printf
      "speedup vs frozen boxed kernels: opt_two %.2fx, opt_config %.2fx (gate \
       >= %.1fx on BOTH: %s)\n"
      two_speedup cfg_speedup gate
      (if gate_met then "met" else "NOT MET");
    Printf.printf "wrote BENCH_dp.json\n";
    assert gate_met;
    assert alloc_met

(* ---------- smoke: tiny-n pass over every gated experiment ---------- *)

(* `dune build @bench-smoke` runs this: exercises the num / obs / dp /
   registry / serve experiment machinery end to end at sizes where each
   takes well under a second, writes no files and judges no timing gates
   (correctness asserts — differential checks, kernel parity, the serve
   frontend's concurrent byte-identity over >= 2 live connections —
   still run). Catches bit-rot in the bench harness itself without
   paying for a full calibrated run. *)
let smoke () =
  exp_num ~mode:`Check ();
  exp_obs ~mode:`Smoke ();
  exp_dp ~mode:`Smoke ();
  exp_registry ~mode:`Smoke ();
  exp_serve ~mode:`Smoke ()

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro () =
  let open Bechamel in
  let st = Random.State.make [| 4242 |] in
  let two n = Helpers_bench.random_two_proc ~n st 0 in
  let inst50 = two 50 and inst200 = two 200 in
  let st2 = Random.State.make [| 4243 |] in
  let inst_m3 = Crs_generators.Random_gen.equal_rows ~m:3 ~n:3 ~granularity:10 st2 in
  let big_family = A.greedy_balance_family ~m:4 ~blocks:25 () in
  let rr_family = A.round_robin_family ~n:200 in
  let tests =
    [
      (* T5: the O(n^2) DP and its PQ variant. *)
      Test.make ~name:"opt_two n=50" (Staged.stage (fun () ->
          ignore (Crs_kernels.Opt_two.makespan inst50)));
      Test.make ~name:"opt_two n=200" (Staged.stage (fun () ->
          ignore (Crs_kernels.Opt_two.makespan inst200)));
      Test.make ~name:"opt_two_pq n=200" (Staged.stage (fun () ->
          ignore (Crs_kernels.Opt_two_pq.makespan inst200)));
      (* T6: configuration enumeration at fixed m. *)
      Test.make ~name:"opt_config m=3 n=3" (Staged.stage (fun () ->
          ignore (Crs_kernels.Opt_config.makespan inst_m3)));
      (* T7/T8: the linear-time approximation on a large family instance. *)
      Test.make ~name:"greedy_balance m=4 100 jobs/proc" (Staged.stage (fun () ->
          ignore (Crs_kernels.Greedy_balance.makespan big_family)));
      (* T3: round robin on the Figure 3 family. *)
      Test.make ~name:"round_robin n=200" (Staged.stage (fun () ->
          ignore (Crs_kernels.Round_robin.makespan rr_family)));
      (* Substrate: exact arithmetic throughput (harmonic sums grow the
         denominators into genuine multi-limb territory). *)
      Test.make ~name:"rational sum 1/1..1/500" (Staged.stage (fun () ->
          ignore (Q.sum (List.init 500 (fun i -> Q.of_ints 1 (i + 1))))));
      (* S8: simulator tick loop. *)
      Test.make ~name:"manycore mixed-vm 9 cores" (Staged.stage (fun () ->
          let stw = Random.State.make [| 7 |] in
          let tasks = Crs_manycore.Workload.mixed_vm ~cores:9 stw in
          ignore (Crs_manycore.Engine.run Crs_manycore.Policy.greedy_balance tasks)));
    ]
  in
  let benchmark test =
    let analyze = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all analyze Toolkit.Instance.monotonic_clock raw
  in
  Printf.printf "\n=== MICRO: runtime micro-benchmarks (bechamel) ===\n\n";
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-36s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-36s (no estimate)\n" name)
        results)
    tests

let experiments =
  [
    ("f1", exp_f1); ("f2", exp_f2); ("f3", exp_f3); ("f4", exp_f4); ("f5", exp_f5);
    ("t3", exp_t3); ("t5", exp_t5); ("t6", exp_t6); ("t7", exp_t7);
    ("l56", exp_l56); ("mc", exp_mc); ("ext", exp_ext); ("bp", exp_bp);
    ("dc", exp_dc); ("fa", exp_fa); ("mr", exp_mr); ("ablation", exp_ablation);
    ("campaign", exp_campaign); ("registry", fun () -> exp_registry ());
    ("serve", fun () -> exp_serve ());
    ("fuzz", exp_fuzz); ("num", fun () -> exp_num ());
    ("obs", fun () -> exp_obs ());
    ("dp", fun () -> exp_dp ());
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "micro" :: _ -> micro ()
  | _ :: "smoke" :: _ -> smoke ()
  | _ :: "num" :: rest ->
    let mode =
      match rest with
      | "--check" :: _ -> `Check
      | "--record-baseline" :: _ -> `Record
      | _ -> `Run
    in
    exp_num ~mode ()
  | _ :: "obs" :: _ -> exp_obs ()
  | _ :: "dp" :: _ -> exp_dp ()
  | _ :: id :: _ -> (
    match List.assoc_opt id experiments with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown experiment %s; available: %s micro\n" id
        (String.concat " " (List.map fst experiments));
      exit 1)
  | _ ->
    List.iter (fun (_, f) -> f ()) experiments;
    micro ()
