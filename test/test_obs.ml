(* Tests for the observability layer: span recording and forest
   reconstruction, the zero-cost-when-disabled contract, the Chrome
   trace_event exporter schema, metrics snapshots, and the trace
   determinism contract (same seeded campaign -> identical span trees at
   any pool size).

   Trace and Metrics are process-global; every test that enables them
   runs under [traced] / [metered], which restores the disabled state
   and clears the buffers even on failure. *)

module Trace = Crs_obs.Trace
module Metrics = Crs_obs.Metrics
module J = Crs_util.Stable_json

let traced f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let metered f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* ---- Trace ---- *)

let test_disabled_records_nothing () =
  Trace.reset ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let r = Trace.with_span ~attrs:[ ("k", Trace.Int 1) ] "noop" (fun () -> 7) in
  Alcotest.(check int) "thunk result" 7 r;
  Trace.add_attrs [ ("late", Trace.Bool true) ];
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans ()))

let test_nesting_and_signature () =
  traced (fun () ->
      Trace.with_span "root" (fun () ->
          Trace.with_span ~attrs:[ ("i", Trace.Int 1) ] "child" (fun () -> ());
          Trace.with_span ~attrs:[ ("i", Trace.Int 2) ] "child" (fun () -> ()));
      Trace.with_span "root2" (fun () -> ());
      Alcotest.(check int) "span count" 4 (List.length (Trace.spans ()));
      Alcotest.(check string) "signature"
        "root\n  child{\"i\":1}\n  child{\"i\":2}\nroot2\n" (Trace.signature ()))

let test_exception_recorded () =
  traced (fun () ->
      (try
         Trace.with_span "boom" (fun () -> failwith "expected")
       with Failure _ -> ());
      match Trace.spans () with
      | [ s ] ->
        Alcotest.(check bool) "error attr present" true
          (List.mem_assoc "error" s.Trace.attrs)
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_add_attrs_and_lazy () =
  traced (fun () ->
      let built = ref 0 in
      Trace.with_span_l
        (fun () ->
          incr built;
          [ ("eager", Trace.Int 1) ])
        "s"
        (fun () -> Trace.add_attrs [ ("late", Trace.Str "v") ]);
      Alcotest.(check int) "lazy attrs built once" 1 !built;
      Alcotest.(check string) "both attr kinds in signature"
        "s{\"eager\":1,\"late\":\"v\"}\n" (Trace.signature ()));
  (* Disabled: the lazy thunk must never run. *)
  let built = ref 0 in
  Trace.with_span_l
    (fun () ->
      incr built;
      [])
    "s"
    (fun () -> ());
  Alcotest.(check int) "lazy attrs not built when disabled" 0 !built

let test_reset_clears () =
  traced (fun () ->
      Trace.with_span "a" (fun () -> ());
      Trace.reset ();
      Alcotest.(check int) "cleared" 0 (List.length (Trace.spans ())))

(* ---- Chrome exporter schema ---- *)

let parse_exn label s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: parse error: %s" label msg

let test_chrome_schema () =
  traced (fun () ->
      Trace.with_span ~attrs:[ ("q", Trace.Str "a\"b\n") ] "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ()));
      let chrome = Trace.to_chrome () in
      let doc = parse_exn "chrome" chrome in
      (* Round-trip law: re-encoding the parsed document reproduces it. *)
      Alcotest.(check string) "round trip" chrome (J.to_string doc);
      let events =
        match J.member "traceEvents" doc with
        | Some (J.List evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing or not a list"
      in
      Alcotest.(check int) "event count" 2 (List.length events);
      List.iter
        (fun ev ->
          (match J.member "ph" ev with
          | Some (J.Str "X") -> ()
          | _ -> Alcotest.fail "ph must be \"X\"");
          (match J.member "pid" ev with
          | Some (J.Int _) -> ()
          | _ -> Alcotest.fail "pid must be an int");
          (match J.member "tid" ev with
          | Some (J.Int _) -> ()
          | _ -> Alcotest.fail "tid must be an int");
          (match (J.member "ts" ev, J.member "dur" ev) with
          | Some (J.Float ts), Some (J.Float dur) ->
            Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
            Alcotest.(check bool) "dur >= 0" true (dur >= 0.0)
          | _ -> Alcotest.fail "ts/dur must be floats");
          match J.member "name" ev with
          | Some (J.Str _) -> ()
          | _ -> Alcotest.fail "name must be a string")
        events)

let test_jsonl_lines_parse () =
  traced (fun () ->
      Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ()));
      let lines =
        String.split_on_char '\n' (Trace.to_jsonl ())
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "line per span" 2 (List.length lines);
      List.iter
        (fun line ->
          let v = parse_exn "jsonl line" line in
          match (J.member "name" v, J.member "depth" v) with
          | Some (J.Str _), Some (J.Int _) -> ()
          | _ -> Alcotest.fail "jsonl line missing name/depth")
        lines)

(* ---- Metrics ---- *)

let test_metrics_disabled_noop () =
  Metrics.reset ();
  let c = Metrics.counter "test.disabled" in
  Metrics.add c 5;
  Alcotest.(check int) "no update while disabled" 0 (Metrics.counter_value c)

let test_metrics_counters_gauges () =
  metered (fun () ->
      let c = Metrics.counter "test.c" in
      let g = Metrics.gauge "test.g" in
      Metrics.incr c;
      Metrics.add c 4;
      Metrics.set g 2.5;
      Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
      Alcotest.(check (float 1e-9)) "gauge" 2.5 (Metrics.gauge_value g);
      Alcotest.(check bool) "registration is idempotent" true
        (Metrics.counter_value (Metrics.counter "test.c") = 5))

(* The always-on histogram behind Metrics and the serve latency stats:
   exact count/sum/max, and quantiles read as bucket upper edges
   clamped to the max. *)
let test_histogram_quantiles () =
  let module H = Crs_obs.Histogram in
  let h = H.create () in
  Alcotest.(check (list int)) "empty: count, max, p99" [ 0; 0; 0 ]
    [ H.count h; H.max h; H.quantile_upper h 0.99 ];
  List.iter (H.observe h) [ 0; 1; 2; 3; 100 ];
  Alcotest.(check (list int)) "count, sum, max" [ 5; 106; 100 ]
    [ H.count h; H.sum h; H.max h ];
  (* Ranks: p20 -> the 0 sample (edge 0), p50 -> 2 (bucket [2,4), edge
     4), p99 -> 100 (bucket [64,128), edge 128, clamped to the max
     100). *)
  Alcotest.(check (list int)) "upper-edge quantiles" [ 0; 4; 100 ]
    (List.map (H.quantile_upper h) [ 0.2; 0.5; 0.99 ]);
  Alcotest.(check (list (pair int int))) "buckets"
    [ (0, 1); (1, 1); (2, 2); (64, 1) ]
    (H.buckets h);
  H.observe h max_int;
  Alcotest.(check int) "top bucket edge saturates" max_int (H.quantile_upper h 1.0);
  H.reset h;
  Alcotest.(check (list int)) "reset" [ 0; 0; 0 ] [ H.count h; H.sum h; H.max h ]

let test_metrics_histogram_snapshot () =
  metered (fun () ->
      let h = Metrics.histogram "test.h" in
      List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4 ];
      let doc = parse_exn "snapshot" (Metrics.snapshot ()) in
      (match J.member "schema" doc with
      | Some (J.Str "crs-metrics/1") -> ()
      | _ -> Alcotest.fail "schema marker missing");
      let hist =
        match J.member "histograms" doc with
        | Some o -> (
          match J.member "test.h" o with
          | Some h -> h
          | None -> Alcotest.fail "test.h missing")
        | None -> Alcotest.fail "histograms missing"
      in
      (match (J.member "count" hist, J.member "sum" hist) with
      | Some (J.Int 5), Some (J.Int 10) -> ()
      | _ -> Alcotest.fail "count/sum wrong");
      (* Buckets: 0 -> lo 0; 1 -> lo 1; 2,3 -> lo 2; 4 -> lo 4. *)
      match J.member "buckets" hist with
      | Some (J.List buckets) ->
        let pairs =
          List.map
            (fun b ->
              match (J.member "lo" b, J.member "count" b) with
              | Some (J.Int lo), Some (J.Int c) -> (lo, c)
              | _ -> Alcotest.fail "bucket shape")
            buckets
        in
        Alcotest.(check (list (pair int int)))
          "log-scale buckets"
          [ (0, 1); (1, 1); (2, 2); (4, 1) ]
          pairs
      | _ -> Alcotest.fail "buckets missing")

(* ---- profiling hooks + determinism across pool sizes ---- *)

let campaign_spec =
  {
    Crs_campaign.Spec.family = Crs_campaign.Spec.Uniform;
    m = 3;
    n = 3;
    granularity = 10;
    seed_lo = 1;
    seed_hi = 4;
    algorithms =
      [
        Crs_algorithms.Registry.Names.greedy_balance;
        Crs_algorithms.Registry.Names.round_robin;
      ];
    baseline = Crs_campaign.Spec.Lower_bound;
    fuel = Some 2_000_000;
  }

let signature_of_campaign ~domains =
  traced (fun () ->
      ignore (Crs_campaign.Runner.run ~domains campaign_spec);
      Trace.signature ())

let test_campaign_trace_deterministic () =
  let s1 = signature_of_campaign ~domains:1 in
  let s2 = signature_of_campaign ~domains:2 in
  let s3 = signature_of_campaign ~domains:3 in
  Alcotest.(check bool) "non-empty" true (String.length s1 > 0);
  (* 8 items, each campaign.item + registry.solve. *)
  Alcotest.(check int) "16 span lines" 16
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' s1)));
  Alcotest.(check string) "1 vs 2 domains" s1 s2;
  Alcotest.(check string) "1 vs 3 domains" s1 s3

let test_solver_root_span_counters () =
  traced (fun () ->
      metered (fun () ->
          let inst = Crs_generators.Adversarial.round_robin_family ~n:5 in
          let solver =
            Crs_algorithms.Registry.find_exn Crs_algorithms.Registry.Names.opt_two
          in
          ignore (Crs_algorithms.Registry.solve solver inst);
          (* Root span carries the makespan and counter deltas. *)
          let root =
            match Trace.forest () with
            | [ t ] -> t
            | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)
          in
          Alcotest.(check string) "root name" "registry.solve"
            root.Trace.span.Trace.name;
          Alcotest.(check bool) "makespan attr" true
            (List.mem_assoc "makespan" root.Trace.span.Trace.attrs);
          (* Counters exported under solver.<name>.*. *)
          Alcotest.(check int) "solve counted" 1
            (Metrics.counter_value (Metrics.counter "solver.opt-two.solves"))))

(* The kernels cannot link crs_obs, so Registry.solve is the only place
   a solve records anything: one registry.solve root with no children,
   whose counter attributes are exactly the outcome's counters. *)
let test_registry_span_contract () =
  let module R = Crs_algorithms.Registry in
  let m3 =
    let module G = Crs_generators.Random_gen in
    G.instance
      ~spec:{ G.default_spec with m = 3; jobs_min = 2; jobs_max = 3 }
      (Random.State.make [| 14 |])
  in
  let counter_names =
    [
      "states_expanded"; "dp_relaxations"; "configs_enumerated"; "memo_hits";
      "memo_misses";
    ]
  in
  List.iter
    (fun (name, inst) ->
      traced (fun () ->
          let out = R.solve (R.find_exn name) inst in
          let counters = R.Counters.to_assoc out.R.counters in
          Alcotest.(check bool) (name ^ ": kernel counted work") true
            (List.exists (fun k -> List.assoc k counters > 0) counter_names);
          match Trace.forest () with
          | [ root ] ->
            Alcotest.(check string) (name ^ ": root") "registry.solve"
              root.Trace.span.Trace.name;
            Alcotest.(check int) (name ^ ": no child spans") 0
              (List.length root.Trace.children);
            List.iter
              (fun k ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s attr = outcome counter" name k)
                  true
                  (List.assoc_opt k root.Trace.span.Trace.attrs
                  = Some (Trace.Int (List.assoc k counters))))
              counter_names
          | l ->
            Alcotest.failf "%s: expected 1 span tree, got %d" name (List.length l)))
    [
      (R.Names.opt_two, Crs_generators.Adversarial.round_robin_family ~n:5);
      (R.Names.opt_config, m3);
      (R.Names.brute_force, m3);
    ];
  (* Layer widths are the one figure the root span lacks: with metrics
     on, the opt-config adapter observes one histogram sample per layer. *)
  metered (fun () ->
      let module K = Crs_kernels.Opt_config in
      let layers = (K.solve m3).K.stats.K.layers in
      let out = R.solve (R.find_exn R.Names.opt_config) m3 in
      let hist =
        match J.member "histograms" (parse_exn "snapshot" (Metrics.snapshot ())) with
        | Some h -> J.member "opt_config.layer_size" h
        | None -> None
      in
      match hist with
      | Some h ->
        Alcotest.(check (option int)) "one observation per layer"
          (Some (List.length layers))
          (match J.member "count" h with Some (J.Int c) -> Some c | _ -> None);
        Alcotest.(check (option int)) "observations sum to states_expanded"
          (Some out.R.counters.R.Counters.states_expanded)
          (match J.member "sum" h with Some (J.Int c) -> Some c | _ -> None)
      | None -> Alcotest.fail "opt_config.layer_size histogram missing")

let test_fuzz_spans () =
  traced (fun () ->
      let oracle =
        match Crs_fuzz.Oracle.find "approx-bounds" with
        | Some o -> o
        | None -> List.hd Crs_fuzz.Oracle.all
      in
      let config =
        {
          Crs_fuzz.Driver.family = Crs_campaign.Spec.Uniform;
          m = 2;
          n = 2;
          granularity = 10;
          seed_lo = 1;
          seed_hi = 3;
          fuel = Some 2_000_000;
        }
      in
      ignore (Crs_fuzz.Driver.run ~domains:2 config oracle);
      let roots = Trace.forest () in
      Alcotest.(check int) "one span per seed" 3 (List.length roots);
      List.iter
        (fun (t : Trace.tree) ->
          Alcotest.(check string) "fuzz.case" "fuzz.case" t.Trace.span.Trace.name;
          Alcotest.(check bool) "outcome attr" true
            (List.mem_assoc "outcome" t.Trace.span.Trace.attrs))
        roots)

let suite =
  [
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "nesting and signature" `Quick test_nesting_and_signature;
    Alcotest.test_case "exception recorded" `Quick test_exception_recorded;
    Alcotest.test_case "add_attrs and lazy attrs" `Quick test_add_attrs_and_lazy;
    Alcotest.test_case "reset clears" `Quick test_reset_clears;
    Alcotest.test_case "chrome trace schema" `Quick test_chrome_schema;
    Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
    Alcotest.test_case "metrics disabled no-op" `Quick test_metrics_disabled_noop;
    Alcotest.test_case "metrics counters and gauges" `Quick
      test_metrics_counters_gauges;
    Alcotest.test_case "metrics histogram snapshot" `Quick
      test_metrics_histogram_snapshot;
    Alcotest.test_case "campaign trace deterministic across pool sizes" `Quick
      test_campaign_trace_deterministic;
    Alcotest.test_case "solver root span and counters" `Quick
      test_solver_root_span_counters;
    Alcotest.test_case "registry.solve is the only span of a solve" `Quick
      test_registry_span_contract;
    Alcotest.test_case "fuzz case spans" `Quick test_fuzz_spans;
    Alcotest.test_case "histogram quantiles and max" `Quick
      test_histogram_quantiles;
  ]
