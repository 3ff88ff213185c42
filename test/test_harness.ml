(* The bench harness statistics: the gates in bench/ read these
   numbers, so they are pinned here on fixed inputs. *)

module J = Crs_util.Stable_json

let close = Alcotest.float 1e-12

let test_quantiles () =
  (* Odd length 7, shuffled: positions q * 6 = 1.5, 3, 4.5 interpolate
     between closest ranks. Nearest rank would give 2, 4, 6 (IQR 4). *)
  let odd = [| 7.; 1.; 5.; 3.; 6.; 2.; 4. |] in
  Alcotest.(check close) "odd median" 4.0 (Harness.quantile odd 0.5);
  Alcotest.(check close) "odd q25" 2.5 (Harness.quantile odd 0.25);
  Alcotest.(check close) "odd IQR" 3.0 (Harness.iqr odd);
  Alcotest.(check (array close)) "input left unsorted" [| 7.; 1.; 5.; 3.; 6.; 2.; 4. |] odd;
  (* Even length 4: the median is the midpoint of the middle pair. *)
  let even = [| 4.; 1.; 3.; 2. |] in
  Alcotest.(check close) "even median" 2.5 (Harness.quantile even 0.5);
  Alcotest.(check close) "even IQR" 1.5 (Harness.iqr even);
  Alcotest.(check close) "min" 1.0 (Harness.quantile even 0.0);
  Alcotest.(check close) "max" 4.0 (Harness.quantile even 1.0);
  Alcotest.(check close) "singleton" 9.0 (Harness.quantile [| 9. |] 0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Harness.quantile: empty array")
    (fun () -> ignore (Harness.quantile [||] 0.5))

(* A clock that only the measured closures advance, so every timing
   is exact. *)
let fake_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

let test_paired_alternates () =
  let clock, advance = fake_clock () in
  let log = ref [] in
  let side name cost () =
    log := name :: !log;
    advance cost
  in
  let p =
    Harness.paired ~warmups:1 ~clock ~reps:5 (side "a" 1.0) (side "b" 3.0)
  in
  Alcotest.(check (list string)) "warm-up, then a-b / b-a alternating"
    [ "a"; "b"; "a"; "b"; "b"; "a"; "a"; "b"; "b"; "a"; "a"; "b" ]
    (List.rev !log);
  Alcotest.(check close) "a best" 1.0 p.Harness.a_s;
  Alcotest.(check close) "b best" 3.0 p.Harness.b_s;
  Alcotest.(check close) "median ratio b/a" 3.0 p.Harness.ratio;
  Alcotest.(check close) "ratio IQR" 0.0 p.Harness.ratio_iqr

let test_paired_ratio_stats () =
  (* Side a costs 1 in every rep; side b costs the rep's entry, so the
     ratios are exactly [costs]. *)
  let clock, advance = fake_clock () in
  let costs = [| 1.0; 5.0; 2.0; 4.0 |] and rep = ref 0 in
  let p =
    Harness.paired ~warmups:0 ~clock ~reps:4
      (fun () -> advance 1.0)
      (fun () ->
        advance costs.(!rep);
        incr rep)
  in
  Alcotest.(check close) "median of ratios" 3.0 p.Harness.ratio;
  Alcotest.(check close) "IQR of ratios" 2.5 p.Harness.ratio_iqr;
  Alcotest.(check close) "b best" 1.0 p.Harness.b_s

let test_time_min () =
  let clock, advance = fake_clock () in
  let costs = [| 5.0; 2.0; 7.0 |] and rep = ref 0 in
  let best =
    Harness.time_min ~clock ~reps:3 (fun () ->
        advance costs.(!rep);
        incr rep)
  in
  Alcotest.(check close) "best of reps" 2.0 best

let test_write_json () =
  let file = Filename.temp_file "bench-harness" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Harness.write_json file [ ("gate", J.float 0.05); ("gate_met", J.bool true) ];
      let text = In_channel.with_open_text file In_channel.input_all in
      match J.parse text with
      | Error msg -> Alcotest.fail msg
      | Ok (J.Obj fields) ->
        Alcotest.(check (list string)) "keys in order, host last"
          [ "gate"; "gate_met"; "nproc"; "cpu_model" ]
          (List.map fst fields);
        Alcotest.(check bool) "host fields" true
          (match (List.assoc "nproc" fields, List.assoc "cpu_model" fields) with
          | J.Int n, J.Str model -> n = Domain.recommended_domain_count () && model <> ""
          | _ -> false)
      | Ok _ -> Alcotest.fail "not an object")

let suite =
  [
    Alcotest.test_case "quantile: linear interpolation, odd and even" `Quick
      test_quantiles;
    Alcotest.test_case "paired: alternating order, exact times" `Quick
      test_paired_alternates;
    Alcotest.test_case "paired: median and IQR of the ratios" `Quick
      test_paired_ratio_stats;
    Alcotest.test_case "time_min: best of reps" `Quick test_time_min;
    Alcotest.test_case "write_json: Stable_json plus host fields" `Quick
      test_write_json;
  ]
