(* Tests for splittable bin packing with cardinality constraints (the
   paper's Section 2 baseline) and its use as a CRSharing relaxation. *)

module Q = Crs_num.Rational
module S = Crs_binpack.Splittable

let q = Helpers.q

let test_validation () =
  Alcotest.check_raises "k >= 1" (Invalid_argument "Splittable.make: k must be >= 1")
    (fun () -> ignore (S.make ~k:0 [| Q.one |]));
  Alcotest.check_raises "positive sizes"
    (Invalid_argument "Splittable.make: sizes must be positive") (fun () ->
      ignore (S.make ~k:2 [| Q.zero |]))

let test_next_fit_simple () =
  (* Three halves with k=2: bin1 = two halves, bin2 = one. *)
  let t = S.make ~k:2 [| Q.half; Q.half; Q.half |] in
  let p = S.next_fit t in
  Alcotest.(check bool) "valid" true (Result.is_ok (S.check t p));
  Alcotest.(check int) "2 bins" 2 (S.num_bins p)

let test_next_fit_splits () =
  (* An item larger than a bin must span bins. *)
  let t = S.make ~k:3 [| q "5/2" |] in
  let p = S.next_fit t in
  Alcotest.(check bool) "valid" true (Result.is_ok (S.check t p));
  Alcotest.(check int) "3 bins for size 5/2" 3 (S.num_bins p)

let test_cardinality_closes_bins () =
  (* Tiny items with k=2: cardinality, not capacity, limits bins. *)
  let t = S.make ~k:2 (Array.make 6 (q "1/100")) in
  let p = S.next_fit t in
  Alcotest.(check bool) "valid" true (Result.is_ok (S.check t p));
  Alcotest.(check int) "3 bins (6 items / k=2)" 3 (S.num_bins p);
  Alcotest.(check int) "cardinality bound" 3 (S.cardinality_bound t)

let test_check_catches_bad_packings () =
  let t = S.make ~k:2 [| Q.half; Q.half |] in
  let overfull = { S.bins = [ [ (0, Q.half); (1, q "3/5") ] ] } in
  Alcotest.(check bool) "overfull" true (Result.is_error (S.check t overfull));
  let too_many = { S.bins = [ [ (0, q "1/4"); (0, q "1/4"); (1, Q.half) ] ] } in
  Alcotest.(check bool) "cardinality" true (Result.is_error (S.check t too_many));
  let missing = { S.bins = [ [ (0, Q.half) ] ] } in
  Alcotest.(check bool) "item not fully packed" true (Result.is_error (S.check t missing))

let test_bounds () =
  let t = S.make ~k:2 [| q "3/4"; q "3/4"; q "3/4" |] in
  Alcotest.(check int) "material" 3 (S.material_bound t);
  Alcotest.(check int) "cardinality" 2 (S.cardinality_bound t);
  Alcotest.(check bool) "lower bound >= both" true (S.lower_bound t >= 3);
  Alcotest.check Helpers.check_q "guarantee k=2" (q "3/2") (S.next_fit_guarantee ~k:2);
  Alcotest.check Helpers.check_q "guarantee k=5" (q "9/5") (S.next_fit_guarantee ~k:5)

let test_interleave_family_ratio () =
  (* NextFit on the 3/5,1/5 family: ~7n/6 bins vs OPT = n. *)
  let n = 36 in
  let t = S.interleave_family ~n in
  let nf = S.num_bins (S.next_fit t) in
  let opt = S.interleave_family_opt ~n in
  Alcotest.(check bool) "valid" true (Result.is_ok (S.check t (S.next_fit t)));
  let ratio = float_of_int nf /. float_of_int opt in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f in [1.1, 1.5]" ratio)
    true
    (ratio >= 1.1 && ratio <= 1.5);
  (* The decreasing-order ablation also cannot beat OPT. *)
  Alcotest.(check bool) "NFD >= OPT" true (S.num_bins (S.next_fit_decreasing t) >= opt)

let prop_next_fit_sound =
  Helpers.qcheck_case ~count:80 "NextFit packings valid; bins within 2-1/k of LB"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 5))
    (fun (seed, k) ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 12 in
      let sizes =
        Array.init n (fun _ -> Q.of_ints (1 + Random.State.int st 30) 10)
      in
      let t = S.make ~k sizes in
      let p = S.next_fit t in
      let pd = S.next_fit_decreasing t in
      let lb = max (S.lower_bound t) 1 in
      Result.is_ok (S.check t p)
      && Result.is_ok (S.check t pd)
      && S.num_bins p >= S.lower_bound t
      (* The certified bound's defining inequality. *)
      && Q.(Q.of_int (S.num_bins p) <= Q.mul (S.next_fit_guarantee ~k) (Q.of_int lb)))

(* The relaxation property: bin-packing lower bound never exceeds the
   true CRSharing optimum. *)
let prop_relaxation_sound =
  Helpers.qcheck_case ~count:40 "bin-packing relaxation bounds CRSharing OPT"
    (Helpers.gen_instance ~max_m:3 ~max_jobs:3 ()) (fun instance ->
      let opt = Crs_kernels.Brute_force.makespan instance in
      S.crsharing_relaxation_bound instance <= opt)

let test_relaxation_on_figure1 () =
  let instance = Crs_generators.Adversarial.figure1 in
  let bound = S.crsharing_relaxation_bound instance in
  Alcotest.(check bool) "sound" true (bound <= 6);
  Alcotest.(check bool) "non-trivial" true (bound >= 4)

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "next-fit: simple" `Quick test_next_fit_simple;
    Alcotest.test_case "next-fit: splits oversized items" `Quick test_next_fit_splits;
    Alcotest.test_case "next-fit: cardinality closes bins" `Quick
      test_cardinality_closes_bins;
    Alcotest.test_case "check: rejects bad packings" `Quick test_check_catches_bad_packings;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "interleave family: certified NF gap" `Quick
      test_interleave_family_ratio;
    prop_next_fit_sound;
    prop_relaxation_sound;
    Alcotest.test_case "relaxation bound on Figure 1" `Quick test_relaxation_on_figure1;
  ]
