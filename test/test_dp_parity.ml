(* Differential parity: the flat-state DP kernels (Opt_two, Opt_config)
   against the frozen boxed kernels vendored for the benchmark gate
   (bench/legacy). The bench asserts parity on one Figure-3 instance
   before timing; this suite pins it across the persisted corpus, a
   fresh seeded population, and hand-built instances that straddle the
   small/bigint tier boundary — the layouts' hard cases (common-
   denominator mode refused, small-tier sums spilling to the side
   table, bigint-tier requirements).

   Contract: Opt_two must agree byte-for-byte — makespan, every
   schedule row, and both work counters. Opt_config must agree on
   makespan, the generated count and the per-layer survivor profile
   (the flat kernel orders survivors canonically where the boxed one
   inherited hash-bucket order, so the replayed witness may pick a
   different equally-good parent); both witnesses must certify. *)

module Q = Crs_num.Rational
open Crs_core
module O2 = Crs_kernels.Opt_two
module OC = Crs_kernels.Opt_config
module L2 = Crs_legacy.Legacy_opt_two
module LC = Crs_legacy.Legacy_opt_config

let parity_two name instance =
  let f = O2.solve instance and l = L2.solve instance in
  Alcotest.(check int) (name ^ ": opt_two makespan") l.L2.makespan f.O2.makespan;
  Alcotest.(check string)
    (name ^ ": opt_two schedule rows byte-identical")
    (Schedule.to_string l.L2.schedule)
    (Schedule.to_string f.O2.schedule);
  Alcotest.(check int)
    (name ^ ": opt_two cells_expanded")
    l.L2.counters.L2.cells_expanded f.O2.counters.O2.cells_expanded;
  Alcotest.(check int)
    (name ^ ": opt_two relaxations")
    l.L2.counters.L2.relaxations f.O2.counters.O2.relaxations

let parity_config name instance =
  let f = OC.solve instance and l = LC.solve instance in
  Alcotest.(check int) (name ^ ": opt_config makespan") l.LC.makespan
    f.OC.makespan;
  Alcotest.(check int)
    (name ^ ": opt_config generated")
    l.LC.stats.LC.generated f.OC.stats.OC.generated;
  Alcotest.(check (list int))
    (name ^ ": opt_config layer profile")
    l.LC.stats.LC.layers f.OC.stats.OC.layers;
  (match Crs_fuzz.Certify.check instance f.OC.schedule ~claimed:f.OC.makespan with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: flat witness rejected: %s" name msg);
  match Crs_fuzz.Certify.check instance l.LC.schedule ~claimed:l.LC.makespan with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: legacy witness rejected: %s" name msg

(* Every pinned corpus entry that a kernel accepts must agree with its
   frozen baseline (Opt_config is exponential in width, so cap it at
   instances the boxed kernel solves instantly). *)
let test_corpus_parity () =
  let entries = Crs_fuzz.Corpus.load_dir "../data/corpus" in
  Alcotest.(check bool) "corpus present" true (entries <> []);
  let two = ref 0 and cfg = ref 0 in
  List.iter
    (fun (file, entry) ->
      match entry with
      | Error msg -> Alcotest.failf "%s: unreadable corpus entry: %s" file msg
      | Ok e -> (
        match Instance.of_string e.Crs_fuzz.Corpus.instance_text with
        | Error msg -> Alcotest.failf "%s: unparseable instance: %s" file msg
        | Ok i ->
          if Instance.is_unit_size i then begin
            if Instance.m i = 2 then begin
              incr two;
              parity_two file i
            end;
            if Instance.m i <= 4 && Instance.total_jobs i <= 10 then begin
              incr cfg;
              parity_config file i
            end
          end))
    entries;
  Alcotest.(check bool)
    (Printf.sprintf "corpus exercised both kernels (opt_two %d, opt_config %d)"
       !two !cfg)
    true
    (!two >= 1 && !cfg >= 1)

(* 200 fresh seeded instances (not from the corpus): 140 two-processor
   ones through Opt_two (the first 40 also through Opt_config), then 45
   three- and 15 four-processor ones through Opt_config alone. Mixed
   granularities keep both encodings in play: most draws stay in
   common-denominator mode, coprime-granularity pairs fall back to the
   canonical-pair path. *)
let test_fresh_seeded_parity () =
  let st = Random.State.make [| 0xD9; 8 |] in
  for k = 1 to 140 do
    let rows =
      Array.init 2 (fun _ ->
          let g = 2 + Random.State.int st 11 in
          Array.init
            (1 + Random.State.int st 6)
            (fun _ -> Helpers.rand_req st g))
    in
    let i = Instance.of_requirements rows in
    parity_two (Printf.sprintf "fresh m=2 #%d" k) i;
    if k <= 40 then parity_config (Printf.sprintf "fresh m=2 #%d" k) i
  done;
  for k = 1 to 45 do
    let rows =
      Array.init 3 (fun _ ->
          let g = 2 + Random.State.int st 11 in
          Array.init
            (1 + Random.State.int st 3)
            (fun _ -> Helpers.rand_req st g))
    in
    parity_config (Printf.sprintf "fresh m=3 #%d" k) (Instance.of_requirements rows)
  done;
  for k = 1 to 15 do
    let rows =
      Array.init 4 (fun _ ->
          let g = 2 + Random.State.int st 11 in
          Array.init
            (1 + Random.State.int st 2)
            (fun _ -> Helpers.rand_req st g))
    in
    parity_config (Printf.sprintf "fresh m=4 #%d" k) (Instance.of_requirements rows)
  done

(* Hand-built instances at the small/bigint seam. [Q.small_bound] is
   the largest canonical small-tier part; requirements with numerators
   near it force every escape hatch in turn. *)
let test_tier_boundary_parity () =
  let b = Q.small_bound in
  let i rows = Helpers.instance_of_strings rows in
  let frac p q = Printf.sprintf "%d/%d" p q in
  (* Sums of near-bound remainders overflow the small tier: the start
     cell's remainder already needs the bigint spill table, and the lcm
     of the denominators is far past small_bound, so common-denominator
     mode must refuse the instance. *)
  let spill =
    i
      [
        [ frac (b - 2) b; "1/3"; frac (b - 1) b ];
        [ frac (b - 3) b; "2/3"; "1/2" ];
      ]
  in
  parity_two "spill-over-bound" spill;
  parity_config "spill-over-bound" spill;
  (* Coprime ~2^16 denominators: each requirement is comfortably
     small-tier but their lcm (~2^32) exceeds small_bound, so the
     kernels must run the canonical-pair path without ever spilling. *)
  let lcm_overflow =
    i
      [
        [ frac 1 65521; frac 2 65521; frac 65520 65521 ];
        [ frac 1 65519; frac 3 65519 ];
      ]
  in
  parity_two "lcm-overflow" lcm_overflow;
  parity_config "lcm-overflow" lcm_overflow;
  (* A genuinely bigint-tier requirement (numerator and denominator
     above small_bound): prefetch leaves reqq = 0 and every touch of
     this job must take the boxed route. *)
  let big_req =
    i
      [
        [ frac (b + 1) (b + 2); "1/2" ];
        [ "1/2"; frac (b + 1) (b + 2) ];
      ]
  in
  parity_two "bigint-requirement" big_req;
  parity_config "bigint-requirement" big_req;
  (* lcm exactly AT the bound (small_bound is prime, so a denominator
     of small_bound pins the lcm there): the largest denominator
     common-denominator mode may accept. *)
  let at_bound =
    i [ [ frac 1 b; frac 2 b ]; [ frac 3 b; frac 1 b ] ]
  in
  parity_two "lcm-at-bound" at_bound;
  parity_config "lcm-at-bound" at_bound

(* The rewrite hoisted Opt_two's fuel tick past the reachability check:
   fuel is charged per REACHED cell, and the cells_expanded counter is
   now exactly the solve's fuel price. The instance keeps the start
   remainder <= 1, so the DP walks the diagonal and most grid cells
   stay unreachable — the pre-rewrite kernel ticked all of them. *)
let test_fuel_price_is_reachable_cells () =
  let i = Helpers.instance_of_strings [ [ "1/4"; "1/2" ]; [ "1/4"; "1/2" ] ] in
  let before = Crs_util.Fuel.ticks () in
  let sol = O2.solve i in
  let spent = Crs_util.Fuel.ticks () - before in
  Alcotest.(check int) "diagonal instance reaches 2 of 8 grid cells" 2
    sol.O2.counters.O2.cells_expanded;
  Alcotest.(check int) "fuel spent = cells expanded"
    sol.O2.counters.O2.cells_expanded spent;
  Alcotest.(check int) "budget = reachable count completes" 2
    (Crs_util.Fuel.with_fuel (Some 2) (fun () -> O2.makespan i));
  Alcotest.(check bool) "one tick fewer runs dry" true
    (match Crs_util.Fuel.with_fuel (Some 1) (fun () -> O2.makespan i) with
    | _ -> false
    | exception Crs_util.Fuel.Out_of_fuel -> true)

(* ---- the pooled tableau ----

   Opt_two takes its tableau from a process-wide pool and never clears
   a reused buffer: each solve stamps the cells it reaches with a fresh
   epoch. These tests pin that reuse, however it interleaves with
   aborted and concurrent solves, never changes an answer. *)

(* Two-processor instances in both encodings: [`Common] draws
   requirements on a grid of 20 (common-denominator mode); [`Pairs]
   draws over the primes 1301, 1303 and 1307, whose lcm passes
   small_bound, so the kernel keeps canonical pairs and spills the odd
   remainder whose denominator outgrows the small tier. *)
let pool_instance st ~n mode =
  let req k =
    match mode with
    | `Common -> Helpers.rand_req st 20
    | `Pairs ->
      let d = [| 1301; 1303; 1307 |].(k mod 3) in
      Q.of_ints (1 + Random.State.int st (d - 1)) d
  in
  Instance.of_requirements
    (Array.init 2 (fun p -> Array.init n (fun k -> req (k + p))))

(* A large solve aborted mid-sweep by a tiny fuel budget leaves its
   buffer half-written; the smaller and the larger solve that follow on
   the same domain (both big enough that only a buffer of the aborted
   solve's size class fits them) must still match the frozen, unpooled
   kernel byte for byte. *)
let test_pool_abort_then_reuse () =
  List.iter
    (fun (mode, label) ->
      let st = Random.State.make [| 0xAB; Hashtbl.hash label |] in
      let aborted = pool_instance st ~n:300 mode in
      (match Crs_util.Fuel.with_fuel (Some 40) (fun () -> O2.solve aborted) with
      | _ -> Alcotest.failf "%s: a 40-tick budget cannot finish n=300" label
      | exception Crs_util.Fuel.Out_of_fuel -> ());
      parity_two (label ^ " smaller after abort") (pool_instance st ~n:260 mode);
      parity_two (label ^ " larger after abort") (pool_instance st ~n:330 mode);
      parity_two (label ^ " the aborted instance") aborted)
    [ (`Common, "common-denominator"); (`Pairs, "canonical pairs") ];
  (* Past the cap a solve allocates its own tableau and drops it. *)
  ignore (O2.makespan (pool_instance (Random.State.make [| 7 |]) ~n:400 `Common));
  let kept = O2.retained () in
  Alcotest.(check bool) "pool holds at most one buffer per domain" true
    (List.length kept <= Domain.recommended_domain_count ());
  List.iter
    (fun cells ->
      Alcotest.(check bool) "no pooled buffer above the cap" true
        (cells <= O2.max_pooled_cells))
    kept

(* Mixed sizes and both encodings, solved concurrently on two domains
   in opposite orders with aborted solves in between, must match the
   sequential answers exactly. *)
let test_pool_concurrent_domains () =
  let st = Random.State.make [| 0xC0; 2 |] in
  let instances =
    Array.init 16 (fun k ->
        pool_instance st
          ~n:(5 + Random.State.int st 120)
          (if k mod 3 = 0 then `Pairs else `Common))
  in
  let answer i =
    let s = O2.solve i in
    Printf.sprintf "%d|%d|%d|%s" s.O2.makespan s.O2.counters.O2.cells_expanded
      s.O2.counters.O2.relaxations (Schedule.to_string s.O2.schedule)
  in
  let expected = Array.map answer instances in
  let worker order () =
    Array.init 3 (fun round ->
        Array.map
          (fun k ->
            if (k + round) mod 5 = 0 then begin
              try
                ignore
                  (Crs_util.Fuel.with_fuel (Some 25) (fun () -> O2.solve instances.(k)))
              with Crs_util.Fuel.Out_of_fuel -> ()
            end;
            (k, answer instances.(k)))
          order)
  in
  let fwd = Array.init 16 Fun.id in
  let rev = Array.init 16 (fun k -> 15 - k) in
  let d1 = Domain.spawn (worker fwd) and d2 = Domain.spawn (worker rev) in
  List.iter
    (fun rounds ->
      Array.iter
        (Array.iter (fun (k, got) ->
             Alcotest.(check string)
               (Printf.sprintf "instance %d matches its sequential answer" k)
               expected.(k) got))
        rounds)
    [ Domain.join d1; Domain.join d2 ]

(* After warm-up a solve's tableau comes from the pool, so the words it
   allocates on the major heap no longer scale with the n^2 table
   (161,605 per solve at n = 200 when each solve made its own). *)
let test_pool_major_words_bounded () =
  let n = 200 in
  let i = pool_instance (Random.State.make [| 0x200 |]) ~n `Common in
  for _ = 1 to 3 do
    ignore (O2.solve i)
  done;
  let major () =
    let _, _, ma = Gc.counters () in
    ma
  in
  let best = ref infinity in
  for _ = 1 to 5 do
    let m0 = major () in
    ignore (Sys.opaque_identity (O2.solve i));
    best := Float.min !best (major () -. m0)
  done;
  let bound = float_of_int (20 * n) in
  if !best > bound then
    Alcotest.failf "Opt_two.solve n=%d: %.0f major words (bound %.0f)" n !best
      bound

let suite =
  [
    Alcotest.test_case "corpus instances agree with frozen kernels" `Quick
      test_corpus_parity;
    Alcotest.test_case "200 fresh seeded instances agree" `Quick
      test_fresh_seeded_parity;
    Alcotest.test_case "tier-boundary instances agree" `Quick
      test_tier_boundary_parity;
    Alcotest.test_case "opt_two fuel price = reachable cells" `Quick
      test_fuel_price_is_reachable_cells;
    Alcotest.test_case "pooled tableau: abort, then reuse" `Quick
      test_pool_abort_then_reuse;
    Alcotest.test_case "pooled tableau: two domains" `Quick
      test_pool_concurrent_domains;
    Alcotest.test_case "pooled tableau: major words bounded" `Quick
      test_pool_major_words_bounded;
  ]
