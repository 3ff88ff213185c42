(* The campaign workload: [Runner.run ~domains:2] in-process over a fixed
   uniform spec (m = 2, n = 150, exact baseline, three heuristics), the
   offline researcher path with no sockets in the way. Its open loop
   submits single items to a persistent executor as they arrive. *)

module S = Stat
module Spec = Crs_campaign.Spec
module Runner = Crs_campaign.Runner
module Report = Crs_campaign.Report
module Exec = Crs_exec.Exec
module R = Crs_algorithms.Registry

let seeds_per_rep = 50
let base_rate = 200.0
let ladder = [| 480.0; 600.0; 720.0; 840.0; 960.0 |]
let limit_ms = 100.0

let spec ~seed ~rep =
  let lo = 1 + (((seed * 7919) + (rep * seeds_per_rep)) mod 1_000_000_000) in
  {
    Spec.family = Spec.Uniform;
    m = 2;
    n = 150;
    granularity = 10;
    seed_lo = lo;
    seed_hi = lo + seeds_per_rep - 1;
    algorithms = R.Names.[ greedy_balance; round_robin; proportional ];
    baseline = Spec.Exact;
    fuel = Spec.default.fuel;
  }

let is_error (r : Report.record) = match r.outcome with Report.Error _ -> true | _ -> false

(* Items arriving on an open-loop schedule, each submitted to [ex] when
   due; latency runs from the due time to the item's completion. *)
type arrivals = {
  jobs : (Spec.t * Spec.item) array;
  out : Report.record option array;
  due : float array;
  fin : float array;
  lag : float array;
  t0 : float;
  seconds : float;
}

let open_loop ex ~seed ~stream ~rate ~seconds pool =
  let offsets, _ = Serving.schedule ~seed ~stream ~rate ~burst:1 ~duration:seconds in
  let n = Array.length offsets in
  let jobs = Array.init n (fun k -> pool.(k mod Array.length pool)) in
  let t0 = Traffic.now () in
  let a =
    { jobs; out = Array.make n None; due = Array.make n 0.0; fin = Array.make n Float.nan; lag = Array.make n 0.0; t0; seconds }
  in
  Array.iteri
    (fun k off ->
      let due = t0 +. off in
      let wait = due -. Traffic.now () in
      if wait > 0.0 then Unix.sleepf wait;
      a.due.(k) <- due;
      a.lag.(k) <- Traffic.now () -. due;
      let spec, item = jobs.(k) in
      Exec.submit ex (fun () ->
          a.out.(k) <- Some (Runner.run_item spec item);
          a.fin.(k) <- Traffic.now ()))
    offsets;
  (match Exec.await_all ex with Some e -> raise e | None -> ());
  (a, float_of_int n /. seconds)

(* Latencies (ms) of the requests in the faster half of the windows;
   see [Stat.fast_half]. *)
let latencies a =
  let all =
    Array.mapi
      (fun k fin ->
        match a.out.(k) with
        | Some r when not (is_error r) -> (fin -. a.due.(k)) *. 1000.0
        | _ -> Float.infinity)
      a.fin
  in
  let kept, _ = S.fast_half ~t_start:a.t0 ~seconds:a.seconds ~due:a.due all in
  Array.map (fun i -> all.(i)) kept

let median_setup () =
  S.median
    (Array.init 201 (fun rep ->
         let t0 = Traffic.now () in
         let spec = Result.get_ok (Spec.validate (spec ~seed:0 ~rep)) in
         ignore (Spec.expand spec);
         let ex = Exec.create ~domains:2 in
         let dt = Traffic.now () -. t0 in
         Exec.shutdown ex;
         dt))

(* Records of a domains:2 run must carry the domains:1 payload digest. *)
let digest_matches spec recs = Report.payload_digest recs = Report.payload_digest (Runner.run ~domains:1 spec)

let e2e ~seed ~seconds =
  let setup = median_setup () in
  let closed_s = 0.4 *. seconds and open_s = 0.3 *. seconds in
  let rung_s = 0.3 *. seconds /. float_of_int (Array.length ladder) in
  let t_start = Traffic.now () in
  let rec reps r acc =
    if Traffic.now () -. t_start >= closed_s then List.rev acc
    else
      let spec = spec ~seed ~rep:r in
      let t0 = Traffic.now () in
      let recs = Runner.run ~domains:2 spec in
      reps (r + 1) ((spec, recs, Traffic.now () -. t0) :: acc)
  in
  let runs = reps 0 [] in
  let items = List.fold_left (fun acc (_, recs, _) -> acc + Array.length recs) 0 runs in
  (* Each run is a window: the faster half of them give the figures. *)
  let fast =
    let ranked = List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) runs in
    List.filteri (fun r _ -> r < (List.length ranked + 1) / 2) ranked
  in
  let rate =
    float_of_int (List.fold_left (fun acc (_, recs, _) -> acc + Array.length recs) 0 fast)
    /. List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0.0 fast
  in
  let item_ms =
    Array.concat (List.map (fun (_, recs, _) -> Array.map (fun (r : Report.record) -> float_of_int r.wall_ns /. 1e6) recs) fast)
  in
  let pool = Array.concat (List.map (fun (spec, _, _) -> Array.map (fun it -> (spec, it)) (Spec.expand spec)) runs) in
  let ex = Exec.create ~domains:2 in
  let op, _ = open_loop ex ~seed ~stream:1 ~rate:base_rate ~seconds:open_s pool in
  let rec climb k acc =
    if k >= Array.length ladder then List.rev acc
    else
      let a, offered = open_loop ex ~seed ~stream:(10 + k) ~rate:ladder.(k) ~seconds:rung_s pool in
      let p99 = S.quantile (latencies a) 0.99 in
      let pass = p99 <= limit_ms in
      Printf.printf "rung %-8.0f offered %.1f items/s p99 %.3f ms %s\n" ladder.(k) offered p99 (if pass then "pass" else "fail");
      let acc = (a, offered, p99, pass) :: acc in
      if pass then climb (k + 1) acc else List.rev acc
  in
  let rungs = List.mapi (fun k (a, _, p, ok) -> (a, ladder.(k), p, ok)) (climb 0 []) in
  Exec.shutdown ex;
  let rss = float_of_int (Proc.vm_hwm_kb (Unix.getpid ())) /. 1024.0 in
  (* Checks, outside the timed region. *)
  let digests_ok = List.for_all (fun (spec, recs, _) -> digest_matches spec recs) runs in
  let by_item = Hashtbl.create items in
  List.iter (fun (spec, recs, _) -> Array.iter (fun (r : Report.record) -> Hashtbl.replace by_item (spec.Spec.seed_lo, r.id) (Report.payload r)) recs) runs;
  let replay_ok a =
    Array.for_all2
      (fun (spec, (item : Spec.item)) out ->
        match out with
        | Some r -> Hashtbl.find_opt by_item (spec.Spec.seed_lo, item.id) = Some (Report.payload r)
        | None -> false)
      a.jobs a.out
  in
  let open_ok = replay_ok op && List.for_all (fun (a, _, _, _) -> replay_ok a) rungs in
  let t = S.tally () in
  List.iter
    (fun (_, recs, _) ->
      Array.iter (fun r -> t.attempted <- t.attempted + 1; if is_error r then t.error <- t.error + 1 else t.ok <- t.ok + 1) recs)
    runs;
  Array.iter
    (fun o ->
      t.attempted <- t.attempted + 1;
      match o with Some r when not (is_error r) -> t.ok <- t.ok + 1 | Some _ -> t.error <- t.error + 1 | None -> t.unanswered <- t.unanswered + 1)
    op.out;
  Printf.printf "campaign %d runs of %d items, digests %s, open-loop payloads %s; %s\n" (List.length runs)
    (3 * seeds_per_rep) (if digests_ok then "match" else "DIFFER") (if open_ok then "match" else "DIFFER")
    (S.tally_to_string t);
  let lat_o = latencies op in
  let metrics =
    [
      ("throughput_rps", rate, "1/s");
      ("p50_ms", S.median item_ms, "ms");
      ("p99_ms", S.quantile item_ms 0.99, "ms");
      ("open_p50_ms", S.median lat_o, "ms");
      ("open_p99_ms", S.quantile lat_o 0.99, "ms");
      ("max_rate_rps", Serving.max_rate ~limit:limit_ms rungs, "1/s");
      ("items_per_s", rate, "1/s");
      ("setup_s", setup, "s");
      ("rss_mb", rss, "MB");
    ]
  in
  (digests_ok && open_ok, t, metrics)

(* ---- traced run ---- *)

let traced ~seed ~seconds ~spans_path =
  let spec = { (spec ~seed ~rep:0) with seed_hi = (spec ~seed ~rep:0).seed_lo + 39 } in
  let items = Spec.expand spec in
  let n = float_of_int (Array.length items) in
  let timed f =
    let t0 = Traffic.now () in
    let v = f () in
    (v, Traffic.now () -. t0)
  in
  let seq, seq_s = timed (fun () -> Runner.run ~domains:1 spec) in
  let seq_rate = n /. seq_s in
  let par, par_s = timed (fun () -> Runner.run ~domains:2 spec) in
  (* Pass A: sequential [Runner.run_item], one span per item. *)
  Spans.reset ();
  Spans.enabled := true;
  let g0 = Gc.quick_stat () in
  let traced_recs, traced_s =
    timed (fun () -> Array.map (fun it -> Spans.with_span "campaign.item" (fun () -> Runner.run_item spec it)) items)
  in
  let g1 = Gc.quick_stat () in
  (* Pass B: the public calls an item makes, one span each. *)
  let solves = ref [] in
  Array.iter
    (fun (it : Spec.item) ->
      Spans.with_span "campaign.replay" (fun () ->
          let inst = Spans.with_span "spec.instance" (fun () -> Spec.instance spec ~seed:it.seed) in
          List.iter
            (fun name ->
              let o = Spans.with_span "registry.solve" (fun () -> R.solve (R.find_exn name) inst) in
              solves := o.R.counters :: !solves)
            [ it.algorithm; R.Names.optimal ]))
    items;
  Spans.enabled := false;
  let spans = Spans.all () in
  (* The executor as [Runner.run] drives it: chunked [map_on]. *)
  let ex = Exec.create ~domains:2 in
  let x0 = Exec.stats ex in
  let chunk = max 1 (Array.length items / 16) in
  let waits = Array.make ((Array.length items + chunk - 1) / chunk) 0.0 in
  let t_map = Traffic.now () in
  let mapped =
    Exec.map_on ~chunk ex
      (fun (it : Spec.item) ->
        (* The first item of a chunk starts its task. *)
        if it.id mod chunk = 0 then waits.(it.id / chunk) <- (Traffic.now () -. t_map) *. 1e6;
        Runner.run_item spec it)
      items
  in
  let x1 = Exec.stats ex in
  let pool = Array.map (fun it -> (spec, it)) items in
  let a, _ = open_loop ex ~seed ~stream:3 ~rate:base_rate ~seconds:(0.2 *. seconds) pool in
  Exec.shutdown ex;
  let d = Report.payload_digest seq in
  let correct =
    List.for_all (fun r -> Report.payload_digest r = d) [ par; traced_recs; mapped ]
    && Array.for_all (function Some r -> not (is_error r) | None -> false) a.out
  in
  let dur name = Spans.durations_ns name spans in
  let self = Spans.self_by_name spans in
  let self_of name = match List.assoc_opt name self with Some (_, t) -> float_of_int t | None -> 0.0 in
  let replay_total = S.sum (dur "campaign.replay") in
  List.iter
    (fun (name, (count, t)) ->
      Printf.printf "  %-20s %7d spans %10.3f ms self\n" name count (float_of_int t /. 1e6))
    self;
  Spans.write spans_path spans;
  let solved = Array.of_list !solves in
  let states = S.sum (Array.map (fun c -> float_of_int c.R.Counters.states_expanded) solved) in
  let relax = S.sum (Array.map (fun c -> float_of_int c.R.Counters.dp_relaxations) solved) in
  let solve_ns = dur "registry.solve" in
  let nsolved = float_of_int (Array.length solved) in
  let t = S.tally () in
  Array.iter (fun r -> t.attempted <- t.attempted + 1; if is_error r then t.error <- t.error + 1 else t.ok <- t.ok + 1) par;
  let par_rate = n /. par_s in
  Printf.printf "campaign.parallel_efficiency base: %.1f items/s on 2 domains over 2 x %.1f items/s on 1\n" par_rate seq_rate;
  let metrics =
    [
      ("protocol.parse_us", 0.0, "us");
      ("protocol.parse_ns_per_byte", 0.0, "ns/byte");
      ("protocol.respond_us", 0.0, "us");
      ("canon.key_us", 0.0, "us");
      ("cache.find_us", 0.0, "us");
      ("cache.hit_ratio", 0.0, "ratio");
      ("cache.evictions_per_req", 0.0, "count");
      ("registry.solve_us", S.median solve_ns /. 1000.0, "us");
      ("registry.solve_p99_us", S.quantile solve_ns 0.99 /. 1000.0, "us");
      ("registry.states_per_solve", states /. nsolved, "count");
      ("registry.relaxations_per_solve", relax /. nsolved, "count");
      ("registry.ns_per_state", S.sum solve_ns /. states, "ns");
      ("registry.solve_share", self_of "registry.solve" /. replay_total, "ratio");
      ("exec.queue_wait_us", S.median waits, "us");
      ("exec.parks_per_task", float_of_int (x1.parks - x0.parks) /. n, "count");
      ("exec.steals_per_task", float_of_int (x1.steals - x0.steals) /. n, "count");
      ("admission.shed_frac", 0.0, "ratio");
      ("server.batch_us", 0.0, "us");
      ("frontend.overhead_us", 0.0, "us");
      ("balancer.route_us", 0.0, "us");
      ("balancer.hop_us", 0.0, "us");
      ("balancer.route_skew", 0.0, "ratio");
      ("campaign.item_us", S.median (dur "campaign.item") /. 1000.0, "us");
      ("campaign.parallel_efficiency", par_rate /. (2.0 *. seq_rate), "ratio");
      ("campaign.seq_items_per_s", seq_rate, "1/s");
      ("gc.minor_words_per_req", (g1.minor_words -. g0.minor_words) /. n, "words");
      ("gc.major_words_per_req", (g1.major_words -. g0.major_words) /. n, "words");
      ("gc.minor_collections_per_kreq", float_of_int (g1.minor_collections - g0.minor_collections) *. 1000.0 /. n, "count");
      ("gen.lag_ms", S.quantile a.lag 0.99 *. 1000.0, "ms");
      ("trace.overhead_frac", (traced_s -. seq_s) /. traced_s, "ratio");
    ]
  in
  (correct, t, metrics)
