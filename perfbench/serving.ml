(* The three serve workloads: a real [crsched serve] or [crsched balance]
   process driven over its Unix socket, answers checked afterwards. *)

module D = Traffic
module S = Stat
module J = Crs_util.Stable_json
module P = Crs_serve.Protocol
module Canon = Crs_serve.Canon
module Adm = Crs_serve.Admission
module R = Crs_algorithms.Registry

type cfg = {
  gen : stream:int -> int -> Gen.req;
  tier : bool;
  warm : int;  (** warm-up requests before anything is timed *)
  closed_cap_rps : float;  (** pre-generated closed-loop requests per second of phase *)
  base_rate : float;  (** open-loop rate, requests per second *)
  burst : int;  (** requests per arrival; 1 = Poisson arrivals *)
  ladder : float array;  (** open-loop rates tried for [max_rate_rps] *)
  limit_ms : float;  (** open-loop p99 limit *)
  replay_cap : int;  (** requests replayed in-process by the traced run *)
}

let conns = 2

type phase = { label : string; reqs : Gen.req array; out : D.outcome; mutable tally : S.tally }

(* Open-loop arrivals: groups of [burst] requests at exponential gaps,
   each group on one connection, round robin. *)
let schedule ~seed ~stream ~rate ~burst ~duration =
  let st = Gen.rng seed [| 5; stream |] in
  let group_rate = rate /. float_of_int burst in
  let rec go t g due conn =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. group_rate) in
    if t > duration then (Array.of_list (List.rev due), Array.of_list (List.rev conn))
    else
      go t (g + 1)
        (List.rev_append (List.init burst (fun _ -> t)) due)
        (List.rev_append (List.init burst (fun _ -> g mod conns)) conn)
  in
  go 0.0 0 [] []

let connect_all server = Array.init conns (fun _ -> Proc.connect server.Proc.sock)

let run_phase ?on_answer server ~label ~reqs ~plan ~deadline =
  let fds = connect_all server in
  let out =
    D.run ?on_answer ~fds ~lines:(Array.map (fun r -> r.Gen.line) reqs) ~plan ~deadline_s:deadline ()
  in
  Array.iter Unix.close fds;
  { label; reqs; out; tally = S.tally () }

let closed ?on_answer server cfg ~label ~stream ~seconds =
  let n = max 1 (int_of_float (cfg.closed_cap_rps *. seconds)) in
  let reqs = Array.init n (cfg.gen ~stream) in
  run_phase ?on_answer server ~label ~reqs ~plan:(D.Closed { stop_after_s = seconds }) ~deadline:(seconds +. 30.0)

let open_loop ?on_answer server cfg ~seed ~label ~stream ~rate ~seconds =
  let due_s, conn_of = schedule ~seed ~stream ~rate ~burst:cfg.burst ~duration:seconds in
  let reqs = Array.init (Array.length due_s) (cfg.gen ~stream) in
  run_phase ?on_answer server ~label ~reqs ~plan:(D.Open { due_s; conn_of }) ~deadline:(seconds +. 5.0)

let warm server cfg =
  let reqs = Array.init cfg.warm (cfg.gen ~stream:0) in
  run_phase server ~label:"warm-up" ~reqs ~plan:(D.Closed { stop_after_s = 120.0 }) ~deadline:150.0

let started ph = Array.to_list (Array.sub ph.reqs 0 ph.out.D.started)

(* Count every response by status and check every ok answer: its
   makespan must equal an in-process solve of the canonical instance,
   and all answers for one canonical key must be byte-identical. *)
let check phases =
  let expected =
    Gen.expected (List.concat_map started phases)
  in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun ph ->
      let t = S.tally () in
      for i = 0 to ph.out.D.started - 1 do
        t.attempted <- t.attempted + 1;
        let resp = ph.out.D.responses.(i) in
        if Float.is_nan ph.out.D.finished.(i) then t.unanswered <- t.unanswered + 1
        else
          match D.status_of resp with
          | Some "ok" ->
            t.ok <- t.ok + 1;
            let key = Lazy.force ph.reqs.(i).Gen.key in
            let makespan_ok =
              match J.parse resp with
              | Ok j -> J.member "makespan" j = Some (J.Int (Hashtbl.find expected key))
              | Error _ -> false
            in
            let identical =
              match Hashtbl.find_opt seen key with
              | None -> Hashtbl.add seen key resp; true
              | Some first -> String.equal first resp
            in
            if not (makespan_ok && identical) then t.wrong <- t.wrong + 1
          | Some "timeout" -> t.timeout <- t.timeout + 1
          | Some "overloaded" -> t.overloaded <- t.overloaded + 1
          | Some "draining" -> t.draining <- t.draining + 1
          | _ -> t.error <- t.error + 1
      done;
      ph.tally <- t;
      Printf.printf "phase %-12s %s\n" ph.label (S.tally_to_string t))
    phases

(* Latency from due time, in ms; a request that failed misses every
   limit, an unanswered one waited at least until the phase ended. *)
let latencies ph =
  Array.init ph.out.D.started (fun i ->
      let o = ph.out in
      if Float.is_nan o.D.finished.(i) then (o.D.t_end -. o.D.due.(i)) *. 1000.0
      else if D.status_of o.D.responses.(i) = Some "ok" then (o.D.finished.(i) -. o.D.due.(i)) *. 1000.0
      else Float.infinity)

let ok_rate ph = float_of_int ph.tally.ok /. (ph.out.D.t_end -. ph.out.D.t_start)

(* A phase's figures over the faster half of its windows: latencies
   of the kept requests (ms) and ok answers per second of kept time. *)
type figures = { lat : float array; rate : float }

let figures ph ~seconds =
  let o = ph.out in
  let all = latencies ph in
  let kept, time = S.fast_half ~t_start:o.D.t_start ~seconds ~due:(Array.sub o.D.due 0 o.D.started) all in
  let ok = Array.fold_left (fun n i -> if all.(i) < Float.infinity then n + 1 else n) 0 kept in
  { lat = Array.map (fun i -> all.(i)) kept; rate = float_of_int ok /. time }

(* The highest open-loop rate whose p99 meets [limit], interpolated in
   log-latency between the last rung that passes and the first that
   fails, so the figure does not jump by whole rungs. A failed request
   misses the limit, and a growing backlog drives the p99 of a rung far
   past it, so a rung passes only below saturation. *)
let max_rate ~limit rungs =
  let p99 (_, _, p, _) = p and rate (_, r, _, _) = r and passed (_, _, _, ok) = ok in
  match rungs with
  | [] -> Float.nan
  | first :: _ when not (passed first) -> rate first *. Float.min 1.0 (limit /. p99 first)
  | _ ->
    let rec go = function
      | [ last ] -> rate last
      | a :: (b :: _ as rest) ->
        if passed b then go rest
        else
          let hi = Float.max (p99 b) (limit *. 1.0001) in
          let f = (log limit -. log (p99 a)) /. (log hi -. log (p99 a)) in
          rate a +. (Float.min 1.0 (Float.max 0.0 f) *. (rate b -. rate a))
      | [] -> Float.nan
    in
    go rungs

(* The admission bound is raised from 64 because the server admits per
   read: when the host stalls for a moment, one read can carry dozens of
   queued bursts, and at the base rate that must not shed. *)
let queue = "512"

let argv cfg ~dir ~sock ~workers ~cache =
  if cfg.tier then
    [| Proc.crsched; "balance"; "--listen"; "unix:" ^ sock; "--shards"; "2"; "--workers"; "1";
       "--cache"; "256"; "--queue"; queue; "--socket-dir"; Filename.concat dir "shards" |]
  else
    [| Proc.crsched; "serve"; "--listen"; "unix:" ^ sock; "--workers"; string_of_int workers;
       "--cache"; string_of_int cache; "--queue"; queue |]

let shard_pids cfg server = if cfg.tier then List.map fst (Proc.shards (Proc.stats server)) else []

let spawn cfg ~dir ?(workers = 2) ?(cache = 256) name =
  let sock = Filename.concat dir (name ^ ".sock") in
  (try Sys.remove sock with Sys_error _ -> ());
  let server =
    Proc.spawn ~argv:(argv cfg ~dir ~sock ~workers ~cache) ~sock ~log:(Filename.concat dir (name ^ ".log"))
  in
  Proc.adopted := shard_pids cfg server @ !Proc.adopted;
  server

let stop cfg server = Proc.stop ~children:(shard_pids cfg server) server

let rss_mb cfg server =
  let pids = server.Proc.pid :: shard_pids cfg server in
  float_of_int (List.fold_left (fun acc p -> acc + Proc.vm_hwm_kb p) 0 pids) /. 1024.0

(* ---- end-to-end run ---- *)

let e2e cfg ~dir ~seed ~seconds =
  let setups =
    List.init 3 (fun k ->
        let s = spawn cfg ~dir (Printf.sprintf "setup%d" k) in
        if k < 2 then stop cfg s;
        s)
  in
  let server = List.nth setups 2 in
  let w = warm server cfg in
  let closed_s = 0.4 *. seconds and open_s = 0.3 *. seconds in
  let rung_s = 0.3 *. seconds /. float_of_int (Array.length cfg.ladder) in
  let cl = closed server cfg ~label:"closed" ~stream:1 ~seconds:closed_s in
  let op = open_loop server cfg ~seed ~label:"open" ~stream:2 ~rate:cfg.base_rate ~seconds:open_s in
  (* Peak RSS before the ladder, whose overloaded top rung would set it. *)
  let rss = rss_mb cfg server in
  let rec ladder k acc =
    if k >= Array.length cfg.ladder then List.rev acc
    else
      let ph =
        open_loop server cfg ~seed ~label:(Printf.sprintf "rung-%.0f" cfg.ladder.(k)) ~stream:(10 + k)
          ~rate:cfg.ladder.(k) ~seconds:rung_s
      in
      let p99 = S.quantile (figures ph ~seconds:rung_s).lat 0.99 in
      let offered = float_of_int ph.out.D.started /. rung_s in
      let pass = p99 <= cfg.limit_ms in
      let acc = (ph, offered, p99, pass) :: acc in
      if pass then ladder (k + 1) acc else List.rev acc
  in
  let rungs = ladder 0 [] in
  stop cfg server;
  let rung_phases = List.map (fun (ph, _, _, _) -> ph) rungs in
  check ([ w; cl; op ] @ rung_phases);
  List.iter
    (fun (ph, offered, p99, pass) ->
      Printf.printf "rung %-12s offered %.1f rps p99 %.3f ms %s\n" ph.label offered p99
        (if pass then "pass" else "fail"))
    rungs;
  let counted = S.tally () in
  S.add counted cl.tally;
  S.add counted op.tally;
  let wrong = List.exists (fun ph -> ph.tally.wrong > 0) ([ w; cl; op ] @ rung_phases) in
  let fc = figures cl ~seconds:closed_s and fo = figures op ~seconds:open_s in
  let lat_c = fc.lat and lat_o = fo.lat in
  let tput = fc.rate in
  let metrics =
    [
      ("throughput_rps", tput, "1/s");
      ("p50_ms", S.median lat_c, "ms");
      ("p99_ms", S.quantile lat_c 0.99, "ms");
      ("open_p50_ms", S.median lat_o, "ms");
      ("open_p99_ms", S.quantile lat_o 0.99, "ms");
      ( "max_rate_rps",
        max_rate ~limit:cfg.limit_ms (List.mapi (fun k (ph, _, p, ok) -> (ph, cfg.ladder.(k), p, ok)) rungs),
        "1/s" );
      ("items_per_s", tput, "1/s");
      ("setup_s", S.median (Array.of_list (List.map (fun s -> s.Proc.setup_s) setups)), "s");
      ("rss_mb", rss, "MB");
    ]
  in
  Printf.printf "samples closed %d open %d (faster half of each phase)\n" (Array.length lat_c) (Array.length lat_o);
  (not wrong, counted, metrics)

(* ---- traced run ---- *)

let fuel = Crs_serve.Server.default_config.default_fuel

(* The calls [Server.process_batch] makes for a batch of solve lines,
   in the same order, each under its own span. *)
let decomposed ~adm ~cache ~waits ~solves lines =
  Spans.with_span "replay.batch" (fun () ->
      let parsed = List.map (fun l -> Spans.with_span "protocol.parse" (fun () -> P.parse l)) lines in
      let work =
        Array.of_list
          (List.filter_map
             (fun (p : P.parsed) -> match p.body with Ok (P.Solve s) -> Some (p.id, s) | _ -> None)
             parsed)
      in
      let t_map = Spans.now_ns () in
      let results =
        Spans.with_span "admission.map" (fun () ->
            let parent = Spans.current_id () in
            Adm.map adm
              ~shed:(fun _ -> P.overloaded ())
              ~f:(fun (_, (s : P.solve)) ->
                let wait = Spans.now_ns () - t_map in
                Mutex.protect Spans.lock (fun () -> waits := wait :: !waits);
                Spans.with_span ~parent "serve.task" (fun () ->
                    let canonical, cache_key, digest =
                      Spans.with_span "canon.key" (fun () ->
                          let c = Canon.canonicalize s.instance in
                          let key = Crs_core.Instance.to_string c in
                          let ck =
                            Canon.Solve_key.to_string
                              { algorithm = s.algorithm; fuel; witness = s.witness; certify = s.certify; canon = key }
                          in
                          (c, ck, Digest.to_hex (Digest.string key)))
                    in
                    match Spans.with_span "cache.find" (fun () -> Canon.Cache.find cache cache_key) with
                    | Some payload -> payload
                    | None -> (
                      let solver = R.find_exn s.algorithm in
                      match
                        Spans.with_span "registry.solve" (fun () ->
                            Adm.with_deadline fuel (fun () -> R.solve solver canonical))
                      with
                      | Ok o ->
                        Mutex.protect Spans.lock (fun () -> solves := o.R.counters :: !solves);
                        let payload =
                          Spans.with_span "protocol.ok_solve" (fun () ->
                              P.ok_solve ~algorithm:s.algorithm ~makespan:o.R.makespan ~schedule:None
                                ~counters:o.R.counters ~canon_digest:digest)
                        in
                        Spans.with_span "cache.add" (fun () -> Canon.Cache.add cache cache_key payload);
                        payload
                      | Error ticks -> P.timeout ~fuel:(Option.get fuel) ~fuel_ticks:ticks)))
              work)
      in
      Array.to_list
        (Array.map2
           (fun (id, _) payload -> Spans.with_span "protocol.respond" (fun () -> P.respond ~id ~req:"solve" payload))
           work results))

(* Median of nanosecond samples, in microseconds; 0 when empty. *)
let p50_us a = if Array.length a = 0 then 0.0 else S.median a /. 1000.0

(* Round trips of a phase's ok answers, in nanoseconds. *)
let round_trips_ns ph =
  Array.of_list
    (List.filter_map
       (fun l -> if l < Float.infinity then Some (l *. 1e6) else None)
       (Array.to_list (latencies ph)))

let traced cfg ~dir ~seed ~seconds ~spans_path =
  let workers = if cfg.tier then 1 else 2 and capacity = if cfg.tier then 512 else 256 in
  let server = spawn cfg ~dir "traced" in
  let w = warm server cfg in
  let phase_s = 0.3 *. seconds in
  let plain = closed server cfg ~label:"untraced" ~stream:1 ~seconds:phase_s in
  Spans.reset ();
  Spans.enabled := true;
  let ns t = int_of_float (t *. 1e9) in
  let tr =
    closed server cfg ~label:"traced" ~stream:3 ~seconds:phase_s ~on_answer:(fun _ due fin ->
        Spans.add "client.round_trip" (ns due) (ns fin))
  in
  Spans.enabled := false;
  let client_spans = Spans.all () in
  let op = open_loop server cfg ~seed ~label:"open" ~stream:2 ~rate:cfg.base_rate ~seconds:(0.2 *. seconds) in
  let skew =
    if cfg.tier then
      let routed = Array.of_list (List.map (fun (_, r) -> float_of_int r) (Proc.shards (Proc.stats server))) in
      Array.fold_left Float.max 0.0 routed /. S.mean routed
    else 0.0
  in
  stop cfg server;
  (* The tier's hop is its round trip minus one server's on the same
     requests; the single server gets the tier's total cache and a
     shard's worker count. *)
  let single =
    if cfg.tier then begin
      let s = spawn { cfg with tier = false } ~dir ~workers ~cache:capacity "single" in
      let w2 = warm s cfg in
      let same =
        run_phase s ~label:"single" ~reqs:(Array.sub tr.reqs 0 tr.out.D.started)
          ~plan:(D.Closed { stop_after_s = 120.0 }) ~deadline:150.0
      in
      stop cfg s;
      [ w2; same ]
    end
    else []
  in
  let sockets = [ plain; tr; op ] in
  check ((w :: sockets) @ single);
  let correct = List.for_all (fun ph -> ph.tally.wrong = 0) ((w :: sockets) @ single) in
  let rt_us = p50_us (round_trips_ns tr) in
  let hop_us = match single with [ _; same ] -> rt_us -. p50_us (round_trips_ns same) | _ -> 0.0 in
  let replay = Array.sub tr.reqs 0 (min tr.out.D.started cfg.replay_cap) in
  let n = float_of_int (Array.length replay) in
  let warm_lines = Array.to_list (Array.map (fun r -> r.Gen.line) w.reqs) in
  (* Replay 1: the whole server batch path. *)
  let srv =
    Crs_serve.Server.create
      { Crs_serve.Server.default_config with workers; cache_capacity = capacity }
  in
  List.iter (fun l -> ignore (Crs_serve.Server.process_batch srv [ l ])) warm_lines;
  let g0 = Gc.quick_stat () in
  let batch_ns =
    Array.map
      (fun r ->
        let t0 = Spans.now_ns () in
        ignore (Crs_serve.Server.process_batch srv [ r.Gen.line ]);
        float_of_int (Spans.now_ns () - t0))
      replay
  in
  let g1 = Gc.quick_stat () in
  Crs_serve.Server.drain srv;
  (* Replay 2: the same calls, one span each. *)
  let adm = Adm.create ~queue:64 ~workers in
  let cache = Canon.Cache.create ~capacity in
  let waits = ref [] and solves = ref [] in
  List.iter (fun l -> ignore (decomposed ~adm ~cache ~waits ~solves [ l ])) warm_lines;
  waits := [];
  solves := [];
  let hits0 = Canon.Cache.hits cache and miss0 = Canon.Cache.misses cache in
  let ev0 = Canon.Cache.evictions cache in
  let x0 = Crs_exec.Exec.stats (Adm.executor adm) in
  Spans.reset ();
  Spans.enabled := true;
  Array.iter (fun r -> ignore (decomposed ~adm ~cache ~waits ~solves [ r.Gen.line ])) replay;
  if cfg.tier then
    Array.iter
      (fun r ->
        let key = Canon.key r.Gen.inst in
        ignore (Spans.with_span "balancer.route" (fun () -> Crs_serve.Balancer.route ~shards:2 key)))
      replay;
  Spans.enabled := false;
  let spans = Spans.all () in
  let x1 = Crs_exec.Exec.stats (Adm.executor adm) in
  let hits = Canon.Cache.hits cache - hits0 and misses = Canon.Cache.misses cache - miss0 in
  let evictions = Canon.Cache.evictions cache - ev0 in
  Adm.drain adm;
  let dur name = Spans.durations_ns name spans in
  let self = Spans.self_by_name spans in
  let self_of name = match List.assoc_opt name self with Some (_, t) -> float_of_int t | None -> 0.0 in
  let batch_total = S.sum (dur "replay.batch") in
  Printf.printf "self time over %d replayed requests (replay.batch total %.1f ms):\n" (Array.length replay)
    (batch_total /. 1e6);
  List.iter
    (fun (name, (count, t)) ->
      Printf.printf "  %-20s %7d spans %10.3f ms self %6.1f%%\n" name count (float_of_int t /. 1e6)
        (100.0 *. float_of_int t /. batch_total))
    self;
  Spans.write spans_path (client_spans @ spans);
  let solved = Array.of_list !solves in
  let states = S.sum (Array.map (fun c -> float_of_int c.R.Counters.states_expanded) solved) in
  let relax = S.sum (Array.map (fun c -> float_of_int c.R.Counters.dp_relaxations) solved) in
  let nsolved = float_of_int (max 1 (Array.length solved)) in
  let bytes = S.sum (Array.map (fun r -> float_of_int (String.length r.Gen.line)) replay) in
  let socket = S.tally () in
  List.iter (fun ph -> S.add socket ph.tally) sockets;
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let solve_ns = dur "registry.solve" in
  let batch_us = p50_us batch_ns in
  let metrics =
    [
      ("protocol.parse_us", p50_us (dur "protocol.parse"), "us");
      ("protocol.parse_ns_per_byte", ratio (S.sum (dur "protocol.parse")) bytes, "ns/byte");
      ("protocol.respond_us", p50_us (dur "protocol.respond") +. (S.sum (dur "protocol.ok_solve") /. n /. 1000.0), "us");
      ("canon.key_us", p50_us (dur "canon.key"), "us");
      ("cache.find_us", p50_us (dur "cache.find"), "us");
      ("cache.hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)), "ratio");
      ("cache.evictions_per_req", float_of_int evictions /. n, "count");
      ("registry.solve_us", p50_us solve_ns, "us");
      ("registry.solve_p99_us", (if solve_ns = [||] then 0.0 else S.quantile solve_ns 0.99 /. 1000.0), "us");
      ("registry.states_per_solve", states /. nsolved, "count");
      ("registry.relaxations_per_solve", relax /. nsolved, "count");
      ("registry.ns_per_state", ratio (S.sum solve_ns) states, "ns");
      ("registry.solve_share", ratio (self_of "registry.solve") batch_total, "ratio");
      ("exec.queue_wait_us", p50_us (Array.of_list (List.map float_of_int !waits)), "us");
      ("exec.parks_per_task", float_of_int (x1.parks - x0.parks) /. n, "count");
      ("exec.steals_per_task", float_of_int (x1.steals - x0.steals) /. n, "count");
      ("admission.shed_frac", ratio (float_of_int socket.overloaded) (float_of_int socket.attempted), "ratio");
      ("server.batch_us", batch_us, "us");
      ("frontend.overhead_us", rt_us -. batch_us, "us");
      ("balancer.route_us", p50_us (dur "balancer.route"), "us");
      ("balancer.hop_us", hop_us, "us");
      ("balancer.route_skew", skew, "ratio");
      ("campaign.item_us", 0.0, "us");
      ("campaign.parallel_efficiency", 0.0, "ratio");
      ("campaign.seq_items_per_s", 0.0, "1/s");
      ("gc.minor_words_per_req", (g1.minor_words -. g0.minor_words) /. n, "words");
      ("gc.major_words_per_req", (g1.major_words -. g0.major_words) /. n, "words");
      ("gc.minor_collections_per_kreq", float_of_int (g1.minor_collections - g0.minor_collections) *. 1000.0 /. n, "count");
      ("gen.lag_ms", S.quantile (Array.sub op.out.D.lag 0 op.out.D.started) 0.99 *. 1000.0, "ms");
      ("trace.overhead_frac", ratio (ok_rate plain -. ok_rate tr) (ok_rate plain), "ratio");
    ]
  in
  (correct, socket, metrics)
