(* Concurrent serve-frontend stress for the @stress alias: full-scale
   Loadgen.run_multi over 4 live connections — a heavy closed-loop
   pass, a bursty open-loop pass, then a maximally-pipelined
   byte-identity pass against single-connection goldens — plus exact
   connection accounting and a graceful shutdown; then 20k connections
   of churn through Server.serve and through Balancer.serve in front of
   two `crsched serve` shards (the executable is argv 1). Tier-1 runs
   the same machinery at smoke scale (test_serve); this is the torture
   loop. *)

module S = Crs_serve.Server
module B = Crs_serve.Balancer
module L = Crs_serve.Loadgen
module P = Crs_serve.Protocol
module J = Crs_util.Stable_json

let solve_line instance =
  J.obj
    [
      ("proto", J.str P.version);
      ("kind", J.str "solve");
      ("instance", J.str (Crs_core.Instance.to_string instance));
    ]

let stats_int json path =
  let rec walk json = function
    | [] -> Some json
    | k :: rest -> Option.bind (J.member k json) (fun j -> walk j rest)
  in
  match walk json path with
  | Some (J.Int v) -> v
  | _ -> failwith ("serve stress: stats lack " ^ String.concat "." path)

let () =
  let conns = 4 in
  (* Queue above the pipelined pass's worst case (4 x 200 solves all in
     admission at once), so nothing sheds and byte-identity is total. *)
  let config =
    {
      S.default_config with
      S.workers = 2;
      queue = 1024;
      cache_capacity = 64;
      default_fuel = None;
      conn = { S.default_config.conn with drain_grace_s = 0.1 };
    }
  in
  let server = S.create config in
  let spec =
    { Crs_generators.Random_gen.default_spec with m = 3; jobs_min = 2; jobs_max = 4 }
  in
  let instances =
    Array.init 16 (fun i ->
        Crs_generators.Random_gen.instance ~spec (Random.State.make [| 500 + i |]))
  in
  (* Goldens prewarm the cache, so every concurrent response is the
     canonical bytes whatever the interleaving. *)
  let golden = Array.map (fun i -> S.handle_line server (solve_line i)) instances in
  let fds =
    Array.init conns (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let readers =
    Array.map
      (fun (sfd, _) ->
        match S.attach server sfd with
        | Some th -> th
        | None -> failwith "serve stress: connection refused below max-conns")
      fds
  in
  let clients = Array.map (fun (_, cfd) -> L.Client.of_fd cfd) fds in
  let workload n = List.init n (fun i -> solve_line instances.(i mod 16)) in
  let closed =
    L.run_multi ~seed:11 clients ~arrival:L.Closed_loop ~requests:(workload 2000)
  in
  if closed.L.sent <> 2000 || closed.L.received <> 2000 then
    failwith
      (Printf.sprintf "closed-loop lost requests: sent %d received %d"
         closed.L.sent closed.L.received);
  Printf.printf "stress ok: closed-loop %d requests over %d connections\n%!"
    closed.L.received conns;
  let bursty =
    L.run_multi ~seed:12 clients
      ~arrival:(L.Bursty { burst = 25; rate = 40.0 })
      ~requests:(workload 1000)
  in
  if bursty.L.sent <> 1000 || bursty.L.received <> 1000 then
    failwith
      (Printf.sprintf "bursty lost requests: sent %d received %d" bursty.L.sent
         bursty.L.received);
  Printf.printf "stress ok: bursty %d requests over %d connections\n%!"
    bursty.L.received conns;
  (* Maximal interleaving: every connection pipelines its whole slice
     in one burst of writes, then reads back positionally; each
     response must be byte-identical to the single-connection golden. *)
  let mismatches = Atomic.make 0 in
  let threads =
    Array.mapi
      (fun c cl ->
        Thread.create
          (fun () ->
            let ks = List.init 200 (fun j -> (c + j) mod 16) in
            List.iter (fun k -> L.Client.send_line cl (solve_line instances.(k))) ks;
            List.iter
              (fun k ->
                match L.Client.recv_line cl with
                | Some r when String.equal r golden.(k) -> ()
                | _ -> Atomic.incr mismatches)
              ks)
          ())
      clients
  in
  Array.iter Thread.join threads;
  if Atomic.get mismatches <> 0 then
    failwith
      (Printf.sprintf "%d concurrent responses diverged from the goldens"
         (Atomic.get mismatches));
  Printf.printf "stress ok: %d pipelined responses byte-identical\n%!"
    (conns * 200);
  let stats =
    match J.parse (J.obj (S.stats_payload server)) with
    | Ok v -> v
    | Error msg -> failwith ("serve stress: stats unparseable: " ^ msg)
  in
  if stats_int stats [ "connections"; "accepted" ] <> conns then
    failwith "accepted count wrong";
  if stats_int stats [ "connections"; "refused" ] <> 0 then
    failwith "spurious refusals";
  if stats_int stats [ "connections"; "live" ] <> conns then
    failwith "live count wrong";
  if stats_int stats [ "latency"; "solve"; "count" ] < 2000 + 1000 + (conns * 200)
  then failwith "solve latency histogram missed requests";
  let shutdown_line =
    J.obj [ ("proto", J.str P.version); ("kind", J.str "shutdown") ]
  in
  ignore (L.Client.rpc clients.(0) shutdown_line);
  Array.iter Thread.join readers;
  Array.iter
    (fun (_, cfd) -> try Unix.close cfd with Unix.Unix_error _ -> ())
    fds;
  S.drain server;
  Printf.printf "serve stress passed: %d connections, %d requests\n%!"
    conns
    (2000 + 1000 + (conns * 200));
  let churn_n = 20_000 in
  let connections json_of path () =
    let json = json_of () in
    (stats_int json (path @ [ "live" ]), stats_int json (path @ [ "accepted" ]))
  in
  let parse payload =
    match J.parse (J.obj payload) with
    | Ok v -> v
    | Error msg -> failwith ("serve stress: stats unparseable: " ^ msg)
  in
  let server = S.create config in
  Churn.run ~n:churn_n
    {
      Churn.serve = S.serve server;
      connections =
        connections (fun () -> parse (S.stats_payload server)) [ "connections" ];
      drain_grace_s = config.conn.drain_grace_s;
    };
  S.drain server;
  Printf.printf "stress ok: %d connections churned through Server.serve\n%!"
    churn_n;
  let exe =
    let p = Sys.argv.(1) in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let socket_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crs-stress-shards-%d" (Unix.getpid ()))
  in
  let shard_argv = B.serve_argv ~exe { S.default_config with workers = 1 } in
  let cfg = B.default_config ~shards:2 ~socket_dir ~shard_argv in
  match B.create cfg with
  | Error msg -> failwith ("serve stress: " ^ msg)
  | Ok tier ->
    Fun.protect
      ~finally:(fun () ->
        B.drain tier;
        try Unix.rmdir socket_dir with Unix.Unix_error _ -> ())
      (fun () ->
        Churn.run ~n:churn_n
          {
            Churn.serve = B.serve tier;
            connections =
              connections
                (fun () -> parse (B.stats_payload tier))
                [ "balancer"; "connections" ];
            drain_grace_s = cfg.conn.drain_grace_s;
          });
    Printf.printf "stress ok: %d connections churned through Balancer.serve\n"
      churn_n
