(* crs_serve balancer: rendezvous routing determinism, the PROTOCOL.md
   inventory and OPERATIONS.md flag-default tripwires, and end-to-end
   sharded-tier tests over real `crsched serve` worker processes —
   byte-identity through the balancer, worker-kill-and-restart with
   exact accounting, and warm-tier replay. Tests run in
   _build/default/test with the crsched binary at ../bin/crsched.exe
   (a dune dep). *)

open Crs_core
module Balancer = Crs_serve.Balancer
module Canon = Crs_serve.Canon
module Protocol = Crs_serve.Protocol
module Loadgen = Crs_serve.Loadgen
module J = Crs_util.Stable_json

let exe = Filename.concat ".." (Filename.concat "bin" "crsched.exe")

let random_instance ?(m = 3) seed =
  let spec =
    { Crs_generators.Random_gen.default_spec with m; jobs_min = 2; jobs_max = 4 }
  in
  Crs_generators.Random_gen.instance ~spec (Random.State.make [| seed |])

(* ---- routing ---- *)

let test_route_deterministic () =
  let keys = List.init 200 (fun i -> Printf.sprintf "key-%d" i) in
  let hits = Array.make 4 0 in
  List.iter
    (fun key ->
      let s = Balancer.route ~shards:4 key in
      Alcotest.(check int)
        (Printf.sprintf "%s routes stably" key)
        s
        (Balancer.route ~shards:4 key);
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
      hits.(s) <- hits.(s) + 1)
    keys;
  (* Rendezvous hashing spreads: with 200 keys over 4 shards, each
     shard must see a healthy share (exact counts are a pure function
     of MD5, so this cannot flake). *)
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d got a fair share (%d)" i n)
        true (n > 20))
    hits;
  List.iter
    (fun key ->
      Alcotest.(check int) "single shard routes everything" 0
        (Balancer.route ~shards:1 key))
    keys

let test_route_canonical_equivalents_agree () =
  for seed = 1 to 40 do
    let i = random_instance seed in
    let m = Instance.m i in
    let permuted =
      Instance.sub_processors i (List.init m (fun k -> m - 1 - k))
    in
    let padded = Crs_fuzz.Oracle.zero_pad_instance i in
    let shard_of x = Balancer.route ~shards:3 (Canon.key x) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: permuted instance, same shard" seed)
      (shard_of i) (shard_of permuted);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: padded instance, same shard" seed)
      (shard_of i) (shard_of padded)
  done

(* ---- PROTOCOL.md inventory ---- *)

(* Exhaustive match: adding a request constructor without extending this
   function is a compile error, and the new kind's name must then appear
   in docs/PROTOCOL.md for the inventory check to pass — the doc cannot
   silently fall behind the protocol. *)
let documented_kind = function
  | Protocol.Hello -> "hello"
  | Protocol.Solve _ -> "solve"
  | Protocol.Campaign _ -> "campaign"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"

let request_kind_names =
  let solve =
    {
      Protocol.algorithm = "greedy-balance";
      instance = Instance.create [| [| Job.unit Crs_num.Rational.one |] |];
      fuel = None;
      witness = false;
      certify = false;
      cache = true;
    }
  in
  let campaign =
    {
      Crs_campaign.Spec.family = Crs_campaign.Spec.Uniform;
      m = 2;
      n = 2;
      granularity = 4;
      seed_lo = 1;
      seed_hi = 1;
      algorithms = [ "greedy-balance" ];
      baseline = Crs_campaign.Spec.Lower_bound;
      fuel = None;
    }
  in
  List.map documented_kind
    [
      Protocol.Hello;
      Protocol.Solve solve;
      Protocol.Campaign campaign;
      Protocol.Stats;
      Protocol.Shutdown;
    ]

let statuses =
  [
    "ok"; "error"; "timeout"; "overloaded"; "not_applicable"; "draining";
    "evicted";
  ]

let test_protocol_doc_inventory () =
  let doc =
    In_channel.with_open_text
      (Filename.concat ".." (Filename.concat "docs" "PROTOCOL.md"))
      In_channel.input_all
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "PROTOCOL.md documents request kind %S" kind)
        true
        (Helpers.contains ~needle:(Printf.sprintf "\"kind\":\"%s\"" kind) doc))
    request_kind_names;
  List.iter
    (fun status ->
      Alcotest.(check bool)
        (Printf.sprintf "PROTOCOL.md documents status %S" status)
        true
        (Helpers.contains ~needle:(Printf.sprintf "`%s`" status) doc))
    statuses;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "PROTOCOL.md covers %s" needle)
        true
        (Helpers.contains ~needle doc))
    [ "crs-serve/1"; "crs-warm/1"; "\"kind\":\"response\""; "stats"; "warm" ]

(* ---- OPERATIONS.md flag defaults ---- *)

(* The flag tables of docs/OPERATIONS.md as ((section, flag), default):
   section is the "### `crsched serve`" heading text, flag the first
   word of the row's flag cell, backticks stripped throughout. *)
let operations_flag_defaults () =
  let strip s = String.concat "" (String.split_on_char '`' (String.trim s)) in
  let section = ref "" in
  In_channel.with_open_text
    (Filename.concat ".." (Filename.concat "docs" "OPERATIONS.md"))
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"### " line then begin
           section := strip (String.sub line 4 (String.length line - 4));
           None
         end
         else
           match String.split_on_char '|' line with
           | "" :: flag :: default :: _
             when String.starts_with ~prefix:"--" (strip flag) ->
             let name = List.hd (String.split_on_char ' ' (strip flag)) in
             Some ((!section, name), strip default)
           | _ -> None)

let test_operations_doc_defaults () =
  let module S = Crs_serve.Server in
  let module F = Crs_serve.Frontend in
  let table = operations_flag_defaults () in
  let d = S.default_config and c = F.default_settings in
  let check section flag expected =
    match List.assoc_opt (section, flag) table with
    | None -> Alcotest.failf "OPERATIONS.md has no %s row under %s" flag section
    | Some doc ->
      Alcotest.(check string) (Printf.sprintf "%s %s default" section flag) expected doc
  in
  let serve = "crsched serve" and balance = "crsched balance" in
  check serve "--workers" (string_of_int d.S.workers);
  check serve "--queue" (string_of_int d.S.queue);
  check serve "--cache" (string_of_int d.S.cache_capacity);
  check serve "--fuel" (string_of_int (Option.value d.S.default_fuel ~default:0));
  check serve "--max-conns" (string_of_int c.F.max_conns);
  check serve "--backlog" (string_of_int d.S.backlog);
  check serve "--idle-timeout" (Printf.sprintf "%g" c.F.idle_timeout_s);
  check balance "--max-conns" (string_of_int c.F.max_conns);
  check balance "--backlog" (string_of_int d.S.backlog)

(* ---- end-to-end tiers over real shard processes ---- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "crsbal-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o700;
    dir

(* The shard settings the tier tests run with: small, and unlike the
   serve defaults, so a dropped flag shows. *)
let shard_pool =
  {
    Crs_serve.Server.default_config with
    workers = 1;
    queue = 16;
    cache_capacity = 64;
  }

let tier_config ?warm_state ~socket_dir ~shards () =
  let shard_argv = Balancer.serve_argv ?warm_state ~exe shard_pool in
  let d = Balancer.default_config ~shards ~socket_dir ~shard_argv in
  {
    d with
    Balancer.health_interval_s = 0.2;
    restart_backoff_s = 0.05;
    conn = { d.conn with Crs_serve.Frontend.drain_grace_s = 0.2 };
  }

let with_tier cfg f =
  match Balancer.create cfg with
  | Error msg -> Alcotest.failf "tier failed to start: %s" msg
  | Ok t ->
    Fun.protect
      ~finally:(fun () ->
        Balancer.drain t;
        (* The drain unlinked the shard sockets; drop their directory. *)
        try Unix.rmdir cfg.Balancer.socket_dir with Unix.Unix_error _ -> ())
      (fun () -> f t)

type conn = {
  client : Loadgen.Client.t;
  client_fd : Unix.file_descr;
  reader : Thread.t option;
}

(* One socketpair connection registered through a frontend's [attach]
   (Balancer.attach here, Server.attach in test_serve). *)
let connect attach =
  let front_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Without close-on-exec a respawned shard inherits this fd at
     create_process time, and closing our end then never produces EOF
     for the balancer's reader (attach covers the balancer side). *)
  Unix.set_close_on_exec client_fd;
  let reader = attach front_fd in
  { client = Loadgen.Client.of_fd client_fd; client_fd; reader }

let open_conn t = connect (Balancer.attach t)

let close_conn c =
  (try Unix.close c.client_fd with Unix.Unix_error _ -> ());
  match c.reader with Some th -> Thread.join th | None -> ()

let solve_line ?(extra = []) instance =
  J.obj
    ([
       ("proto", J.str Protocol.version);
       ("kind", J.str "solve");
       ("instance", J.str (Instance.to_string instance));
     ]
    @ extra)

let response_status line =
  match J.parse line with
  | Ok json -> (
    match J.member "status" json with
    | Some (J.Str s) -> s
    | _ -> Alcotest.failf "response without status: %s" line)
  | Error msg -> Alcotest.failf "unparseable response %s: %s" line msg

let balancer_stat t path =
  match J.parse (J.obj (Balancer.stats_payload t)) with
  | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg
  | Ok json -> (
    (* Numeric path segments index into arrays (the per-shard list under
       balancer.shard). *)
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
    | _ -> Alcotest.failf "stats lack %s" (String.concat "." path))

let check_accounting t =
  Alcotest.(check int) "accepted = answered + refused"
    (balancer_stat t [ "balancer"; "accepted" ])
    (balancer_stat t [ "balancer"; "answered" ]
    + balancer_stat t [ "balancer"; "refused" ])

let test_serve_argv () =
  let d = Crs_serve.Server.default_config in
  Alcotest.(check (array string)) "cold shard"
    [|
      "crsched"; "serve"; "--listen"; "unix:/s/shard-1.sock"; "--workers"; "1";
      "--queue"; "16"; "--cache"; "64";
      "--fuel"; string_of_int (Option.get d.default_fuel);
    |]
    (Balancer.serve_argv ~exe:"crsched" shard_pool ~index:1
       ~socket:"/s/shard-1.sock");
  (* The warm argv is checked against the real CLI: run it with --stdio
     and one solve; on drain the shard snapshots under its shard-N name. *)
  let warm_state = temp_dir () in
  let argv =
    Balancer.serve_argv ~warm_state ~exe
      { shard_pool with default_fuel = None }
      ~index:2 ~socket:"unused.sock"
  in
  let rec after flag i =
    if argv.(i) = flag then argv.(i + 1) else after flag (i + 1)
  in
  Alcotest.(check string) "no default fuel passes --fuel 0" "0"
    (after "--fuel" 0);
  let ((ic, oc) as proc) =
    Unix.open_process_args exe (Array.append argv [| "--stdio" |])
  in
  output_string oc (solve_line (random_instance 1) ^ "\n");
  close_out oc;
  let reply = In_channel.input_all ic in
  Alcotest.(check bool) "warm shard exits 0" true
    (Unix.close_process proc = Unix.WEXITED 0);
  Alcotest.(check string) "warm shard answers" "ok" (response_status reply);
  let snapshot = Filename.concat warm_state "shard-2.crs-warm.jsonl" in
  Alcotest.(check bool) "snapshot named after the shard" true
    (Sys.file_exists snapshot);
  Sys.remove snapshot;
  Unix.rmdir warm_state

(* Each shard reports, on its own private socket, the pool settings the
   tier was configured with. *)
let test_tier_shard_settings () =
  let socket_dir = temp_dir () in
  let shards = 2 in
  let pool =
    {
      Crs_serve.Server.default_config with
      workers = 3;
      queue = 7;
      cache_capacity = 5;
    }
  in
  let cfg =
    {
      (tier_config ~socket_dir ~shards ()) with
      Balancer.shard_argv = Balancer.serve_argv ~exe pool;
    }
  in
  with_tier cfg (fun _ ->
      for index = 0 to shards - 1 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd
              (Unix.ADDR_UNIX (Balancer.shard_socket ~socket_dir index));
            let stats =
              Loadgen.Client.rpc (Loadgen.Client.of_fd fd)
                (J.obj
                   [ ("proto", J.str Protocol.version); ("kind", J.str "stats") ])
            in
            let field path =
              match J.parse stats with
              | Ok json -> (
                match
                  List.fold_left
                    (fun j k -> Option.bind j (J.member k))
                    (Some json) path
                with
                | Some (J.Int v) -> v
                | _ ->
                  Alcotest.failf "shard stats lack %s" (String.concat "." path))
              | Error msg -> Alcotest.failf "unparseable shard stats: %s" msg
            in
            let check name path expected =
              Alcotest.(check int)
                (Printf.sprintf "shard %d %s" index name)
                expected (field path)
            in
            check "workers" [ "workers" ] pool.workers;
            check "queue" [ "queue" ] pool.queue;
            check "cache capacity" [ "cache"; "capacity" ] pool.cache_capacity)
      done)

let test_tier_byte_identity () =
  let cfg = tier_config ~socket_dir:(temp_dir ()) ~shards:2 () in
  with_tier cfg (fun t ->
      let c = open_conn t in
      Fun.protect
        ~finally:(fun () -> close_conn c)
        (fun () ->
          let hello =
            Loadgen.Client.rpc c.client
              (J.obj
                 [ ("proto", J.str Protocol.version); ("kind", J.str "hello") ])
          in
          Alcotest.(check string) "hello answered at the front" "ok"
            (response_status hello);
          for seed = 1 to 6 do
            let i = random_instance seed in
            let m = Instance.m i in
            let permuted =
              Instance.sub_processors i (List.init m (fun k -> m - 1 - k))
            in
            let padded = Crs_fuzz.Oracle.zero_pad_instance i in
            let r = Loadgen.Client.rpc c.client (solve_line i) in
            Alcotest.(check string)
              (Printf.sprintf "seed %d: solve ok" seed)
              "ok" (response_status r);
            (* The sharding guarantee: canonically equivalent requests
               route to the same shard's cache and come back
               byte-identical through the balancer. *)
            Alcotest.(check string)
              (Printf.sprintf "seed %d: permuted byte-identical" seed)
              r
              (Loadgen.Client.rpc c.client (solve_line permuted));
            Alcotest.(check string)
              (Printf.sprintf "seed %d: padded byte-identical" seed)
              r
              (Loadgen.Client.rpc c.client (solve_line padded))
          done;
          check_accounting t;
          Alcotest.(check int) "nothing refused on a healthy tier" 0
            (balancer_stat t [ "balancer"; "refused" ])))

let test_tier_kill_and_restart () =
  let cfg = tier_config ~socket_dir:(temp_dir ()) ~shards:2 () in
  with_tier cfg (fun t ->
      let c = open_conn t in
      Fun.protect
        ~finally:(fun () -> close_conn c)
        (fun () ->
          let i = random_instance 3 in
          let line = solve_line i in
          let golden = Loadgen.Client.rpc c.client line in
          Alcotest.(check string) "baseline solve ok" "ok"
            (response_status golden);
          (* Kill -9 exactly the shard this instance routes to. *)
          let shard = Balancer.route ~shards:2 (Canon.key i) in
          let pid = (Balancer.shard_pids t).(shard) in
          Alcotest.(check bool) "routed shard is running" true (pid > 0);
          Unix.kill pid Sys.sigkill;
          (* Drive requests through the outage. Every one must get a
             response — ok once the shard is back, or a structured
             overloaded refusal while it is down — and the tier must
             recover. *)
          let recovered = ref false in
          let refusals = ref 0 in
          let attempts = ref 0 in
          while (not !recovered) && !attempts < 400 do
            incr attempts;
            let r = Loadgen.Client.rpc c.client line in
            (match response_status r with
            | "ok" ->
              Alcotest.(check string) "post-restart answer byte-identical"
                golden r;
              recovered := true
            | "overloaded" -> incr refusals
            | s -> Alcotest.failf "unexpected status during outage: %s" s);
            if not !recovered then Thread.delay 0.01
          done;
          Alcotest.(check bool) "tier recovered after kill -9" true !recovered;
          let restarts = balancer_stat t [ "balancer"; "restarts" ] in
          Alcotest.(check bool)
            (Printf.sprintf "monitor restarted the shard (%d)" restarts)
            true (restarts >= 1);
          (* Exact accounting across the outage: no lost answers beyond
             the structured refusals we counted ourselves. *)
          check_accounting t;
          Alcotest.(check int) "refusals all structured and counted"
            !refusals
            (balancer_stat t [ "balancer"; "refused" ])))

let test_tier_warm_replay () =
  let socket_dir = temp_dir () in
  let warm_state = temp_dir () in
  let cfg = tier_config ~warm_state ~socket_dir ~shards:2 () in
  let instances = List.init 5 (fun i -> random_instance (30 + i)) in
  (* Cold tier: solve the corpus, then drain — each shard snapshots its
     canonical-key set. *)
  let cold =
    with_tier cfg (fun t ->
        let c = open_conn t in
        Fun.protect
          ~finally:(fun () -> close_conn c)
          (fun () ->
            List.map
              (fun i -> Loadgen.Client.rpc c.client (solve_line i))
              instances))
  in
  List.iter
    (fun r -> Alcotest.(check string) "cold solve ok" "ok" (response_status r))
    cold;
  Alcotest.(check bool) "warm snapshots written" true
    (Sys.file_exists (Filename.concat warm_state "shard-0.crs-warm.jsonl")
    || Sys.file_exists (Filename.concat warm_state "shard-1.crs-warm.jsonl"));
  (* Warm tier: same config, same warm state. Replay totals must cover
     the corpus, and re-solving it must be pure cache hits with
     byte-identical responses. *)
  with_tier cfg (fun t ->
      let replayed =
        balancer_stat t [ "balancer"; "shard"; "0"; "warm"; "replayed" ]
        + balancer_stat t [ "balancer"; "shard"; "1"; "warm"; "replayed" ]
      in
      Alcotest.(check int) "every snapshot entry replayed"
        (List.length instances) replayed;
      let hits_before =
        balancer_stat t [ "cache"; "hits" ]
      in
      let c = open_conn t in
      Fun.protect
        ~finally:(fun () -> close_conn c)
        (fun () ->
          List.iter2
            (fun i cold_r ->
              Alcotest.(check string) "warm answer byte-identical to cold"
                cold_r
                (Loadgen.Client.rpc c.client (solve_line i)))
            instances cold);
      Alcotest.(check int) "warm corpus is all cache hits"
        (hits_before + List.length instances)
        (balancer_stat t [ "cache"; "hits" ]))

let suite =
  [
    Alcotest.test_case "route: deterministic rendezvous spread" `Quick
      test_route_deterministic;
    Alcotest.test_case "route: canonical equivalents share a shard" `Quick
      test_route_canonical_equivalents_agree;
    Alcotest.test_case "docs: PROTOCOL.md inventory is complete" `Quick
      test_protocol_doc_inventory;
    Alcotest.test_case "docs: OPERATIONS.md flag defaults match the code" `Quick
      test_operations_doc_defaults;
    Alcotest.test_case "serve_argv: cold argv, warm argv runs under serve" `Quick
      test_serve_argv;
    Alcotest.test_case "tier: shard settings reach the shards" `Quick
      test_tier_shard_settings;
    Alcotest.test_case "tier: byte-identity through the balancer" `Quick
      test_tier_byte_identity;
    Alcotest.test_case "tier: kill -9 a shard, exact accounting" `Quick
      test_tier_kill_and_restart;
    Alcotest.test_case "tier: warm replay matches cold bytes" `Quick
      test_tier_warm_replay;
  ]
