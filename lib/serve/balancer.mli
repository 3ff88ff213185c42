(** Process-sharded serve tier: one front balancer, N [crsched serve]
    worker processes on private Unix sockets.

    The balancer accepts client connections on the public listen
    address and routes every work request by {b rendezvous hash} of its
    canonical key ({!Canon.key}), so canonically equivalent instances
    always reach the same shard's memo cache — the byte-identity
    guarantee survives sharding — while distinct keys spread evenly.
    Control requests are handled at the front: [hello] locally,
    [stats] by aggregating every shard's live stats, [shutdown] by
    draining the whole tier.

    {2 Robustness}

    - A {i monitor} thread reaps dead workers and respawns them with
      exponential backoff (stale socket paths unlinked first; backoff
      resets once a respawn comes up ready).
    - A {i health} thread pings every shard's [stats] on an interval;
      results drive the [alive] flag in aggregated stats.
    - A request whose shard is unreachable gets {b exactly one}
      structured [overloaded] refusal naming the shard — never a
      dropped line, never a stall on a dead worker. Accounting
      invariant: [accepted = answered + refused].
    - Shard responses — including a shard's own [overloaded] /
      [draining] refusals — are relayed byte-for-byte.
    - A tier drain ([shutdown] request, or {!drain}) forwards
      [shutdown] to every shard (each snapshots warm state via its
      drain hook and exits), refuses latecomers with [draining], then
      reaps every worker before returning.
    - Client connections go through the same {!Frontend} as a shard's:
      a client that stalls mid-frame is evicted, an oversized frame
      poisons only its connection, connections beyond [max_conns] are
      refused. *)

type config = {
  shards : int;  (** worker-process count, >= 1 *)
  socket_dir : string;  (** directory for private shard sockets
                            (created if missing; owned by the tier) *)
  shard_argv : index:int -> socket:string -> string array;
      (** argv for shard [index] listening on [socket];
          [argv.(0)] is the executable path *)
  health_interval_s : float;  (** delay between stats-ping sweeps *)
  restart_backoff_s : float;
      (** first respawn delay after a death; doubles per consecutive
          failure up to 2 s *)
  conn : Frontend.settings;
      (** the client-facing front: max conns, idle deadline, drain
          grace, frame bound *)
}

val default_config :
  shards:int ->
  socket_dir:string ->
  shard_argv:(index:int -> socket:string -> string array) ->
  config
(** Health interval 1 s, backoff 0.05 s, {!Frontend.default_settings}.
    Fixed, not configurable: a (re)spawned shard gets 10 s to accept,
    and every shard response (forwarding, pings, the drain) 30 s. *)

val serve_argv :
  ?warm_state:string ->
  exe:string ->
  Server.config ->
  index:int ->
  socket:string ->
  string array
(** [serve_argv ~exe c] is a [shard_argv]: [exe serve --listen
    unix:SOCKET --workers --queue --cache --fuel] from [c]'s pool
    fields ([default_fuel = None] passes [--fuel 0], unlimited). With
    [warm_state], each shard also gets [--warm-state DIR --warm-id
    shard-N]. The other fields of [c] are not passed: shards keep the
    serve defaults for them. *)

val shard_socket : socket_dir:string -> int -> string
(** [socket_dir/shard-<i>.sock] — the path [shard_argv] receives. *)

val route : shards:int -> string -> int
(** Rendezvous (highest-random-weight) shard choice for a routing key:
    every shard scores [Digest.string (key ^ "#" ^ index)] and the
    lexicographically greatest digest wins. A pure function of
    [(key, shards)] — stable across balancer restarts — and minimally
    disruptive under shard-count changes. *)

type t

val create : config -> (t, string) result
(** Spawn every shard, wait for each socket to accept, then start the
    monitor and health threads. [Error] (naming the shards that never
    came up) kills any worker that did start. *)

val serve : t -> Unix.file_descr -> unit
(** {!Frontend.serve} on the public listening socket: returns after a
    tier drain has begun and every reader has quiesced. The caller
    still owns the listening fd. *)

val attach : t -> Unix.file_descr -> Thread.t option
(** {!Frontend.attach} for a connected client fd (tests and benches
    drive the balancer over socketpairs with this). *)

val drain : t -> unit
(** Begin (or join) the tier drain: forward [shutdown] to every shard,
    stop the monitor/health threads, reap every worker — escalating to
    SIGTERM/SIGKILL for a wedged one — and clear the shard sockets.
    Idempotent. *)

val stopping : t -> bool
(** A tier drain has begun. *)

val shard_pids : t -> int array
(** Current worker pids, by shard index (0 = not running). Exposed for
    restart-under-load tests. *)

val stats_payload : t -> (string * string) list
(** The aggregated [stats] payload: tier-wide request/cache sums over
    live per-shard stats RPCs, plus a [balancer] object — accepted /
    answered / refused accounting, restart total, the front's
    {!Frontend.stats} connection counters and a per-shard array (index, alive, pid, restarts, routed, ping
    counts, and the shard's own requests / cache / [warm] progress
    passed through verbatim). *)
