(* The crs-serve/1 connection layer shared by `crsched serve` and
   `crsched balance`; see frontend.mli. *)

module Trace = Crs_obs.Trace
module Metrics = Crs_obs.Metrics
module J = Crs_util.Stable_json

type settings = {
  max_conns : int;
  idle_timeout_s : float;
  drain_grace_s : float;
  max_line_bytes : int;
}

let default_settings =
  {
    max_conns = 64;
    idle_timeout_s = 30.0;
    drain_grace_s = 0.5;
    max_line_bytes = 1 lsl 20;
  }

let now_s () = Int64.to_float (Trace.monotonic_ns ()) /. 1e9

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* ---- framing ---- *)

module Framer = struct
  type t = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable lo : int;  (* first byte not yet handed out as a line *)
    mutable scan : int;  (* [lo, scan) is known to hold no newline *)
    mutable hi : int;  (* end of the bytes read so far *)
    mutable eof : bool;
  }

  type eof_tail = Keep_tail | Drop_tail

  let create fd =
    { fd; buf = Bytes.create 65536; lo = 0; scan = 0; hi = 0; eof = false }

  let fd t = t.fd
  let at_eof t = t.eof
  let pending t = t.hi - t.lo
  let send_line t line = write_all t.fd (line ^ "\n")
  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let next_line t =
    let rec find i =
      if i >= t.hi then None
      else if Bytes.unsafe_get t.buf i = '\n' then Some i
      else find (i + 1)
    in
    match find t.scan with
    | None ->
      t.scan <- t.hi;
      None
    | Some nl ->
      let line = Bytes.sub_string t.buf t.lo (nl - t.lo) in
      t.lo <- nl + 1;
      t.scan <- t.lo;
      Some line

  (* One read(2). The unconsumed bytes move to the front once per read
     and each byte is scanned once, so framing stays linear in the bytes
     received however many lines a read carries; the buffer doubles only
     when one unfinished frame fills it. A reset peer is an EOF. *)
  let fill t =
    if t.lo > 0 then begin
      Bytes.blit t.buf t.lo t.buf 0 (t.hi - t.lo);
      t.hi <- t.hi - t.lo;
      t.scan <- t.scan - t.lo;
      t.lo <- 0
    end;
    if t.hi = Bytes.length t.buf then begin
      let bigger = Bytes.create (2 * t.hi) in
      Bytes.blit t.buf 0 bigger 0 t.hi;
      t.buf <- bigger
    end;
    match Unix.read t.fd t.buf t.hi (Bytes.length t.buf - t.hi) with
    | 0 -> t.eof <- true
    | n -> t.hi <- t.hi + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      t.eof <- true

  let take_tail t =
    if t.hi = t.lo then None
    else begin
      let tail = Bytes.sub_string t.buf t.lo (t.hi - t.lo) in
      t.lo <- t.hi;
      t.scan <- t.hi;
      Some tail
    end

  let recv_line ?timeout_s ~eof t =
    let deadline = Option.map (fun s -> now_s () +. s) timeout_s in
    let rec go () =
      match next_line t with
      | Some _ as line -> line
      | None when t.eof -> (
        match eof with Keep_tail -> take_tail t | Drop_tail -> None)
      | None -> (
        match deadline with
        | Some d when now_s () >= d -> None
        | Some d when not (readable t.fd (Float.min (d -. now_s ()) 0.25)) ->
          go ()
        | _ ->
          fill t;
          go ())
    in
    go ()
end

(* ---- sessions and the acceptor ---- *)

type session = {
  handle_lines : string list -> string list;
  finish : unit -> unit;
}

type local_answer = Draining_refusal | Oversized_frame

(* A lifecycle counter, always on, mirrored into crs_obs metrics. *)
type counter = { n : int Atomic.t; metric : Metrics.counter }

let bump c =
  Atomic.incr c.n;
  Metrics.incr c.metric

type t = {
  settings : settings;
  stopping : unit -> bool;
  on_local_answer : local_answer -> unit;
  live : int Atomic.t;
  accepted : counter;
  refused : counter;
  evicted : counter;
  drained : counter;
  (* [live] only drops under [lock], with a broadcast on [quiet]: that
     is what lets [serve] wait for every reader without keeping a list
     of them. *)
  lock : Mutex.t;
  quiet : Condition.t;
}

let create ?(on_local_answer = ignore) settings ~name ~stopping =
  (* Every write here treats a dead peer as Unix_error EPIPE — an event
     local to one connection — which needs the process-default SIGPIPE
     termination off. Idempotent, and done here rather than in main so
     embedders (tests, benches) get the daemon's semantics. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let counter what =
    {
      n = Atomic.make 0;
      metric = Metrics.counter (Printf.sprintf "%s.conn.%s" name what);
    }
  in
  {
    settings;
    stopping;
    on_local_answer;
    live = Atomic.make 0;
    accepted = counter "accepted";
    refused = counter "refused";
    evicted = counter "evicted";
    drained = counter "drained";
    lock = Mutex.create ();
    quiet = Condition.create ();
  }

let stats t =
  let get c = J.int (Atomic.get c.n) in
  [
    ("live", J.int (Atomic.get t.live));
    ("max", J.int t.settings.max_conns);
    ("accepted", get t.accepted);
    ("refused", get t.refused);
    ("evicted", get t.evicted);
    ("drained", get t.drained);
  ]

let send_event fd payload =
  try write_all fd (Protocol.respond ~id:None ~req:"connection" payload ^ "\n")
  with Unix.Unix_error _ -> ()

(* A late request during graceful drain is parsed only far enough to
   echo its id and kind back with a [draining] refusal. *)
let draining_refusal line =
  let p = Protocol.parse line in
  let req =
    match p.Protocol.body with
    | Ok r -> Protocol.kind_of_request r
    | Error _ -> "unknown"
  in
  Protocol.respond ~id:p.Protocol.id ~req (Protocol.draining ())

type session_end = Eof | Evicted | Drained

(* Reads chunks, hands every complete non-blank line of a chunk to
   [handle_lines] as one batch and writes the responses in request
   order. [deadline] > 0 evicts a connection that sits mid-frame — a
   line was started but no byte has arrived for that long (a quiet
   connection with no partial frame is just idle and stays).
   [drain_grace] is how long after a stop the session keeps answering
   late requests with [draining] refusals before closing. Everything
   that goes wrong here — malformed frames, an oversized frame, mid-line
   EOF, the deadline — is answered on, and at worst closes, this
   session alone. *)
let run_session t s ~input ~output ~deadline ~drain_grace =
  let framer = Framer.create input in
  let max_line = t.settings.max_line_bytes in
  let handle lines =
    match List.filter (fun l -> String.trim l <> "") lines with
    | [] -> ()
    | lines ->
      let responses =
        if t.stopping () then begin
          List.iter (fun _ -> t.on_local_answer Draining_refusal) lines;
          List.map draining_refusal lines
        end
        else s.handle_lines lines
      in
      match responses with
      | [] -> ()
      | _ -> write_all output (String.concat "\n" responses ^ "\n")
  in
  let rec complete_lines acc =
    match Framer.next_line framer with
    | Some line -> complete_lines (line :: acc)
    | None -> List.rev acc
  in
  let last_activity = ref (now_s ()) in
  let stop_seen = ref None in
  let rec loop () =
    if Option.is_none !stop_seen && t.stopping () then
      stop_seen := Some (now_s ());
    match !stop_seen with
    | Some since when now_s () -. since >= drain_grace -> Drained
    | stop ->
      (* Short select slices so the loop notices a stop and the idle
         deadline promptly even on a silent connection. *)
      if not (readable input 0.05) then
        if
          Option.is_none stop && deadline > 0.0
          && Framer.pending framer > 0
          && now_s () -. !last_activity > deadline
        then begin
          send_event output (Protocol.evicted ~idle_s:deadline);
          Evicted
        end
        else loop ()
      else begin
        Framer.fill framer;
        if Framer.at_eof framer then begin
          (* On the request side a final unterminated line is still a
             request. *)
          Option.iter (fun tail -> handle [ tail ]) (Framer.take_tail framer);
          Eof
        end
        else begin
          last_activity := now_s ();
          let lines = complete_lines [] in
          if
            List.exists (fun l -> String.length l > max_line) lines
            || Framer.pending framer > max_line
          then begin
            (* Oversized frame: answer structurally, then poison only this
               connection — its buffered bytes are untrustworthy and
               answering the rest would desynchronize. *)
            t.on_local_answer Oversized_frame;
            send_event output (Protocol.oversized ~limit:max_line);
            Evicted
          end
          else begin
            handle lines;
            loop ()
          end
        end
      end
  in
  loop ()

let serve_io t ~session ~input ~output =
  let s = session () in
  Fun.protect ~finally:s.finish (fun () ->
      ignore (run_session t s ~input ~output ~deadline:0.0 ~drain_grace:0.0))

let leave t =
  Mutex.lock t.lock;
  Atomic.decr t.live;
  Condition.broadcast t.quiet;
  Mutex.unlock t.lock

(* Readers are systhreads, not domains: a reader is IO-bound (select,
   read and batch waits all release the runtime lock), so hundreds of
   them share the acceptor's domain while solving runs elsewhere. *)
let attach t ~session fd =
  (* A process that forks workers (the balancer) must not leak client
     fds into them: a child holding a copy keeps the connection from
     ever reaching EOF. *)
  (try Unix.set_close_on_exec fd with Unix.Unix_error _ -> ());
  (* fetch_and_add then check: two racing attaches cannot both slip
     under the limit. *)
  if Atomic.fetch_and_add t.live 1 >= t.settings.max_conns then begin
    leave t;
    bump t.refused;
    send_event fd (Protocol.overloaded ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None
  end
  else begin
    bump t.accepted;
    Some
      (Thread.create
         (fun () ->
           let s = session () in
           Fun.protect
             ~finally:(fun () ->
               s.finish ();
               (try Unix.close fd with Unix.Unix_error _ -> ());
               leave t)
             (fun () ->
               match
                 run_session t s ~input:fd ~output:fd
                   ~deadline:t.settings.idle_timeout_s
                   ~drain_grace:t.settings.drain_grace_s
               with
               | Eof -> ()
               | Evicted -> bump t.evicted
               | Drained -> bump t.drained
               | exception
                   Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                 (* The peer vanished mid-write; its reader dies alone. *)
                 ()))
         ())
  end

let serve t ~session fd =
  while not (t.stopping ()) do
    if readable fd 0.05 then
      match Unix.accept fd with
      | conn, _ -> ignore (attach t ~session conn)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: stop accepting, then wait until every reader has
     finished its in-flight batch, refused latecomers for the grace
     window and closed its connection. *)
  Mutex.lock t.lock;
  while Atomic.get t.live > 0 do
    Condition.wait t.quiet t.lock
  done;
  Mutex.unlock t.lock
