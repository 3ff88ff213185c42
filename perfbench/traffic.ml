(* Socket traffic generator for crs-serve/1 servers.

   One thread multiplexes every connection through [Unix.select] on both
   directions: requests are appended to a per-connection output buffer
   and written only when the socket is writable, so the generator never
   blocks in a write while responses are waiting to be read (a blocking
   writer facing a server that is itself blocked writing responses back
   is how a single-threaded generator deadlocks). Responses come back in
   per-connection request order, so each one is matched to the oldest
   in-flight request of its connection.

   Latency is measured from each request's due time: its scheduled send
   time in an open loop, the moment its connection became free in a
   closed loop. A request still unanswered at the deadline is counted as
   unanswered, never waited for. *)

let now () = Int64.to_float (Crs_obs.Trace.monotonic_ns ()) /. 1e9

type plan =
  | Closed of { stop_after_s : float }
      (** Each connection sends its next request as soon as the previous
          one is answered; no request is started after [stop_after_s]. *)
  | Open of { due_s : float array; conn_of : int array }
      (** Request [i] is due [due_s.(i)] seconds after the start, on
          connection [conn_of.(i)]; [due_s] is ascending. Requests with
          equal due times on one connection leave in one write. *)

type outcome = {
  started : int;  (** requests handed to a connection *)
  due : float array;  (** absolute due time per request; nan = never started *)
  finished : float array;  (** absolute answer time; nan = unanswered *)
  responses : string array;  (** "" when unanswered *)
  lag : float array;  (** seconds between due time and the first byte written *)
  t_start : float;
  t_end : float;  (** last answer, or the deadline when one stalled *)
}

type conn = {
  fd : Unix.file_descr;
  frames : (string * int list) Queue.t;  (* unwritten bytes, with the requests they carry *)
  mutable head_off : int;  (* bytes of the head frame already written *)
  staged : Buffer.t;  (* lines enqueued by the current [feed] *)
  mutable staged_ids : int list;
  inflight : int Queue.t;
  partial : Buffer.t;
  mutable alive : bool;
}

let chunk = Bytes.create 65536

(* Run [lines] under [plan] until every started request is answered or
   [deadline_s] seconds have passed since the start. [on_answer i due
   finished] is called as each answer arrives. *)
let run ?(on_answer = fun _ _ _ -> ()) ~(fds : Unix.file_descr array)
    ~(lines : string array) ~plan ~deadline_s () =
  let n = Array.length lines in
  let conns =
    Array.map
      (fun fd ->
        Unix.set_nonblock fd;
        {
          fd;
          frames = Queue.create ();
          head_off = 0;
          staged = Buffer.create 4096;
          staged_ids = [];
          inflight = Queue.create ();
          partial = Buffer.create 4096;
          alive = true;
        })
      fds
  in
  let due = Array.make n Float.nan in
  let finished = Array.make n Float.nan in
  let responses = Array.make n "" in
  let lag = Array.make n Float.nan in
  let t_start = now () in
  let deadline = t_start +. deadline_s in
  let next = ref 0 in
  let enqueue c i t_due =
    due.(i) <- t_due;
    Buffer.add_string c.staged lines.(i);
    Buffer.add_char c.staged '\n';
    c.staged_ids <- i :: c.staged_ids;
    Queue.push i c.inflight
  in
  let feed t =
    (match plan with
    | Closed { stop_after_s } ->
      if t < t_start +. stop_after_s then
        Array.iter
          (fun c ->
            if c.alive && Queue.is_empty c.inflight && !next < n then begin
              enqueue c !next t;
              incr next
            end)
          conns
    | Open { due_s; conn_of } ->
      while !next < n && t_start +. due_s.(!next) <= t do
        let c = conns.(conn_of.(!next)) in
        if c.alive then enqueue c !next (t_start +. due_s.(!next))
        else due.(!next) <- t_start +. due_s.(!next);
        incr next
      done);
    Array.iter
      (fun c ->
        if c.staged_ids <> [] then begin
          Queue.push (Buffer.contents c.staged, List.rev c.staged_ids) c.frames;
          Buffer.clear c.staged;
          c.staged_ids <- []
        end)
      conns
  in
  let rec flush c t =
    match Queue.peek_opt c.frames with
    | None -> ()
    | Some (frame, ids) -> (
      let len = String.length frame - c.head_off in
      match Unix.single_write_substring c.fd frame c.head_off len with
      | w ->
        if c.head_off = 0 then List.iter (fun i -> lag.(i) <- t -. due.(i)) ids;
        if w = len then begin
          ignore (Queue.pop c.frames);
          c.head_off <- 0;
          flush c t
        end
        else c.head_off <- c.head_off + w
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.alive <- false)
  in
  let on_line c line t =
    match Queue.take_opt c.inflight with
    | Some i ->
      finished.(i) <- t;
      responses.(i) <- line;
      on_answer i due.(i) t
    | None -> () (* connection-level event with nothing in flight *)
  in
  let drain_read c t =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.alive <- false
    | k ->
      let start = ref 0 in
      for j = 0 to k - 1 do
        if Bytes.get chunk j = '\n' then begin
          let line =
            if Buffer.length c.partial = 0 then Bytes.sub_string chunk !start (j - !start)
            else begin
              Buffer.add_subbytes c.partial chunk !start (j - !start);
              let s = Buffer.contents c.partial in
              Buffer.clear c.partial;
              s
            end
          in
          on_line c line t;
          start := j + 1
        end
      done;
      if !start < k then Buffer.add_subbytes c.partial chunk !start (k - !start)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.alive <- false
  in
  let all_done () =
    let fed =
      match plan with
      | Closed { stop_after_s } -> !next >= n || now () >= t_start +. stop_after_s
      | Open _ -> !next >= n
    in
    fed && Array.for_all (fun c -> Queue.is_empty c.inflight || not c.alive) conns
  in
  let t_end = ref t_start in
  let rec loop () =
    let t = now () in
    feed t;
    Array.iter (fun c -> if c.alive then flush c t) conns;
    if all_done () then t_end := now ()
    else if t >= deadline then t_end := deadline
    else begin
      let rd = ref [] and wr = ref [] in
      Array.iter
        (fun c ->
          if c.alive then begin
            rd := c.fd :: !rd;
            if not (Queue.is_empty c.frames) then wr := c.fd :: !wr
          end)
        conns;
      let wake =
        match plan with
        | Open { due_s; _ } when !next < n -> Float.min deadline (t_start +. due_s.(!next))
        | Closed { stop_after_s } when t < t_start +. stop_after_s ->
          Float.min deadline (t_start +. stop_after_s)
        | _ -> deadline
      in
      let timeout = Float.max 0.0 (wake -. t) in
      if !rd = [] then Unix.sleepf timeout
      else begin
        let r, _, _ =
          try Unix.select !rd !wr [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let t = now () in
        Array.iter (fun c -> if c.alive && List.memq c.fd r then drain_read c t) conns
      end;
      loop ()
    end
  in
  loop ();
  { started = !next; due; finished; responses; lag; t_start; t_end = !t_end }

(* Status of a crs-serve/1 response line, read without a full JSON
   parse: the first "status" field of the envelope. *)
let status_of line =
  let key = "\"status\":\"" in
  let kl = String.length key and ll = String.length line in
  let rec find i =
    if i + kl > ll then None
    else if String.sub line i kl = key then
      match String.index_from_opt line (i + kl) '"' with
      | Some j -> Some (String.sub line (i + kl) (j - i - kl))
      | None -> None
    else find (i + 1)
  in
  find 0
