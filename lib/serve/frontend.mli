(** The crs-serve/1 connection layer shared by {!Server} and
    {!Balancer}: line framing, the per-connection session loop and the
    acceptor.

    The caller keeps only its request logic, supplied per connection as
    a {!session} whose [handle_lines] answers one batch of complete
    request lines. Everything else is decided here, once:
    - {i slow-loris}: a frame started but not finished within
      [idle_timeout_s] gets a structured [evicted] response and the
      connection is closed (a quiet connection with no partial frame is
      never evicted);
    - {i oversized frame}: a line longer than [max_line_bytes] gets a
      structured error naming the limit and the connection is closed;
    - {i mid-line EOF}: a final unterminated line is still a request;
    - {i graceful drain}: once the owner is stopping, for
      [drain_grace_s] late requests get structured [draining] refusals,
      then the connection closes;
    - {i max-conns}: connections beyond [max_conns] get one structured
      [overloaded] response and are closed ({i refused}). *)

type settings = {
  max_conns : int;  (** concurrent-connection bound; beyond = refused *)
  idle_timeout_s : float;
      (** mid-frame read deadline (slow-loris eviction); 0 = none *)
  drain_grace_s : float;
      (** how long readers refuse late requests during graceful drain *)
  max_line_bytes : int;
      (** frame bound; longer lines poison (close) their connection *)
}

val default_settings : settings
(** max_conns 64, idle timeout 30 s, drain grace 0.5 s, max line 1 MiB. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes.
    @raise Unix.Unix_error as [write(2)] does ([EPIPE] for a dead peer). *)

val readable : Unix.file_descr -> float -> bool
(** [readable fd timeout]: [fd] has input (or EOF) within [timeout]
    seconds; an interrupted wait counts as none. *)

(** Buffered line reader over one stream fd: a byte buffer with a scan
    offset, compacted once per read, so the cost of framing is linear in
    the bytes received. *)
module Framer : sig
  type t

  (** What an unterminated final line means when the stream ends. *)
  type eof_tail =
    | Keep_tail  (** it is a line: a request, or a client's last reply *)
    | Drop_tail  (** it is a truncated reply: report no line *)

  val create : Unix.file_descr -> t
  val fd : t -> Unix.file_descr

  val at_eof : t -> bool
  (** The peer closed (or reset) the stream. *)

  val next_line : t -> string option
  (** The next complete line already buffered, without its newline;
      never reads. *)

  val fill : t -> unit
  (** One blocking [read(2)] into the buffer; EOF or a reset sets
      {!at_eof}. *)

  val recv_line : ?timeout_s:float -> eof:eof_tail -> t -> string option
  (** The next line, reading as needed. [None] at EOF (after the tail,
      under [Keep_tail]) or when [timeout_s] — a bound on the whole
      receive, not on one read — runs out. *)

  val send_line : t -> string -> unit
  (** Write the line and its newline. *)

  val close : t -> unit
end

type session = {
  handle_lines : string list -> string list;
      (** answer one batch of complete, non-blank request lines, one
          response per line, in order *)
  finish : unit -> unit;  (** the connection ended; release its state *)
}

(** A line the frontend answered without [handle_lines]. *)
type local_answer =
  | Draining_refusal  (** a late request refused during drain *)
  | Oversized_frame  (** the frame that poisoned its connection *)

type t

val create :
  ?on_local_answer:(local_answer -> unit) ->
  settings ->
  name:string ->
  stopping:(unit -> bool) ->
  t
(** Acceptor state. [stopping] is the owner's drain flag.
    [on_local_answer] (default: ignore) lets the owner count the lines
    the frontend answers for it. Lifecycle metrics are registered as
    [<name>.conn.accepted/refused/evicted/drained]. Also turns SIGPIPE
    off for the process: a dead peer surfaces as [EPIPE] on its own
    connection. *)

val stats : t -> (string * string) list
(** The [connections] object: [live], [max], and the lifecycle counters
    [accepted] (reader spawned), [refused] (beyond [max_conns]),
    [evicted] (closed by the idle deadline or an oversized frame),
    [drained] (closed by graceful drain). *)

val serve_io :
  t ->
  session:(unit -> session) ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit
(** One session on a stream pair until EOF or a stop, with no idle
    eviction and no drain grace: the stdio/pipeline mode. Not counted
    as a connection. *)

val attach :
  t -> session:(unit -> session) -> Unix.file_descr -> Thread.t option
(** Register a connected stream fd: spawn and return its reader thread,
    which closes the fd when the session ends; or, beyond [max_conns],
    write one structured [overloaded] response, close the fd and return
    [None]. The fd is made close-on-exec. *)

val serve : t -> session:(unit -> session) -> Unix.file_descr -> unit
(** Accept loop on a listening socket, one {!attach} per connection,
    until [stopping]; then waits until no connection is live. Keeps no
    per-connection state. *)
