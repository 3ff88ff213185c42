(* Connection churn against a running accept loop: open, use (hello)
   and close [n] connections one after another, then check that none
   is left live, that every one was accepted, and that a shutdown makes
   the accept loop return within the drain grace. A long-running
   daemon must not keep anything per connection it has closed. Shared
   by the tier-1 slice in test_serve and the @stress run. *)

module Server = Crs_serve.Server
module Loadgen = Crs_serve.Loadgen
module J = Crs_util.Stable_json

type target = {
  serve : Unix.file_descr -> unit;  (** the accept loop; returns after drain *)
  connections : unit -> int * int;  (** live, accepted *)
  drain_grace_s : float;
}

let request kind =
  J.obj [ ("proto", J.str Crs_serve.Protocol.version); ("kind", J.str kind) ]

let status line =
  match J.parse line with
  | Ok json -> (
    match J.member "status" json with Some (J.Str s) -> s | _ -> "?")
  | Error _ -> "?"

let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crs-churn-%d-%d.sock" (Unix.getpid ()) !k)

let rpc path line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Loadgen.Client.rpc (Loadgen.Client.of_fd fd) line)

(* Raises [Failure] naming the first broken expectation. *)
let run target ~n =
  let path = socket_path () in
  let addr = Server.Unix_sock path in
  let listener =
    match Server.bind_address addr with Ok fd -> fd | Error msg -> failwith msg
  in
  Fun.protect
    ~finally:(fun () -> Server.close_address addr listener)
    (fun () ->
      let acceptor = Thread.create target.serve listener in
      for i = 1 to n do
        let r = rpc path (request "hello") in
        if status r <> "ok" then
          failwith (Printf.sprintf "connection %d: hello answered %s" i r)
      done;
      (* Readers see their peer's EOF asynchronously. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while fst (target.connections ()) > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      let live, accepted = target.connections () in
      if live <> 0 then
        failwith (Printf.sprintf "%d connections still live after churn" live);
      if accepted <> n then
        failwith (Printf.sprintf "accepted %d of %d connections" accepted n);
      let r = rpc path (request "shutdown") in
      if status r <> "ok" then failwith ("shutdown answered " ^ r);
      let t0 = Unix.gettimeofday () in
      Thread.join acceptor;
      let took = Unix.gettimeofday () -. t0 in
      if took > target.drain_grace_s then
        failwith
          (Printf.sprintf "accept loop took %.3fs to drain (grace %.3fs)" took
             target.drain_grace_s))
