(* Server processes under test: spawn a real [crsched serve] or
   [crsched balance], time it until its first [hello] is answered, talk
   to it over its Unix socket, read its peak RSS, and stop it. Every
   spawned pid is tracked so an aborted run still stops what it
   started. *)

module J = Crs_util.Stable_json

let crsched = Filename.concat "_build" (Filename.concat "default" "bin/crsched.exe")

type t = {
  pid : int;
  sock : string;
  setup_s : float;  (** spawn until the first [hello] is answered *)
}

let live : int list ref = ref []

(* Processes a spawned balancer started for us (its shards). *)
let adopted : int list ref = ref []

let reap pid =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 1000;
  live := List.filter (( <> ) pid) !live

(* A pid we did not fork (a balancer's shard): wait for it to vanish,
   killing it if it outlives its parent's drain. *)
let await_gone pid =
  let alive () = try Unix.kill pid 0; true with Unix.Unix_error _ -> false in
  let rec go tries =
    if alive () then
      if tries > 0 then (Unix.sleepf 0.01; go (tries - 1))
      else try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
  in
  go 500

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      List.iter await_gone !adopted)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Blocking request/response on a fresh-or-idle connection. *)
let rpc fd line =
  let s = line ^ "\n" in
  let rec write off =
    if off < String.length s then
      write (off + Unix.write_substring fd s off (String.length s - off))
  in
  write 0;
  let buf = Buffer.create 4096 and b = Bytes.create 4096 in
  let rec read () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> failwith "connection closed before a response"
    | k -> (
      Buffer.add_subbytes buf b 0 k;
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | Some i -> String.sub s 0 i
      | None -> read ())
  in
  read ()

let hello = J.obj [ ("proto", J.str "crs-serve/1"); ("kind", J.str "hello") ]
let stats_req = J.obj [ ("proto", J.str "crs-serve/1"); ("kind", J.str "stats") ]
let shutdown_req = J.obj [ ("proto", J.str "crs-serve/1"); ("kind", J.str "shutdown") ]

let spawn ~argv ~sock ~log =
  let t0 = Traffic.now () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv rd logfd logfd in
  Unix.close rd;
  Unix.close wr;
  Unix.close logfd;
  live := pid :: !live;
  let rec attempt () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith (Printf.sprintf "%s exited during start-up (see %s)" argv.(1) log));
    if Traffic.now () -. t0 > 60.0 then failwith (argv.(1) ^ ": no hello within 60 s");
    match connect sock with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.sleepf 0.0005;
      attempt ()
  in
  let fd = attempt () in
  let answer = rpc fd hello in
  let setup_s = Traffic.now () -. t0 in
  Unix.close fd;
  if Traffic.status_of answer <> Some "ok" then failwith ("hello refused: " ^ answer);
  { pid; sock; setup_s }

let stats t =
  let fd = connect t.sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      match J.parse (rpc fd stats_req) with
      | Ok j -> j
      | Error e -> failwith ("stats unparseable: " ^ e))

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun v -> path v rest)

let int_at j keys = match path j keys with Some (J.Int i) -> i | _ -> 0

(* Shard pids and routed counts from a balancer's [stats]. *)
let shards j =
  match path j [ "balancer"; "shard" ] with
  | Some (J.List l) -> List.map (fun s -> (int_at s [ "pid" ], int_at s [ "routed" ])) l
  | _ -> []

let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | s ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)
  | exception Sys_error _ -> 0

(* Ask for a graceful drain, then reap; shard pids (from a balancer)
   are waited for too. *)
let stop ?(children = []) t =
  (try
     let fd = connect t.sock in
     ignore (rpc fd shutdown_req);
     Unix.close fd
   with _ -> (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap t.pid;
  List.iter await_gone children;
  adopted := List.filter (fun p -> not (List.mem p children)) !adopted
