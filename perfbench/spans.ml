(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions. Spans are kept in memory while the traced
   run executes and written out once it ends. A span's parent is the
   innermost open span of the recording domain, or an explicit one for
   work handed to executor domains. *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let now_ns () = Int64.to_int (Crs_obs.Trace.monotonic_ns ())
let lock = Mutex.create ()
let store : span list ref = ref []
let next_id = Atomic.make 1
let current = Domain.DLS.new_key (fun () -> 0)
let enabled = ref false

let with_span ?parent name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let prev = Domain.DLS.get current in
    let parent = Option.value parent ~default:prev in
    Domain.DLS.set current id;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      Domain.DLS.set current prev;
      Mutex.protect lock (fun () -> store := { id; parent; name; t0; t1 } :: !store)
    in
    Fun.protect ~finally:finish f
  end

(* An externally timed interval (a socket round trip seen by the
   client). *)
let add name t0 t1 =
  if !enabled then begin
    let id = Atomic.fetch_and_add next_id 1 in
    Mutex.protect lock (fun () -> store := { id; parent = 0; name; t0; t1 } :: !store)
  end

let current_id () = Domain.DLS.get current
let reset () = Mutex.protect lock (fun () -> store := [])
let all () = Mutex.protect lock (fun () -> List.rev !store)

let durations_ns name spans =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (float_of_int (s.t1 - s.t0)) else None) spans)

(* Self time of every span: its duration minus the union of its
   children's intervals clipped to it. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        List.sort compare
          (List.map (fun c -> (max s.t0 c.t0, min s.t1 c.t1)) (Hashtbl.find_all children s.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, s.t0) kids
      in
      (s, s.t1 - s.t0 - covered))
    spans

(* Summed self time per span name, largest first. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let c, t = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0) in
      Hashtbl.replace tbl s.name (c + 1, t + self))
    (self_times spans);
  List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0_ns\":%d,\"t1_ns\":%d}\n" s.id
            s.parent s.name s.t0 s.t1)
        spans)
