(* Order statistics and request accounting shared by every workload. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank quantile of an unsorted sample; nan when empty. *)
let quantile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then Float.nan else sum a /. float_of_int (Array.length a)

(* On a shared 2-vCPU Xeon virtual machine the time of a fixed solve
   swings between states about 1.7x apart that each last 2-10 s
   (calibration_ms in the provenance line tracks it). So a phase of
   [seconds] is cut into 0.5 s windows by due time, the windows are
   ranked by their mean latency (in a closed loop, the inverse of their
   throughput), and the figures are taken over the requests of the
   faster half: noise from the machine slows some windows, a slower
   program slows all of them. Returns the kept request indices, in
   order, and the time the kept windows cover. *)
let window_s = 0.5

let fast_half ~t_start ~seconds ~(due : float array) (lat : float array) =
  let k = max 2 (int_of_float (Float.round (seconds /. window_s))) in
  let bins = Array.make k [] in
  for i = Array.length lat - 1 downto 0 do
    let j = int_of_float ((due.(i) -. t_start) /. seconds *. float_of_int k) in
    let j = min (k - 1) (max 0 j) in
    bins.(j) <- i :: bins.(j)
  done;
  let filled = List.filter (fun b -> b <> []) (Array.to_list bins) in
  let ranked =
    List.stable_sort compare
      (List.map (fun b -> (mean (Array.of_list (List.map (fun i -> lat.(i)) b)), b)) filled)
  in
  let keep = List.filteri (fun r _ -> r < (List.length ranked + 1) / 2) ranked in
  ( Array.of_list (List.sort compare (List.concat_map snd keep)),
    float_of_int (List.length keep) *. seconds /. float_of_int k )


(* Responses counted by status against requests attempted. *)
type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable error : int;
  mutable timeout : int;
  mutable overloaded : int;
  mutable draining : int;
  mutable unanswered : int;
  mutable wrong : int;  (** ok answers that failed a check *)
}

let tally () =
  { attempted = 0; ok = 0; error = 0; timeout = 0; overloaded = 0; draining = 0; unanswered = 0; wrong = 0 }

let failed t = t.attempted - t.ok + t.wrong

let add into t =
  into.attempted <- into.attempted + t.attempted;
  into.ok <- into.ok + t.ok;
  into.error <- into.error + t.error;
  into.timeout <- into.timeout + t.timeout;
  into.overloaded <- into.overloaded + t.overloaded;
  into.draining <- into.draining + t.draining;
  into.unanswered <- into.unanswered + t.unanswered;
  into.wrong <- into.wrong + t.wrong

let tally_to_string t =
  Printf.sprintf "attempted %d ok %d error %d timeout %d overloaded %d draining %d unanswered %d wrong %d"
    t.attempted t.ok t.error t.timeout t.overloaded t.draining t.unanswered t.wrong
