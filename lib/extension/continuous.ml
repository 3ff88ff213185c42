module Q = Crs_num.Rational
open Crs_core

type event = { time : Q.t; rates : Q.t array }

type result = {
  makespan : Q.t;
  events : event list;
  completions : Q.t array array;
}

let greedy_balance instance =
  let m = Instance.m instance in
  let next = Array.make m 0 in
  let vol =
    Array.init m (fun i ->
        if Instance.n_i instance i > 0 then Job.size (Instance.job instance i 0)
        else Q.zero)
  in
  let completions = Array.init m (fun i -> Array.make (Instance.n_i instance i) Q.zero) in
  let events = ref [] in
  let now = ref Q.zero in
  let active i = next.(i) < Instance.n_i instance i in
  let requirement i = Job.requirement (Instance.job instance i next.(i)) in
  let remaining_work i =
    (* r·(remaining volume of active job) + full work of later jobs *)
    let rest = ref (Q.mul (requirement i) vol.(i)) in
    for j = next.(i) + 1 to Instance.n_i instance i - 1 do
      rest := Q.add !rest (Job.work (Instance.job instance i j))
    done;
    !rest
  in
  let guard = ref (Instance.total_jobs instance + 1) in
  while Array.exists (fun i -> active i) (Array.init m (fun i -> i)) do
    decr guard;
    if !guard < 0 then failwith "Continuous.greedy_balance: event budget exceeded (bug)";
    let actives = List.filter active (Crs_util.Misc.range m) in
    let order =
      List.sort
        (fun a b ->
          let ja = Instance.n_i instance a - next.(a)
          and jb = Instance.n_i instance b - next.(b) in
          if ja <> jb then compare jb ja
          else begin
            let c = Q.compare (remaining_work b) (remaining_work a) in
            if c <> 0 then c else compare a b
          end)
        actives
    in
    let rates = Array.make m Q.zero in
    let budget = ref Q.one in
    List.iter
      (fun i ->
        let give = Q.min (requirement i) !budget in
        rates.(i) <- give;
        budget := Q.sub !budget give)
      order;
    (* Per-processor speed in volume units per time. *)
    let speed i =
      let r = requirement i in
      if Q.is_zero r then Q.one else Q.min (Q.div rates.(i) r) Q.one
    in
    let dt =
      List.fold_left
        (fun acc i ->
          let s = speed i in
          if Q.(s > zero) then
            let d = Q.div vol.(i) s in
            match acc with
            | None -> Some d
            | Some best -> Some (Q.min best d)
          else acc)
        None actives
    in
    let dt =
      match dt with
      | Some d -> d
      | None -> failwith "Continuous.greedy_balance: no progress possible (bug)"
    in
    events := { time = !now; rates } :: !events;
    List.iter
      (fun i ->
        let s = speed i in
        if Q.(s > zero) then begin
          vol.(i) <- Q.sub vol.(i) (Q.mul s dt);
          if Q.is_zero vol.(i) then begin
            completions.(i).(next.(i)) <- Q.add !now dt;
            next.(i) <- next.(i) + 1;
            if active i then vol.(i) <- Job.size (Instance.job instance i next.(i))
          end
        end)
      actives;
    now := Q.add !now dt
  done;
  { makespan = !now; events = List.rev !events; completions }

let work_lower_bound instance =
  let per_proc i =
    Array.fold_left (fun acc j -> Q.add acc (Job.size j)) Q.zero
      (Instance.jobs_on instance i)
  in
  let volume_bound =
    List.fold_left (fun acc i -> Q.max acc (per_proc i)) Q.zero
      (Crs_util.Misc.range (Instance.m instance))
  in
  Q.max (Instance.total_work instance) volume_bound

let discretization_overhead instance =
  let discrete = Q.of_int (Crs_kernels.Greedy_balance.makespan instance) in
  let continuous = (greedy_balance instance).makespan in
  Q.sub discrete continuous
