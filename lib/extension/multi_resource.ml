module Q = Crs_num.Rational

type job = { requirements : Q.t array; size : Q.t }
type t = { d : int; procs : job array array }

let job ~requirements ~size =
  if Array.length requirements = 0 then
    invalid_arg "Multi_resource.job: empty requirement vector";
  Array.iter
    (fun r ->
      if not (Q.in_unit_interval r) then
        invalid_arg "Multi_resource.job: requirement outside [0,1]")
    requirements;
  if Q.(size <= zero) then invalid_arg "Multi_resource.job: size must be positive";
  { requirements = Array.copy requirements; size }

let unit_job requirements = job ~requirements ~size:Q.one

let create ~d procs =
  if d < 1 then invalid_arg "Multi_resource.create: d must be >= 1";
  if Array.length procs = 0 then invalid_arg "Multi_resource.create: no processors";
  Array.iter
    (Array.iter (fun j ->
         if Array.length j.requirements <> d then
           invalid_arg "Multi_resource.create: dimension mismatch"))
    procs;
  { d; procs = Array.map Array.copy procs }

let of_instance instance =
  create ~d:1
    (Array.map
       (Array.map (fun j ->
            job
              ~requirements:[| Crs_core.Job.requirement j |]
              ~size:(Crs_core.Job.size j)))
       (Crs_core.Instance.rows instance))

let m t = Array.length t.procs
let total_jobs t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.procs

let work t k =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc j -> Q.add acc (Q.mul j.requirements.(k) j.size))
        acc row)
    Q.zero t.procs

let lower_bound t =
  let resource_bound =
    List.fold_left (fun acc k -> max acc (Q.ceil_int (work t k))) 0
      (Crs_util.Misc.range t.d)
  in
  let jobs_bound =
    Array.fold_left
      (fun acc row ->
        max acc
          (Array.fold_left (fun a j -> a + Q.ceil_int j.size) 0 row))
      0 t.procs
  in
  max resource_bound jobs_bound

type run = { makespan : int; shares : Q.t array array array }

(* Largest speed x <= cap for a job given the remaining per-resource
   budgets: x·r_k <= budget_k for every needed resource. *)
let max_speed budgets requirements cap =
  Array.to_list (Array.mapi (fun k r -> (k, r)) requirements)
  |> List.fold_left
       (fun acc (k, r) ->
         if Q.is_zero r then acc else Q.min acc (Q.div budgets.(k) r))
       cap

type sim = { next : int array; volume : Q.t array }

let start t =
  {
    next = Array.make (m t) 0;
    volume =
      Array.init (m t) (fun i ->
          if Array.length t.procs.(i) > 0 then t.procs.(i).(0).size else Q.zero);
  }

let active t sim i = sim.next.(i) < Array.length t.procs.(i)
let is_done t sim = not (List.exists (active t sim) (Crs_util.Misc.range (m t)))

let advance t sim i x =
  sim.volume.(i) <- Q.sub sim.volume.(i) x;
  if Q.is_zero sim.volume.(i) then begin
    sim.next.(i) <- sim.next.(i) + 1;
    if active t sim i then sim.volume.(i) <- t.procs.(i).(sim.next.(i)).size
  end

(* Remaining work of the ACTIVE job, summed over resources — the vector
   analogue of the tie-breaking quantity GreedyBalance uses, so the d = 1
   embedding reproduces the core algorithm exactly. *)
let remaining_active_work t sim i =
  let total = ref Q.zero in
  if active t sim i then begin
    let cur = t.procs.(i).(sim.next.(i)) in
    Array.iter (fun r -> total := Q.add !total (Q.mul r sim.volume.(i))) cur.requirements
  end;
  !total

let run_with t choose_order share_cap =
  let sim = start t in
  let steps = ref [] in
  let fuel = ref ((10 * total_jobs t) + 100) in
  while not (is_done t sim) do
    decr fuel;
    if !fuel < 0 then failwith "Multi_resource: no progress (bug)";
    let budgets = Array.make t.d Q.one in
    let row = Array.make_matrix (m t) t.d Q.zero in
    let actives = List.filter (active t sim) (Crs_util.Misc.range (m t)) in
    let order = choose_order t sim actives in
    List.iter
      (fun i ->
        let cur = t.procs.(i).(sim.next.(i)) in
        let cap = Q.min Q.one (Q.min sim.volume.(i) (share_cap (List.length actives))) in
        let x = max_speed budgets cur.requirements cap in
        if Q.(x > zero) || Array.for_all Q.is_zero cur.requirements then begin
          Array.iteri
            (fun k r ->
              let used = Q.mul (Q.max x Q.zero) r in
              row.(i).(k) <- used;
              budgets.(k) <- Q.sub budgets.(k) used)
            cur.requirements;
          (* Zero-requirement jobs progress at the cap regardless. *)
          let progress = if Array.for_all Q.is_zero cur.requirements then cap else x in
          advance t sim i progress
        end)
      order;
    steps := row :: !steps
  done;
  { makespan = List.length !steps; shares = Array.of_list (List.rev !steps) }

let greedy_balance t =
  run_with t
    (fun t sim actives ->
      List.sort
        (fun a b ->
          let ja = Array.length t.procs.(a) - sim.next.(a)
          and jb = Array.length t.procs.(b) - sim.next.(b) in
          if ja <> jb then compare jb ja
          else begin
            let wa = remaining_active_work t sim a
            and wb = remaining_active_work t sim b in
            let c = Q.compare wb wa in
            if c <> 0 then c else compare a b
          end)
        actives)
    (fun _count -> Q.one)

let uniform t =
  run_with t
    (fun _ _ actives -> actives)
    (fun count -> if count = 0 then Q.one else Q.of_ints 1 count)

let check t result =
  let exception Bad of string in
  try
    let sim = start t in
    Array.iteri
      (fun step row ->
        if Array.length row <> m t then raise (Bad "wrong row width");
        (* Capacity per resource. *)
        for k = 0 to t.d - 1 do
          let total =
            Array.fold_left (fun acc shares -> Q.add acc shares.(k)) Q.zero row
          in
          if Q.(total > one) then
            raise (Bad (Printf.sprintf "resource %d overused at step %d" k step))
        done;
        (* Progress semantics. *)
        Array.iteri
          (fun i shares ->
            if active t sim i then begin
              let cur = t.procs.(i).(sim.next.(i)) in
              let speed =
                if Array.for_all Q.is_zero cur.requirements then Q.one
                else max_speed shares cur.requirements Q.one
              in
              let progress = Q.min speed sim.volume.(i) in
              advance t sim i progress
            end)
          row)
      result.shares;
    if not (is_done t sim) then raise (Bad "not all jobs complete");
    Ok ()
  with Bad msg -> Error msg

let greedy_matches_single_resource instance =
  let vector = greedy_balance (of_instance instance) in
  vector.makespan = Crs_kernels.Greedy_balance.makespan instance
