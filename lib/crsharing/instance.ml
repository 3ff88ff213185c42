module Q = Crs_num.Rational

type t = { procs : Job.t array array }

let create rows =
  if Array.length rows = 0 then invalid_arg "Instance.create: no processors";
  { procs = Array.map Array.copy rows }

let of_requirements reqs = create (Array.map (Array.map Job.unit) reqs)

let of_percent rows =
  create
    (Array.of_list
       (List.map (fun row -> Array.of_list (List.map Job.of_percent row)) rows))

let m t = Array.length t.procs
let n_i t i = Array.length t.procs.(i)

let n_max t =
  Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.procs

let total_jobs t =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 t.procs

let job t i j =
  if i < 0 || i >= m t then invalid_arg "Instance.job: processor out of range";
  if j < 0 || j >= n_i t i then invalid_arg "Instance.job: job out of range";
  t.procs.(i).(j)

let jobs_on t i = Array.copy t.procs.(i)
let rows t = Array.map Array.copy t.procs

let total_work t =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc j -> Q.add acc (Job.work j)) acc row)
    Q.zero t.procs

let m_j t j =
  Array.fold_left (fun acc row -> if Array.length row >= j then acc + 1 else acc) 0 t.procs

let is_unit_size t =
  Array.for_all (fun row -> Array.for_all Job.is_unit_size row) t.procs

let concat_processors a b = create (Array.append a.procs b.procs)

let append_jobs a b =
  if m a <> m b then invalid_arg "Instance.append_jobs: processor counts differ";
  create (Array.map2 Array.append a.procs b.procs)

let map_jobs f t =
  create (Array.mapi (fun i row -> Array.mapi (fun j job -> f i j job) row) t.procs)

let scale_requirements factor t =
  map_jobs
    (fun _ _ job ->
      Job.make
        ~requirement:(Q.mul factor (Job.requirement job))
        ~size:(Job.size job))
    t

let sub_processors t selection =
  if selection = [] then invalid_arg "Instance.sub_processors: empty selection";
  List.iter
    (fun i ->
      if i < 0 || i >= m t then
        invalid_arg "Instance.sub_processors: processor out of range")
    selection;
  create (Array.of_list (List.map (fun i -> Array.copy t.procs.(i)) selection))

let equal a b =
  m a = m b
  && Array.for_all2 (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 Job.equal ra rb) a.procs b.procs

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i row ->
      Format.fprintf fmt "p%d:" i;
      Array.iter (fun j -> Format.fprintf fmt " %a" Job.pp j) row;
      if i < m t - 1 then Format.fprintf fmt "@,")
    t.procs;
  Format.fprintf fmt "@]"

let job_to_string j =
  if Job.is_unit_size j then Q.to_string (Job.requirement j)
  else Q.to_string (Job.requirement j) ^ "*" ^ Q.to_string (Job.size j)

let to_string t =
  let buf = Buffer.create 256 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun k j ->
          if k > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (job_to_string j))
        row;
      Buffer.add_char buf '\n')
    t.procs;
  Buffer.contents buf

let job_of_string s =
  match String.index_opt s '*' with
  | None -> Job.unit (Q.of_string s)
  | Some i ->
    let r = String.sub s 0 i in
    let p = String.sub s (i + 1) (String.length s - i - 1) in
    Job.make ~requirement:(Q.of_string r) ~size:(Q.of_string p)

let of_string text =
  (* A token that fails to parse is reported with its text line and
     processor, so a bad request names what to fix. *)
  let parse_line proc (lineno, line) =
    let job tok =
      let fail msg =
        Printf.ksprintf failwith
          "Instance.of_string: bad job %S on line %d (processor %d): %s" tok
          lineno proc msg
      in
      try job_of_string tok with
      | Invalid_argument msg | Failure msg -> fail msg
      | Division_by_zero -> fail "zero denominator"
    in
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
    |> List.map job |> Array.of_list
  in
  let meaningful =
    List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text)
    |> List.filter (fun (_, l) ->
           let l = String.trim l in
           l <> "" && l.[0] <> '#')
  in
  match meaningful with
  | [] -> Error "Instance.of_string: no processor lines"
  | lines -> (
    try Ok (create (Array.of_list (List.mapi parse_line lines)))
    with Failure msg -> Error msg)

let load path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error msg -> Error msg

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))
