module J = Crs_util.Stable_json

type clock = unit -> float

let wall = Unix.gettimeofday
let cpu () = Int64.to_float (Crs_obs.Clock.cputime_ns ()) /. 1e9

let quantile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.quantile: empty array";
  let s = Array.copy a in
  Array.sort Float.compare s;
  let x = q *. float_of_int (n - 1) in
  let i = int_of_float x in
  let j = min (i + 1) (n - 1) in
  s.(i) +. ((x -. float_of_int i) *. (s.(j) -. s.(i)))

let iqr a = quantile a 0.75 -. quantile a 0.25

type paired = { a_s : float; b_s : float; ratio : float; ratio_iqr : float }

let timed clock f =
  Gc.full_major ();
  let t0 = clock () in
  ignore (Sys.opaque_identity (f ()));
  clock () -. t0

let paired ?(warmups = 1) ~clock ~reps a b =
  if reps < 1 then invalid_arg "Harness.paired: reps < 1";
  for _ = 1 to warmups do
    ignore (Sys.opaque_identity (a ()));
    ignore (Sys.opaque_identity (b ()))
  done;
  Gc.compact ();
  let ratios = Array.make reps 0.0 in
  let a_s = ref infinity and b_s = ref infinity in
  for i = 0 to reps - 1 do
    let ta, tb =
      if i land 1 = 0 then
        let ta = timed clock a in
        (ta, timed clock b)
      else
        let tb = timed clock b in
        (timed clock a, tb)
    in
    a_s := Float.min !a_s ta;
    b_s := Float.min !b_s tb;
    ratios.(i) <- tb /. Float.max ta 1e-9
  done;
  { a_s = !a_s; b_s = !b_s; ratio = quantile ratios 0.5; ratio_iqr = iqr ratios }

let time_min ?(clock = wall) ~reps f =
  Gc.compact ();
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = clock () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (clock () -. t0)
  done;
  !best

let host () =
  let lines =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
    with Sys_error _ -> []
  in
  let model =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"model name" l then
          Option.map
            (fun i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            (String.index_opt l ':')
        else None)
      lines
  in
  (Option.value model ~default:"unknown", Domain.recommended_domain_count ())

let write_json file fields =
  let cpu_model, nproc = host () in
  let json =
    J.obj (fields @ [ ("nproc", J.int nproc); ("cpu_model", J.str cpu_model) ])
  in
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc (json ^ "\n"));
  Printf.printf "wrote %s\n" file
