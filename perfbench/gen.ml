(* Workload inputs, generated from the run's seed. The program under
   test only ever sees the request lines; the instances stay here so the
   answers can be checked afterwards. *)

module J = Crs_util.Stable_json
module I = Crs_core.Instance
module R = Crs_algorithms.Registry

type req = {
  line : string;
  alg : string;
  inst : I.t;
  key : string Lazy.t;  (** algorithm + canonical key: equal keys must get equal answers *)
}

let solve_line ~alg inst =
  J.obj
    [
      ("proto", J.str "crs-serve/1");
      ("kind", J.str "solve");
      ("instance", J.str (I.to_string inst));
      ("algorithm", J.str alg);
    ]

let make ~alg inst =
  { line = solve_line ~alg inst; alg; inst; key = lazy (alg ^ "|" ^ Crs_serve.Canon.key inst) }

let rng seed parts = Random.State.make (Array.append [| seed |] parts)

let uniform ~m ~lo ~hi st =
  Crs_generators.Random_gen.instance
    ~spec:{ Crs_generators.Random_gen.m; jobs_min = lo; jobs_max = hi; granularity = 20; allow_zero = false }
    st

(* solve-miss: every request a fresh instance, so the cache never hits.
   Three in four are m = 2 with 150-250 jobs per processor (the O(n^2)
   DP), the fourth m = 3 with 6-8 jobs (configuration enumeration). The
   sizes are dealt out evenly by request index rather than drawn, so
   every seed gets the same mix and only the requirements vary.
   [stream] separates the phases of one run. *)
let miss ~seed ~stream i =
  let st = rng seed [| 1; stream; i |] in
  let inst =
    if i mod 4 <> 3 then
      let n = 150 + (i * 37 mod 101) in
      uniform ~m:2 ~lo:n ~hi:n st
    else
      let n = 6 + (i / 4 mod 3) in
      uniform ~m:3 ~lo:n ~hi:n st
  in
  make ~alg:R.Names.optimal inst

(* cache-hot: Zipf-skewed draws from a fixed pool of small m = 3
   instances, larger than the server's 256-entry cache, 39 in 40
   greedy-balance and the rest optimal; a quarter are re-sent as a row permutation or with
   zero-requirement padding rows, which must get byte-identical
   answers. *)
let pool_size = 1000

type hot = { pool : I.t array; cdf : float array }

let hot_pool ~seed =
  let pool = Array.init pool_size (fun k -> uniform ~m:3 ~lo:3 ~hi:8 (rng seed [| 7; k |])) in
  let w = Array.init pool_size (fun k -> 1.0 /. (float_of_int (k + 1) ** 1.0)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  { pool; cdf }

let zipf hot st =
  let u = Random.State.float st 1.0 in
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if hot.cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (pool_size - 1)

let variant st inst =
  match Random.State.int st 8 with
  | 0 ->
    let rows = Array.copy (I.rows inst) in
    for i = Array.length rows - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = rows.(i) in
      rows.(i) <- rows.(j);
      rows.(j) <- t
    done;
    I.create rows
  | 1 ->
    let pad = Array.init (1 + Random.State.int st 2) (fun _ ->
        [| Crs_core.Job.unit Crs_num.Rational.zero |]) in
    I.create (Array.append (I.rows inst) pad)
  | _ -> inst

let hot ~seed hot_pool ~stream i =
  let st = rng seed [| 2; stream; i |] in
  let inst = variant st hot_pool.pool.(zipf hot_pool st) in
  let alg = if Random.State.int st 40 = 0 then R.Names.optimal else R.Names.greedy_balance in
  make ~alg inst

(* tier: the cache-hot mix with a 2% solve-miss slice. *)
let tier ~seed hot_pool ~stream i =
  let st = rng seed [| 3; stream; i |] in
  if Random.State.int st 50 = 0 then miss ~seed ~stream:(100 + stream) i
  else hot ~seed hot_pool ~stream i

(* Expected makespan per key, solved in-process on the canonical
   instance. Sequential on purpose: the solvers allocate heavily, and
   on two domains the shared GC made the same solves slower overall. *)
let expected (reqs : req list) =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun r -> let k = Lazy.force r.key in if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k r)
    reqs;
  let todo = Array.of_seq (Hashtbl.to_seq_values tbl) in
  let answers =
    Array.map
      (fun r -> (R.solve (R.find_exn r.alg) (Crs_serve.Canon.canonicalize r.inst)).R.makespan)
      todo
  in
  let out = Hashtbl.create (Array.length todo) in
  Array.iteri (fun i r -> Hashtbl.replace out (Lazy.force r.key) answers.(i)) todo;
  out
