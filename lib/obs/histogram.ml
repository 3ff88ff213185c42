let slots = 64

type t = { counts : int Atomic.t array; sum : int Atomic.t; max : int Atomic.t }

let create () =
  {
    counts = Array.init slots (fun _ -> Atomic.make 0);
    sum = Atomic.make 0;
    max = Atomic.make 0;
  }

(* Bit length of v: 0 for v <= 0, k for 2^(k-1) <= v < 2^k. *)
let bucket_of v =
  let rec bits k v = if v <= 0 then k else bits (k + 1) (v lsr 1) in
  bits 0 v

let observe t v =
  Atomic.incr t.counts.(bucket_of v);
  ignore (Atomic.fetch_and_add t.sum v);
  let rec raise_max () =
    let m = Atomic.get t.max in
    if v > m && not (Atomic.compare_and_set t.max m v) then raise_max ()
  in
  raise_max ()

let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts
let sum t = Atomic.get t.sum
let max t = Atomic.get t.max

(* Bucket k's upper edge 2^k; the top positive bucket's edge would
   overflow to min_int, so it reads as max_int. *)
let upper_edge k = if k = 0 then 0 else if k >= Sys.int_size - 1 then max_int else 1 lsl k

let quantile_upper t q =
  let total = count t in
  let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int total))) in
  let rec walk k seen =
    if k >= slots then 0
    else
      let seen = seen + Atomic.get t.counts.(k) in
      if seen >= rank then Stdlib.min (upper_edge k) (max t)
      else walk (k + 1) seen
  in
  if total = 0 then 0 else walk 0 0

let buckets t =
  let acc = ref [] in
  for k = slots - 1 downto 0 do
    let c = Atomic.get t.counts.(k) in
    if c > 0 then acc := ((if k = 0 then 0 else 1 lsl (k - 1)), c) :: !acc
  done;
  !acc

let reset t =
  Array.iter (fun a -> Atomic.set a 0) t.counts;
  Atomic.set t.sum 0;
  Atomic.set t.max 0
