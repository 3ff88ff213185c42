(* Frozen pre-instrumentation copy of Opt_two's makespan path (the DP
   only — replay is not timed by the overhead gate). The obs experiment
   compares Crs_algorithms.Opt_two (profiling hooks compiled in, tracing
   disabled) against this copy inside ONE process with interleaved reps,
   so machine-speed drift between processes cancels out of the ratio.

   Keep this file in sync with nothing: it is deliberately a snapshot of
   lib/algorithms/opt_two.ml (the flat-state kernel) with the
   observability hooks (spans, histogram) removed; the work counters
   and the fuel tick stay because they are kernel features that predate
   the obs layer, not profiling hooks. If the DP itself changes later,
   re-snapshot it; the gate compares like against like. The tableau
   pool and its epoch stamps are kernel features too, so the copy
   carries its own pool with the same retention constants. *)

module Q = Crs_num.Rational
module SR = Crs_num.Smallrat
open Crs_core

let start = 0
let finish_both = 1
let finish_fst = 2
let finish_snd = 3
let only_fst = 4
let only_snd = 5

let check instance =
  if Instance.m instance <> 2 then
    invalid_arg "Opt_two_unhooked: instance must have exactly 2 processors";
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_two_unhooked: unit-size jobs only"

type reqs = { boxed : Q.t array; reqp : int array; reqq : int array }

let prefetch instance i =
  let n = Instance.n_i instance i in
  let boxed =
    Array.init (n + 1) (fun k ->
        if k < n then Job.requirement (Instance.job instance i k) else Q.zero)
  in
  let reqp = Array.make (n + 1) 0 and reqq = Array.make (n + 1) 0 in
  Array.iteri
    (fun k r ->
      if Q.is_small r then begin
        reqp.(k) <- Q.small_num r;
        reqq.(k) <- Q.small_den r
      end)
    boxed;
  { boxed; reqp; reqq }

let common_den r1 r2 =
  let max_num = 1 lsl 59 in
  let lden = ref 1 and ok = ref true in
  let fold r =
    Array.iter
      (fun q ->
        if q = 0 then ok := false
        else begin
          let l = !lden / Crs_num.Natural.gcd_int !lden q * q in
          if l > Q.small_bound then ok := false else lden := l
        end)
      r.reqq
  in
  fold r1;
  fold r2;
  if not !ok then None
  else begin
    let l = !lden in
    let scale r =
      Array.map2
        (fun p q ->
          let f = l / q in
          if p > max_num / f then ok := false;
          p * f)
        r.reqp r.reqq
    in
    let rn1 = scale r1 and rn2 = scale r2 in
    if !ok then Some (l, rn1, rn2) else None
  end

let max_pooled_cells = 1 lsl 17
let slots = Array.make (Domain.recommended_domain_count ()) [||]
let slots_lock = Mutex.create ()
let next_epoch = Atomic.make 1

let acquire size =
  let found =
    Mutex.protect slots_lock (fun () ->
        let best = ref (-1) in
        for i = 0 to Array.length slots - 1 do
          let len = Array.length slots.(i) in
          if len >= size * 4 && (!best < 0 || len < Array.length slots.(!best))
          then best := i
        done;
        if !best < 0 then [||]
        else begin
          let b = slots.(!best) in
          slots.(!best) <- [||];
          b
        end)
  in
  if Array.length found > 0 then found
  else if size > max_pooled_cells then Array.make (size * 4) (-1)
  else begin
    let cap = ref 1 in
    while !cap < size do
      cap := !cap * 2
    done;
    Array.make (Stdlib.min !cap max_pooled_cells * 4) (-1)
  end

let release b =
  let len = Array.length b in
  if len <= max_pooled_cells * 4 then
    Mutex.protect slots_lock (fun () ->
        let target = ref (-1) in
        for i = 0 to Array.length slots - 1 do
          let sl = Array.length slots.(i) in
          if sl < len && (!target < 0 || sl < Array.length slots.(!target)) then
            target := i
        done;
        if !target >= 0 then slots.(!target) <- b)

type tableau = {
  w : int;
  cells : int array;
  epoch : int;
  spill : (int, Q.t) Hashtbl.t;
}

let cell_tv tab idx =
  let base = idx lsl 2 in
  let tv = tab.cells.(base) in
  if tv >= 0 && tab.cells.(base + 3) = tab.epoch then tv else -1

let cell_r tab idx =
  let base = idx lsl 2 in
  let q = tab.cells.(base + 2) in
  if q <> 0 then SR.to_rational tab.cells.(base + 1) q
  else Hashtbl.find tab.spill idx

let with_dp instance k =
  check instance;
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let w = n2 + 1 in
  let cells_a = acquire ((n1 + 1) * w) in
  Fun.protect ~finally:(fun () -> release cells_a) @@ fun () ->
  let epoch = Atomic.fetch_and_add next_epoch 1 in
  let tab = { w; cells = cells_a; epoch; spill = Hashtbl.create 16 } in
  let r1 = prefetch instance 0 and r2 = prefetch instance 1 in
  let cells = ref 0 and relaxes = ref 0 in
  let relax idx t p q rbig via =
    incr relaxes;
    let base = idx lsl 2 in
    let cur_tv = cells_a.(base) in
    let cur_tv = if cur_tv >= 0 && cells_a.(base + 3) <> epoch then -1 else cur_tv in
    let cur_t = cur_tv asr 3 in
    let better =
      cur_tv < 0 || t < cur_t
      || t = cur_t
         &&
         let cq = cells_a.(base + 2) in
         if q <> 0 && cq <> 0 then SR.compare p q cells_a.(base + 1) cq < 0
         else begin
           let cand = if q <> 0 then SR.to_rational p q else rbig in
           Q.(cand < cell_r tab idx)
         end
    in
    if better then begin
      cells_a.(base) <- (t lsl 3) lor via;
      cells_a.(base + 3) <- epoch;
      if q <> 0 then begin
        if cur_tv >= 0 && cells_a.(base + 2) = 0 then
          Hashtbl.remove tab.spill idx;
        cells_a.(base + 1) <- p;
        cells_a.(base + 2) <- q
      end
      else begin
        cells_a.(base + 2) <- 0;
        Hashtbl.replace tab.spill idx rbig
      end
    end
  in
  let relax_box idx t r via =
    if Q.is_small r then relax idx t (Q.small_num r) (Q.small_den r) Q.zero via
    else relax idx t 0 0 r via
  in
  let acc = SR.out () and m1 = SR.out () in
  let lden, rn1, rn2 =
    match common_den r1 r2 with
    | Some (l, a, b) -> (l, a, b)
    | None -> (0, [||], [||])
  in
  (if lden <> 0 then relax 0 0 (rn1.(0) + rn2.(0)) lden Q.zero start
   else if
     r1.reqq.(0) <> 0 && r2.reqq.(0) <> 0
     && SR.add acc r1.reqp.(0) r1.reqq.(0) r2.reqp.(0) r2.reqq.(0)
   then relax 0 0 acc.p acc.q Q.zero start
   else relax_box 0 0 (Q.add r1.boxed.(0) r2.boxed.(0)) start);
  for level = 0 to n1 + n2 - 1 do
    for i1 = max 0 (level - n2) to min level n1 do
      let i2 = level - i1 in
      let idx = (i1 * w) + i2 in
      let base = idx lsl 2 in
      let tv = cells_a.(base) in
      if tv >= 0 && cells_a.(base + 3) = epoch then begin
        Crs_util.Fuel.tick ();
        incr cells;
        let t' = (tv asr 3) + 1 in
        let cp = cells_a.(base + 1) and cq = cells_a.(base + 2) in
        if i1 >= n1 && i2 < n2 then begin
          let k = i2 + 1 in
          if lden <> 0 then relax (idx + 1) t' rn2.(k) lden Q.zero only_snd
          else if r2.reqq.(k) <> 0 then
            relax (idx + 1) t' r2.reqp.(k) r2.reqq.(k) Q.zero only_snd
          else relax (idx + 1) t' 0 0 r2.boxed.(k) only_snd
        end
        else if i2 >= n2 && i1 < n1 then begin
          let k = i1 + 1 in
          if lden <> 0 then relax (idx + w) t' rn1.(k) lden Q.zero only_fst
          else if r1.reqq.(k) <> 0 then
            relax (idx + w) t' r1.reqp.(k) r1.reqq.(k) Q.zero only_fst
          else relax (idx + w) t' 0 0 r1.boxed.(k) only_fst
        end
        else if i1 < n1 && i2 < n2 then begin
          let k1 = i1 + 1 and k2 = i2 + 1 in
          if lden <> 0 then begin
            if cp <= lden then
              relax (idx + w + 1) t' (rn1.(k1) + rn2.(k2)) lden Q.zero
                finish_both
            else begin
              let m = cp - lden in
              relax (idx + w) t' (rn1.(k1) + m) lden Q.zero finish_fst;
              relax (idx + 1) t' (m + rn2.(k2)) lden Q.zero finish_snd
            end
          end
          else begin
            let r_le_one =
              if cq <> 0 then SR.compare_one cp cq <= 0
              else Q.(Hashtbl.find tab.spill idx <= one)
            in
            if r_le_one then begin
              if r1.reqq.(k1) <> 0 && r2.reqq.(k2) <> 0
                 && SR.add acc r1.reqp.(k1) r1.reqq.(k1) r2.reqp.(k2) r2.reqq.(k2)
              then relax (idx + w + 1) t' acc.p acc.q Q.zero finish_both
              else
                relax_box (idx + w + 1) t'
                  (Q.add r1.boxed.(k1) r2.boxed.(k2))
                  finish_both
            end
            else begin
              if cq <> 0 && SR.sub_one m1 cp cq then begin
                (if r1.reqq.(k1) <> 0 && SR.add acc r1.reqp.(k1) r1.reqq.(k1) m1.p m1.q
                 then relax (idx + w) t' acc.p acc.q Q.zero finish_fst
                 else
                   relax_box (idx + w) t'
                     (Q.add r1.boxed.(k1) (SR.to_rational m1.p m1.q))
                     finish_fst);
                if r2.reqq.(k2) <> 0 && SR.add acc m1.p m1.q r2.reqp.(k2) r2.reqq.(k2)
                then relax (idx + 1) t' acc.p acc.q Q.zero finish_snd
                else
                  relax_box (idx + 1) t'
                    (Q.add (SR.to_rational m1.p m1.q) r2.boxed.(k2))
                    finish_snd
              end
              else begin
                let rm1 = Q.sub (cell_r tab idx) Q.one in
                relax_box (idx + w) t' (Q.add r1.boxed.(k1) rm1) finish_fst;
                relax_box (idx + 1) t' (Q.add rm1 r2.boxed.(k2)) finish_snd
              end
            end
          end
        end
      end
    done
  done;
  ignore !cells;
  ignore !relaxes;
  k tab

let makespan instance =
  with_dp instance @@ fun tab ->
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let tv = cell_tv tab ((n1 * tab.w) + n2) in
  if tv < 0 then
    failwith "Opt_two_unhooked.makespan: final state unreachable (bug)";
  tv asr 3
