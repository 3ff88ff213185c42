(* NP-hardness, executed: solve Partition by scheduling (Theorem 4).

   For random YES and NO Partition instances we build the CRSharing
   gadget, solve it exactly, and read the answer off the makespan:
   4 <=> YES, >= 5 <=> NO. Corollary 1's 5/4 gap is visible directly.

   Run with: dune exec examples/partition_hardness.exe *)

module P = Crs_reduction.Partition
module R = Crs_reduction.Reduce

let () =
  let st = Random.State.make [| 99 |] in
  Printf.printf "%-28s %-8s %-10s %-10s %s\n" "elements" "DP says" "makespan"
    "verdict" "agree?";
  let check p =
    let truth = P.is_yes p in
    let makespan = Crs_kernels.Opt_config.makespan (R.to_crsharing p) in
    let verdict = makespan = R.yes_makespan in
    Printf.printf "%-28s %-8s %-10d %-10s %s\n"
      (String.concat ";" (Array.to_list (Array.map string_of_int p.P.elements)))
      (if truth then "YES" else "NO")
      makespan
      (if verdict then "YES" else "NO")
      (if truth = verdict then "ok" else "MISMATCH!");
    assert (truth = verdict)
  in
  for _ = 1 to 4 do
    check (P.random_yes ~n:4 ~max_value:9 st)
  done;
  for _ = 1 to 3 do
    check (P.random_no ~n:5 ~max_value:6 st)
  done;
  Printf.printf
    "\nEvery NO instance needs >= %d steps while YES instances finish in %d:\n\
     approximating CRSharing below %s is NP-hard (Corollary 1).\n"
    R.no_makespan_lower R.yes_makespan
    (Crs_num.Rational.to_string R.gap_ratio)
