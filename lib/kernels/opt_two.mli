(** OptResAssignment: exact polynomial algorithm for two processors and
    unit-size jobs (paper, Section 6, Algorithm 1).

    Dynamic program over states [(i1, i2)] = number of jobs completed on
    each processor. Each state stores the lexicographically minimal pair
    [(t, r)]: the earliest step count [t] by which the first [i1]/[i2]
    jobs can be finished and, for that [t], the minimal combined remaining
    requirement [r] of the two active jobs. Lemma 3 shows this sum is a
    sufficient statistic, and Lemma 1 that restricting to steps finishing
    at least one job is safe. Runtime O(n²) states with O(1) transitions.

    Note on the paper's pseudocode: lines 20-21 of Algorithm 1 write the
    invested remainder as [A1(i1) + A2(i2) − 1], which equals [r − 1] only
    when both active jobs are untouched; we use [r − 1], which is what the
    invariant of Theorem 5 requires (see EXPERIMENTS.md, erratum E1; the
    implementation is cross-validated against brute force). *)

type counters = {
  cells_expanded : int;  (** DP cells reached and expanded in the sweep *)
  relaxations : int;  (** transitions examined (relax calls) *)
}

type solution = {
  makespan : int;
  schedule : Crs_core.Schedule.t;  (** a witness achieving the makespan *)
  counters : counters;  (** work counters, surfaced via {!Registry} *)
}

val solve : Crs_core.Instance.t -> solution
(** @raise Invalid_argument unless the instance has exactly two processors
    and unit-size jobs. *)

val makespan : Crs_core.Instance.t -> int
(** Optimal makespan only (skips witness reconstruction bookkeeping). *)

(** {1 Tableau pool}

    Solves take their tableau from a process-wide pool of reusable
    buffers instead of allocating one each time. *)

val max_pooled_cells : int
(** The largest buffer, in DP cells, the pool keeps. A solve whose
    table is larger allocates its own and drops it afterwards. *)

val retained : unit -> int list
(** Capacities, in cells, of the buffers the pool holds right now
    (ascending). There are at most [Domain.recommended_domain_count ()]. *)
