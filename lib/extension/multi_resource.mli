(** CRSharing with several shared continuous resources (paper, Section 9:
    "extend the model to other, possibly more realistic scenarios";
    Section 2 frames resource-constrained scheduling with "one or more
    additional resources").

    Each of the [d] resources is continuously divisible with capacity 1
    per step. A job has a requirement vector [r ∈ [0,1]^d] and runs
    Leontief-style: granted shares [x·r] (componentwise, [x ≤ 1]) it
    processes [x] volume units — the resources are needed in fixed
    proportion, so the slowest-granted resource gates progress. [d = 1]
    is exactly the paper's model (bridge-tested against the core
    implementation). *)

type job = private { requirements : Crs_num.Rational.t array; size : Crs_num.Rational.t }

type t = private { d : int; procs : job array array }

val job : requirements:Crs_num.Rational.t array -> size:Crs_num.Rational.t -> job
(** @raise Invalid_argument unless every component is in [0,1], the
    vector is non-empty, and size > 0. *)

val unit_job : Crs_num.Rational.t array -> job

val create : d:int -> job array array -> t
(** @raise Invalid_argument on dimension mismatches or zero
    processors. *)

val of_instance : Crs_core.Instance.t -> t
(** Embed a single-resource instance ([d = 1]). *)

val m : t -> int
val total_jobs : t -> int

val work : t -> int -> Crs_num.Rational.t
(** Total work on resource [k]: [Σ r_ijk·p_ij]. *)

val lower_bound : t -> int
(** [max_k ⌈work k⌉] and the per-processor job-count bound. *)

(** {1 Scheduling} *)

type run = {
  makespan : int;
  shares : Crs_num.Rational.t array array array;
      (** [shares.(t).(i).(k)]: resource [k] granted to processor [i] in
          step [t] *)
}

val check : t -> run -> (unit, string) Stdlib.result
(** Per-step, per-resource capacity and exact completion of all jobs. *)

val greedy_balance : t -> run
(** The paper's GreedyBalance lifted to vectors: priority by remaining
    job count, then by remaining work summed over resources; each job in
    priority order receives the largest feasible speed given what is
    left of every resource it needs. *)

val uniform : t -> run
(** Baseline: equal speed targets for all active processors, capped by
    the per-resource budgets in processor order. *)

val greedy_matches_single_resource : Crs_core.Instance.t -> bool
(** Bridge check: on [d = 1] embeddings, the vector GreedyBalance
    produces the same makespan as [Crs_kernels.Greedy_balance]
    (property-tested). *)
