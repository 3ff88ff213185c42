(** Information-restricted (semi-online) policies.

    The paper's model hands the scheduler the entire instance, but its
    two practical algorithms never look ahead: at each step they read
    only each processor's {e current} job (requirement and remaining
    work) and how many jobs remain behind it. This module makes that
    observation precise: an online policy sees a {!view} per processor
    and nothing else, and an adapter turns it into an ordinary
    {!Policy.t}. Tests confirm RoundRobin and GreedyBalance factor
    through this interface unchanged, i.e. they are semi-online (they
    still know the {e number} of remaining jobs, not their
    requirements). *)

type view = {
  proc : int;
  active_requirement : Crs_num.Rational.t;  (** of the current job *)
  remaining_work : Crs_num.Rational.t;  (** of the current job *)
  jobs_behind : int;  (** unfinished jobs after the current one *)
  time : int;  (** current step, 1-based *)
}

type t = view array -> Crs_num.Rational.t array
(** Views of the processors that still have work, in processor order.
    The result assigns shares by position in the input array. *)

val to_policy : t -> Policy.t
(** Run an online policy in the full model: builds the views, calls the
    policy, scatters the shares (inactive processors get zero). *)

val greedy_balance : t
(** GreedyBalance expressed online: sort by (jobs remaining, remaining
    work) descending and pour. Produces bit-identical schedules to
    [Crs_kernels.Greedy_balance] (tested). *)

val round_robin : t
(** RoundRobin expressed online: only processors whose
    total-remaining-count is maximal … cannot be expressed with
    [jobs_behind] alone when queues have different lengths; the online
    RoundRobin gates on the maximum remaining count, which coincides
    with the paper's phases when all queues start equal (tested), and is
    a natural semi-online generalization otherwise. *)

val clairvoyance_gap :
  exact:(Instance.t -> int) -> t -> Instance.t -> int * int
(** [(online_makespan, offline_optimum)]: what the information
    restriction costs on this instance. *)
