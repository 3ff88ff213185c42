(** The paper's explicit instance families and worked examples.

    These are the paper's "evaluation artifacts": each figure's instance
    is reproduced exactly, and each lower-bound family is provided as a
    parameterized generator together with the paper's predictions, so the
    benches can check measured ratios against the claims.

    Two transcription notes (full discussion in EXPERIMENTS.md):
    - E1 (Algorithm 1, lines 20-21) is handled in {!Crs_kernels.Opt_two}.
    - E2: the printed formula for a block's second-column head job in the
      proof of Theorem 8 reads [1 − Σ_i (1 − r_ij) + ε], which contradicts
      the labels of Figure 5 (e.g. it yields 0.95 where the figure says
      0.07); the figure's values satisfy [Σ_i (1 − r_ij) + ε], which also
      makes the diagonals sum to exactly 1 as the proof requires. We use
      the latter. *)

(** {1 Figure 1: hypergraph illustration} *)

val figure1 : Crs_core.Instance.t
(** Three processors with requirements (in percent)
    [20 10 10 10 / 50 55 90 55 10 / 50 40 95]. *)

(** {1 Figure 2: nested vs unnested} *)

val figure2 : Crs_core.Instance.t
(** [50 50 50 50 / 100 / 100]. *)

val figure2_nested_schedule : Crs_core.Schedule.t
(** The schedule of Figure 2b (non-wasting, progressive, nested). *)

val figure2_unnested_schedule : Crs_core.Schedule.t
(** The schedule of Figure 2c (non-wasting, progressive, not nested). *)

(** {1 Figure 3 / Theorem 3: RoundRobin worst-case family} *)

val round_robin_family : n:int -> Crs_core.Instance.t
(** Two processors, [n] jobs each, [ε = 1/n]: [r_1j = j·ε] and
    [r_2j = (1 + ε) − r_1j]. *)

val round_robin_family_opt_schedule : n:int -> Crs_core.Schedule.t
(** The staircase optimum of Figure 3a with makespan [n + 1]: step [t]
    completes job [t] of processor 1 (for [t ≤ n]) and job [t − 1] of
    processor 2 (for [t ≥ 2]), pre-investing the slack of step [t] into
    processor 2's job [t]. *)

val round_robin_family_predicted : n:int -> int * int
(** [(2n, n+1)]: RoundRobin and optimal makespans proved in Theorem 3. *)

(** {1 Figure 5 / Theorem 8: GreedyBalance worst-case family} *)

val greedy_balance_family :
  ?epsilon:Crs_num.Rational.t -> m:int -> blocks:int -> unit -> Crs_core.Instance.t
(** The block construction from the proof of Theorem 8 (with erratum E2
    applied): [m] processors, [blocks] blocks of [m×m] jobs. [epsilon]
    defaults to [1/(2·m²·blocks)], small enough that every requirement
    stays in [(0,1)] for the requested number of blocks (checked; the
    constructor raises otherwise).
    @raise Invalid_argument if [m < 2], [blocks < 1] or [epsilon] leads to
    requirements outside [0,1]. *)

val greedy_balance_family_predicted : m:int -> blocks:int -> int
(** GreedyBalance's makespan on the family: [(2m−1)] steps per block as
    proved in Theorem 8 (checked in tests/benches against the measured
    value). *)

val figure5 : Crs_core.Instance.t
(** The family at [m = 3], [ε = 1/100], 3 blocks — the instance whose
    first nine columns Figure 5 depicts. *)

(** {1 Figure 4} is the Partition gadget; see [Crs_reduction.Reduce]. *)
