(** A CRSharing problem instance: [m] processors, each with a fixed,
    ordered sequence of jobs (paper, Section 3.1).

    Processors are indexed [0 .. m-1] and jobs on a processor
    [0 .. n_i - 1]; the paper's job [(i, j)] (1-based) is [job t (i-1)
    (j-1)] here. *)

type t

(** {1 Construction} *)

val create : Job.t array array -> t
(** [create rows] where [rows.(i)] is processor [i]'s job sequence.
    @raise Invalid_argument if there are no processors. Empty rows are
    allowed (a processor may have zero jobs). *)

val of_requirements : Crs_num.Rational.t array array -> t
(** Unit-size instance from a requirement matrix. *)

val of_percent : int list list -> t
(** Unit-size instance with requirements given in percent, matching the
    paper's figure labels; e.g. Figure 1's instance is
    [of_percent [[20;10;10;10]; [50;55;90;55;10]; [50;40;95]]]. *)

(** {1 Accessors} *)

val m : t -> int
(** Number of processors. *)

val n_i : t -> int -> int
(** Number of jobs on a processor. *)

val n_max : t -> int
(** [max_i n_i] — the paper's [n]. *)

val total_jobs : t -> int

val job : t -> int -> int -> Job.t
(** [job t i j] is the [j]-th job of processor [i] (both 0-based).
    @raise Invalid_argument when out of range. *)

val jobs_on : t -> int -> Job.t array
(** Fresh copy of a processor's job sequence. *)

val rows : t -> Job.t array array
(** Fresh copy of the whole matrix. *)

val total_work : t -> Crs_num.Rational.t
(** [Σ_ij r_ij·p_ij] — the total load in the alternative interpretation,
    the basis of the Observation 1 lower bound. *)

val m_j : t -> int -> int
(** [m_j t j] is [|M_j|], the number of processors with at least [j] jobs
    ([j] 1-based as in the paper). *)

val is_unit_size : t -> bool
(** All job sizes equal one. *)

(** {1 Combinators} *)

val concat_processors : t -> t -> t
(** Side-by-side union: the processors of both instances in one system
    (shares one resource). *)

val append_jobs : t -> t -> t
(** Sequential composition: processor [i] runs [a]'s row then [b]'s row.
    @raise Invalid_argument unless both have the same number of
    processors. *)

val map_jobs : (int -> int -> Job.t -> Job.t) -> t -> t
(** [map_jobs f t] rebuilds with [f proc index job]. *)

val scale_requirements : Crs_num.Rational.t -> t -> t
(** Multiply every requirement by a factor (clamped nowhere — the result
    must stay within [0,1] or {!Job.make} raises). *)

val sub_processors : t -> int list -> t
(** Restriction to the given processors (in the given order).
    @raise Invalid_argument on out-of-range or empty selections. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Serialization}

    Text format: one line per processor; each job is [r] (unit size) or
    [r*p]; rationals as [p/q] or decimals. ['#'] starts a comment line. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** One processor per line, jobs as rationals [r] or [r*p] separated by
    blanks; blank lines and [#] comments are skipped. A bad token is
    reported with its text, its line and its processor. *)

val load : string -> (t, string) result
(** Read an instance from a file path. *)

val save : string -> t -> unit
