(** The bench harness: one paired-reps timer, one best-of-reps timer and
    one BENCH JSON writer, shared by every gated experiment in
    [bench/main.ml].

    A gate compares two sides (kernel vs registry, flat vs legacy,
    sequential vs parallel). {!paired} times both in the same process,
    back to back, with the order alternating from rep to rep, so
    machine-speed drift hits both halves of a pair and cancels out of
    its ratio. The gate reads the {e median} of the per-rep ratios, and
    the interquartile range of those ratios states the noise: a median
    that moves less than its IQR is not a measured difference. *)

type clock = unit -> float
(** Seconds from an arbitrary epoch. *)

val wall : clock
(** Wall time. For parallel regions, where CPU time sums over domains. *)

val cpu : clock
(** CPU time of the whole process: keeps descheduling out of
    single-domain regions. *)

val quantile : float array -> float -> float
(** [quantile a q] for [q] in [0, 1]: linear interpolation between the
    closest ranks of the sorted values (a sorted copy; [a] is left as
    it is). [quantile a 0.5] is the median.
    @raise Invalid_argument on an empty array. *)

val iqr : float array -> float
(** [quantile a 0.75 -. quantile a 0.25]. *)

type paired = {
  a_s : float;  (** best time of side [a] over the reps, seconds *)
  b_s : float;  (** best time of side [b] *)
  ratio : float;  (** median over the reps of [b]'s time / [a]'s time *)
  ratio_iqr : float;  (** interquartile range of those ratios *)
}

val paired :
  ?warmups:int -> clock:clock -> reps:int -> (unit -> 'a) -> (unit -> 'b) -> paired
(** [paired ~clock ~reps a b] first calls [a] then [b] [warmups] times
    (default 1) untimed, so no retained rep carries first-call costs,
    and compacts the heap. Then each of [reps] reps times both sides
    once: [a] before [b] in even reps, [b] before [a] in odd ones. Every
    timed call starts right after a [Gc.full_major], so no call pays
    for major slices the previous one owed.
    @raise Invalid_argument when [reps < 1]. *)

val time_min : ?clock:clock -> reps:int -> (unit -> 'a) -> float
(** Best of [reps] timed calls of [f] (default clock {!wall}), after one
    [Gc.compact]: for a single side measured on its own, where no pair
    exists to cancel drift. *)

val write_json : string -> (string * string) list -> unit
(** [write_json file fields] writes one {!Crs_util.Stable_json} object
    line: [fields] in order (values pre-encoded), then ["nproc"] (the
    logical CPU count the runtime sees) and ["cpu_model"] (from
    [/proc/cpuinfo], ["unknown"] where absent). Prints
    [wrote <file>]. *)
