(** Always-on log2 histogram over non-negative integer samples.

    Bucket 0 holds values [<= 0] and bucket [k >= 1] holds
    [2^(k-1) <= v < 2^k], a fixed 64-slot footprint that gives useful
    shape to quantities spanning orders of magnitude (latencies in
    microseconds, DP states per instance). Updates are lock-free
    ([Atomic]) and safe from any domain or thread. {!Metrics} builds its
    registered, enable-gated histograms on this type; the serve
    frontend's per-kind latency histograms use it directly, so the
    crs-serve/1 [stats] response carries latency whether or not the
    metrics subsystem is on. *)

type t

val create : unit -> t
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int

val max : t -> int
(** Largest sample seen, 0 on an empty histogram. *)

val quantile_upper : t -> float -> int
(** Upper edge [2^k] of the bucket holding the nearest-rank
    [q]-quantile sample, clamped to {!max} so no quantile exceeds the
    largest sample; 0 on an empty histogram. Coarse (a power of two
    below the max) but monotone, which is what a regression gate
    needs. *)

val buckets : t -> (int * int) list
(** Non-empty buckets as (lower edge, count), in increasing order. *)

val reset : t -> unit
