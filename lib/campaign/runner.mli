(** Campaign execution: expand a {!Spec.t} into items and evaluate them,
    sequentially or on the {!Crs_exec.Exec} work-stealing executor.

    Determinism contract: item results (minus timing) depend only on the
    spec — instances are regenerated from their seed inside the item,
    timeouts are fuel-based (work-metered, not wall-clock), and items
    share no mutable state — so [run ~domains:1] and [run ~domains:k]
    produce identical {!Report.payload}s. *)

val default_names : string list
(** Default set for comparison tables: every policy-backed algorithm
    plus ["optimal"], in registry order. *)

val algorithm_names : string list
(** All registered names ([= Crs_algorithms.Registry.names]). *)

val run_item : Spec.t -> Spec.item -> Report.record
(** Evaluate one item: regenerate the instance from its seed, check the
    solver's capability record (a rejected instance records
    [Not_applicable] without running), run the algorithm and then the
    baseline (each under the spec's fuel budget), capture [Out_of_fuel]
    as [Timeout] and any other exception as [Error]. Never raises. The
    record carries the solver's {!Crs_algorithms.Registry.Counters.t}
    when the solve completed. *)

val run : ?domains:int -> Spec.t -> Report.record array
(** Run the whole campaign; records are in item order regardless of the
    pool size. [domains <= 1] (default) runs sequentially in the calling
    domain; larger values use {!Crs_exec.Exec.map}.
    @raise Invalid_argument when {!Spec.validate} rejects the spec. *)

val compare_records :
  ?names:string list ->
  ?baseline:Spec.baseline ->
  ?fuel:int ->
  family:string ->
  Crs_core.Instance.t ->
  Report.record list
(** Evaluate the named algorithms (default: all) on one concrete
    instance, yielding campaign-schema records — the backend of
    [crsched compare --json]. [family] labels the records (e.g.
    ["file"]). *)
