(** Randomized differential tester for {!Rational}.

    Runs a deterministic stream of operations through {!Rational} and
    through an internal reference implementation (naive bigint
    numerator/denominator pairs, no fast paths), comparing values,
    ordering, rounding, printing, hashing and the representation's
    canonicality invariant after every step. The operand distribution is
    biased toward the two-tier representation's fault lines: tiny
    fractions, numerators/denominators adjacent to [max_int] and to
    {!Rational.small_bound} (forced spills), and multi-limb values.
    It also checks {!Rational.of_string}'s machine-int fast path against
    the all-bigint parser.

    Used by the tier-1 test suite (so a representation regression fails
    [dune runtest]) and by [bench num --check]. *)

type outcome = { ops : int; parses : int; mismatches : string list }

val run : ?ops:int -> seed:int -> unit -> outcome
(** [run ~ops ~seed ()] samples [ops] operations (default 10_000)
    deterministically from [seed], then parses a fixed list of edge
    spellings plus [ops / 4] generated ones with both
    {!Rational.of_string} and {!Rational.of_string_big} (equal value,
    equal tier, or the same exception), and returns every mismatch
    found. *)

val run_exn : ?ops:int -> seed:int -> unit -> outcome
(** Like {!run}. @raise Failure on the first mismatching outcome. *)

val ok : outcome -> bool

val describe : outcome -> string
(** One-line human summary. *)
