(** Text histograms for load distributions (experiment E6). *)

type t

val of_samples : ?buckets:int -> int array -> t
(** Equal-width bucketing over the sample range (default 12 buckets). *)

val pp : ?bar_width:int -> Format.formatter -> t -> unit
(** Renders one line per bucket: range, count, and a proportional bar. *)

val bucket_counts : t -> (int * int * int) list
(** [(lo, hi, count)] per bucket (inclusive bounds). *)

(** {1 Quantiles}

    Percentile support for latency samples (the open-loop load engine,
    docs/LOAD.md). Nearest-rank on the exact sample set — no
    interpolation, so every reported percentile is a value that actually
    occurred, and results are deterministic for a given sample multiset. *)

val quantile : float array -> q:float -> float
(** [quantile samples ~q] is the nearest-rank [q]-quantile of a
    non-empty sample array ([q] in [\[0, 1\]]; [q = 0.5] is the median,
    [q = 1.] the maximum). Sorts a copy; the input is untouched. *)

type latency_summary = { p50 : float; p90 : float; p99 : float; max : float }

val summary : float array -> latency_summary
(** The standard reporting quartet over a non-empty sample array: the
    same four values as {!quantile} at [0.5], [0.9], [0.99] and [1.], from
    one sorted copy. @raise Invalid_argument on an empty sample. *)
