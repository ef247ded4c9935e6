(** Multi-seed replication and multicore fan-out for experiments.

    Single runs of a randomised experiment are anecdotes; {!across_seeds}
    turns a seeded measurement into mean / spread / 95% confidence
    interval. {!parallel_map} distributes independent runs across OCaml 5
    domains — every simulation in this repository is a self-contained
    value, so experiment sweeps parallelise trivially. *)

type summary = {
  runs : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
  min : float;
  max : float;
  ci95 : float;  (** Half-width of the normal-approximation 95% CI. *)
}

val across_seeds : seeds:int list -> (int -> float) -> summary
(** [across_seeds ~seeds f] evaluates [f seed] for every seed and
    summarises. Requires a non-empty seed list. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] evaluates [f] over [xs] using up to [domains]
    (default: [Domain.recommended_domain_count ()], capped at the list
    length) additional domains, preserving order. [f] must not share
    mutable state across calls. Falls back to [List.map] for lists of
    length [<= 1].

    Every spawned domain is joined before the call returns or raises,
    so no call of [f] outlives it. If [f] raises, the exception of the
    lowest-numbered failing worker is re-raised and the others are
    dropped: worker [w] evaluates the elements at indices [w],
    [w + d], [w + 2d], ... for [d] workers, and the calling domain is
    worker 0. *)

val across_seeds_parallel :
  ?domains:int -> seeds:int list -> (int -> float) -> summary
(** {!across_seeds} with the runs spread over domains. *)

val pp_summary : Format.formatter -> summary -> unit
(** ["mean +- ci95 (sd=..., n=...)"]. *)
