(** Deterministic, splittable pseudo-random number generator.

    All randomness in the simulator flows through this module so that every
    experiment is reproducible bit-for-bit from a single integer seed,
    independently of the OCaml standard library's [Random] implementation
    (which has changed across compiler releases).

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    statistically solid generator whose [split] operation yields an
    independent stream, which is exactly what we need to hand separate
    streams to separate protocol components without coupling their draws. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] returns a fresh generator whose stream is statistically
    independent of [t]'s future output. [t] advances by one draw. *)

val copy : t -> t
(** [copy t] duplicates the exact current state (same future stream). *)

val keyed : seed:int -> int -> int -> t
(** [keyed ~seed a b] is a stream that is a pure function of the triple
    [(seed, a, b)] — stateless derivation, no shared generator advanced.
    {!Arrivals} keys one per source on [(origin, tag)], so a source's
    draws do not depend on how many other sources exist or in which
    order they are consumed. Distinct triples give independent streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0 .. n-1]. *)
