(** Min-heap keyed by float priority, with FIFO tie-breaking.

    This is the event queue of the discrete-event engine. Ties are broken by
    insertion order so that two messages scheduled for the same instant are
    delivered in the order they were sent — which keeps runs deterministic
    even under the [Constant] delay model where every delivery time
    collides.

    Internally a structure-of-arrays 4-ary heap (unboxed float priorities,
    parallel int/value columns): steady-state push/pop allocates nothing.
    The (prio, seq) pop order is a total order, so results are identical to
    any other stable priority queue — see docs/PERFORMANCE.md. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty heap. [capacity] (default 0) pre-sizes the
    backing arrays so a queue with a known working-set size never pays a
    growth copy. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array size (grows by doubling; never shrinks). *)

val push : 'a t -> prio:float -> 'a -> unit
(** [push t ~prio x] inserts [x] with priority [prio]. O(log n),
    allocation-free once the backing arrays are warm. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element (earliest inserted among
    equals), or [None] when empty. O(log n). Allocates the option/tuple;
    hot paths use {!top_prio} + {!pop_top} instead. *)

val top_prio : 'a t -> float
(** Priority of the element {!pop} would return, without allocating.
    @raise Invalid_argument on an empty heap. *)

val pop_top : 'a t -> 'a
(** Removes and returns the minimum element without wrapping it — the
    allocation-free twin of {!pop}.
    @raise Invalid_argument on an empty heap. *)

val peek : 'a t -> (float * 'a) option
(** Returns the element [pop] would return, without removing it. O(1). *)

val clear : 'a t -> unit

val iter : (float -> 'a -> unit) -> 'a t -> unit
(** [iter f t] applies [f prio value] to every queued element in
    unspecified (heap) order. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive: all elements in pop order. O(n log n); for tests and
    debugging output. *)
