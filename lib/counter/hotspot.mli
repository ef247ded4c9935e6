(** Mechanical Hot Spot Lemma checker.

    Hot Spot Lemma (Section 2): if processors [p] and [q] increment the
    counter in direct succession then [I_p], the set of processors that
    send or receive a message during [p]'s operation, must intersect
    [I_q] — otherwise no processor involved in [q]'s operation knows the
    new counter value and [q] would read a stale value.

    The lemma is a *necessary* property of any correct counter, so checking
    it on executions is a sanity check of both the implementations and the
    trace machinery: every correct counter must pass, and a deliberately
    broken counter (see the test suite's [Amnesiac] counter) must fail it
    and simultaneously return wrong values. *)

type violation = {
  first_op : int;  (** Index of the earlier operation. *)
  second_op : int;
  first_origin : int;
  second_origin : int;
}

(** {1 Streaming monitor}

    The lemma concerns consecutive operations only, so the monitor keeps
    the previous operation's processor set as stamps in a per-processor
    array, not the traces: feeding a run costs memory in the largest
    processor id, not in the number of operations. *)

type t

val create : unit -> t

val feed : t -> Sim.Trace.t -> unit
(** Feed the next operation's trace (chronological order). Raises
    [Invalid_argument] on a negative processor id. *)

val violations : t -> violation list
(** Violations among the traces fed so far, chronological. *)

(** {1 Whole executions} *)

val check : Sim.Trace.t list -> violation list
(** [check traces] examines every consecutive pair of operation traces
    (chronological order) and returns all pairs with disjoint processor
    sets. Empty result = lemma holds on this execution. A fold of
    {!feed} over [traces]. *)

val holds : Sim.Trace.t list -> bool

val pp_violation : Format.formatter -> violation -> unit
