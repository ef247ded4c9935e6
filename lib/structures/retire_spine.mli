(** The paper's Section-4 machinery, generalised: a retirement tree
    serving {e any} sequential object.

    The protocol is exactly {!Core.Retire_counter}'s — requests climb an
    arity-k tree to the root, which holds the object state, applies the
    operation, and replies to the origin; inner nodes age by the messages
    they handle and retire to the next processor of their reserved
    interval, so every processor's load stays O(k) over the
    each-processor-once sequence. Section 2's remark makes this more than
    an analogy: for every object whose operations depend on their
    predecessors, the Omega(k) lower bound holds — and this functor
    supplies the matching upper bound, turning the paper's counter into a
    general construction for distributed sequential objects (experiment
    E12 measures flip-bit, max-register and priority-queue).

    Instantiated with {!Counter_obj} the functor reproduces the
    hand-written counter message for message (asserted in the test
    suite). *)

module Make (O : Sequential_object.OBJECT) : sig
  type t

  val create_with :
    ?seed:int -> ?delay:Sim.Delay.t -> Core.Retire_counter.config -> t
  (** Same configuration space as the counter: arity, depth, retirement
      threshold. *)

  val create : ?seed:int -> ?delay:Sim.Delay.t -> n:int -> unit -> t
  (** Paper-shaped tree for [n = k^(k+1)] processors;
      raises [Invalid_argument] otherwise (see {!supported_n}). *)

  val supported_n : int -> int

  val n : t -> int

  val execute : t -> origin:int -> O.operation -> O.result
  (** Perform one operation from processor [origin], running its process
      to quiescence. *)

  val state : t -> O.state
  (** The object's current (root) state. *)

  val operations : t -> int
  (** Operations completed. *)

  val metrics : t -> Sim.Metrics.t

  val traces : t -> Sim.Trace.t list

  val observe : t -> (Sim.Trace.t -> unit) -> unit

  val total_retirements : t -> int

  val believed_consistent : t -> bool

  val clone : t -> t
end
